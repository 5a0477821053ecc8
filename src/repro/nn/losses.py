"""Loss functions for the numpy neural-network substrate (fused engine).

Each loss exposes ``forward(prediction, target) -> float`` and
``backward() -> np.ndarray`` returning the gradient w.r.t. the prediction,
already divided by the batch size so optimizers see mean gradients.

Like the layers, losses keep grow-only workspace buffers: after the first
batch of the largest size, ``forward``/``backward`` allocate nothing, and the
float64 results are bit-identical to the pre-fusion forms (same ufuncs, same
operation order).  The array returned by ``backward`` is owned by the loss
and valid until its next ``forward`` call.
"""

from __future__ import annotations

import numpy as np

from repro.nn.workspace import Workspace
from repro.utils.errors import ValidationError

_EPS = 1e-12


class Loss:
    """Base class for losses."""

    def __init__(self) -> None:
        self._ws = Workspace()

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)


class MSELoss(Loss):
    """Mean squared error over all elements."""

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        if prediction.shape != target.shape:
            raise ValidationError(
                f"MSE shapes differ: {prediction.shape} vs {target.shape}"
            )
        diff = self._ws.get("diff", prediction.shape, np.result_type(prediction, target))
        np.subtract(prediction, target, out=diff)
        self._diff = diff
        sq = self._ws.get("sq", diff.shape, diff.dtype)
        np.square(diff, out=sq)
        return float(np.mean(sq))

    def backward(self) -> np.ndarray:
        diff = self._diff
        grad = self._ws.get("grad", diff.shape, diff.dtype)
        np.multiply(2.0, diff, out=grad)
        grad /= diff.size
        return grad


class BinaryCrossEntropy(Loss):
    """BCE on probabilities in (0, 1), as produced by a sigmoid output layer.

    Matches the discriminator objective of Eq. (8) in the paper and the
    non-saturating generator objective of Eq. (9) when the target is all-ones.
    """

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        if prediction.shape != target.shape:
            raise ValidationError(
                f"BCE shapes differ: {prediction.shape} vs {target.shape}"
            )
        dt = np.result_type(prediction, target)
        p = self._ws.get("p", prediction.shape, dt)
        np.clip(prediction, _EPS, 1.0 - _EPS, out=p)
        self._p, self._t = p, target
        # target * log(p) + (1 - target) * log(1 - p), kept in that order
        a = self._ws.get("a", p.shape, dt)
        b = self._ws.get("b", p.shape, dt)
        c = self._ws.get("c", p.shape, dt)
        np.log(p, out=a)
        np.multiply(target, a, out=a)
        np.subtract(1.0, p, out=b)
        np.log(b, out=b)
        np.subtract(1.0, target, out=c)
        np.multiply(c, b, out=b)
        np.add(a, b, out=a)
        return float(-np.mean(a))

    def backward(self) -> np.ndarray:
        p, t = self._p, self._t
        grad = self._ws.get("grad", p.shape, p.dtype)
        tmp = self._ws.get("tmp", p.shape, p.dtype)
        np.subtract(p, t, out=grad)
        np.subtract(1.0, p, out=tmp)
        np.multiply(p, tmp, out=tmp)
        np.divide(grad, tmp, out=grad)
        grad /= p.size
        return grad


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross-entropy on logits, targets as one-hot rows.

    ``backward`` returns the well-known ``(softmax - onehot) / batch`` form,
    keeping the classifier's output layer linear (no separate softmax layer).
    """

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        if prediction.shape != target.shape:
            raise ValidationError(
                f"Cross-entropy shapes differ: {prediction.shape} vs {target.shape}"
            )
        dt = np.result_type(prediction, target)
        row = self._ws.get("row", (prediction.shape[0], 1), dt)
        np.max(prediction, axis=1, keepdims=True, out=row)
        z = self._ws.get("z", prediction.shape, dt)
        np.subtract(prediction, row, out=z)
        probs = self._ws.get("probs", z.shape, dt)
        np.exp(z, out=probs)
        np.sum(probs, axis=1, keepdims=True, out=row)
        logp = self._ws.get("logp", z.shape, dt)
        np.log(row, out=self._ws.get("logsum", row.shape, dt))
        np.subtract(z, self._ws.get("logsum", row.shape, dt), out=logp)
        np.divide(probs, row, out=probs)
        self._probs = probs
        self._t = target
        np.multiply(target, logp, out=logp)
        per_row = self._ws.get("per_row", (z.shape[0],), dt)
        np.sum(logp, axis=1, out=per_row)
        return float(-np.mean(per_row))

    def backward(self) -> np.ndarray:
        grad = self._ws.get("grad", self._probs.shape, self._probs.dtype)
        np.subtract(self._probs, self._t, out=grad)
        grad /= self._t.shape[0]
        return grad

    @property
    def probabilities(self) -> np.ndarray:
        """Softmax probabilities from the most recent forward pass."""
        return self._probs


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def supervised_contrastive_loss(
    embeddings: np.ndarray, labels: np.ndarray, *, temperature: float = 0.1
) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss (Khosla et al. 2020) with analytic gradient.

    Used by the SCL baseline.  Embeddings are L2-normalized internally; the
    returned gradient is w.r.t. the *raw* embeddings, chaining through the
    normalization.

    Returns
    -------
    (loss, grad):
        Scalar loss and gradient array shaped like ``embeddings``.
    """
    if embeddings.ndim != 2:
        raise ValidationError("embeddings must be 2-D")
    n = embeddings.shape[0]
    if n != labels.shape[0]:
        raise ValidationError("embeddings and labels length mismatch")
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True) + _EPS
    z = embeddings / norms

    sim = z @ z.T / temperature
    np.fill_diagonal(sim, -np.inf)
    # log-softmax over each row excluding self
    row_max = sim.max(axis=1, keepdims=True)
    exp = np.exp(sim - row_max)
    denom = exp.sum(axis=1, keepdims=True)
    log_prob = sim - row_max - np.log(denom + _EPS)
    prob = exp / (denom + _EPS)

    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    pos_counts = same.sum(axis=1)
    valid = pos_counts > 0
    if not np.any(valid):
        return 0.0, np.zeros_like(embeddings)

    loss = 0.0
    grad_z = np.zeros_like(z)
    # dL/d sim[i, j] accumulated, then chained to z.
    dsim = np.zeros((n, n))
    for i in np.where(valid)[0]:
        pos = np.where(same[i])[0]
        loss -= log_prob[i, pos].mean()
        # d(-mean_p log_prob[i,p]) / d sim[i,j] = prob[i,j] - 1{j in pos}/|pos|
        dsim[i] += prob[i]
        dsim[i, pos] -= 1.0 / len(pos)
    loss /= valid.sum()
    dsim /= valid.sum()
    dsim[~np.isfinite(dsim)] = 0.0

    # sim = z z^T / T  (diagonal excluded; dsim diagonal already ~0)
    np.fill_diagonal(dsim, 0.0)
    grad_z = (dsim @ z + dsim.T @ z) / temperature

    # chain through z = e / ||e||
    dot = np.sum(grad_z * z, axis=1, keepdims=True)
    grad_e = (grad_z - z * dot) / norms
    return float(loss), grad_e
