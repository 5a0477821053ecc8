"""MLP classifier on the numpy neural-network substrate.

One of the four downstream network-management models of Table I ("MLP"),
and the only model the paper's Fine-Tune baseline applies to (all parameters
are re-optimized during fine-tuning, per §VI-B).
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import Estimator, register_estimator
from repro.ml.preprocessing import one_hot
from repro.nn.layers import Dense, Dropout, ReLU
from repro.nn.losses import SoftmaxCrossEntropy, bind_softmax, softmax
from repro.nn.network import Sequential, iterate_minibatches
from repro.nn.optimizers import Adam
from repro.nn.workspace import Workspace
from repro.utils.errors import ValidationError
from repro.utils.validation import (
    check_array,
    check_consistent_features,
    check_is_fitted,
    check_random_state,
    check_X_y,
)


@register_estimator("mlp")
class MLPClassifier(Estimator):
    """Multi-layer perceptron with softmax cross-entropy and Adam.

    Parameters
    ----------
    hidden_sizes:
        Widths of the hidden layers.
    epochs, batch_size, lr, weight_decay, dropout:
        Optimization hyperparameters.
    """

    _fitted_attr = "network_"
    _state_scalars = ("n_features_", "loss_curve_")
    _state_arrays = ("classes_",)
    _state_networks = ("network_",)

    def __init__(
        self,
        *,
        hidden_sizes: tuple[int, ...] = (128, 64),
        epochs: int = 60,
        batch_size: int = 64,
        lr: float = 1e-3,
        weight_decay: float = 0.0,
        dropout: float = 0.0,
        random_state=None,
    ) -> None:
        if not hidden_sizes:
            raise ValidationError("hidden_sizes must contain at least one layer")
        if epochs < 1:
            raise ValidationError("epochs must be >= 1")
        self.hidden_sizes = tuple(hidden_sizes)
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.weight_decay = weight_decay
        self.dropout = dropout
        self.random_state = random_state
        self.network_: Sequential | None = None
        self.classes_: np.ndarray | None = None
        self.n_features_: int | None = None
        self.loss_curve_: list[float] = []

    def _build(self, n_features: int, n_classes: int, rng: np.random.Generator) -> Sequential:
        layers = []
        last = n_features
        for width in self.hidden_sizes:
            layers.append(Dense(last, width, random_state=int(rng.integers(0, 2**31 - 1))))
            layers.append(ReLU())
            if self.dropout > 0:
                layers.append(Dropout(self.dropout, random_state=int(rng.integers(0, 2**31 - 1))))
            last = width
        layers.append(Dense(last, n_classes, init="glorot_uniform",
                            random_state=int(rng.integers(0, 2**31 - 1))))
        return Sequential(layers)

    def _prepare_load(self, meta: dict, state: dict) -> None:
        # topology is a pure function of (n_features, classes, hyperparams);
        # weights are overwritten in place right after
        self.network_ = self._build(
            int(self.n_features_), len(self.classes_), np.random.default_rng(0)
        )

    def fit(self, X, y, sample_weight=None) -> "MLPClassifier":
        X, y = check_X_y(X, y)
        self.classes_, y_codes = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        rng = check_random_state(self.random_state)
        self.network_ = self._build(self.n_features_, len(self.classes_), rng)
        self.loss_curve_ = []
        self._train(X, y_codes, sample_weight, epochs=self.epochs, lr=self.lr, rng=rng)
        return self

    def fine_tune(self, X, y, *, epochs: int = 30, lr: float | None = None,
                  sample_weight=None) -> "MLPClassifier":
        """Continue optimizing all parameters on new data (Fine-Tune baseline)."""
        check_is_fitted(self, "network_")
        X, y = check_X_y(X, y)
        check_consistent_features(X, self.n_features_)
        codes = np.searchsorted(self.classes_, y)
        if np.any(self.classes_[np.clip(codes, 0, len(self.classes_) - 1)] != y):
            raise ValidationError("fine_tune received labels unseen during fit")
        rng = check_random_state(self.random_state)
        self._train(X, codes, sample_weight, epochs=epochs,
                    lr=lr if lr is not None else self.lr / 2, rng=rng)
        return self

    def _train(self, X, y_codes, sample_weight, *, epochs, lr, rng) -> None:
        n_classes = len(self.classes_)
        targets = one_hot(y_codes, n_classes)
        if sample_weight is not None:
            w = np.asarray(sample_weight, dtype=np.float64)
            if w.shape != (X.shape[0],):
                raise ValidationError("sample_weight must match the number of samples")
            w = w * X.shape[0] / w.sum()
        else:
            w = None
        loss_fn = SoftmaxCrossEntropy()
        optimizer = Adam(self.network_.trainable_layers(), lr=lr,
                         weight_decay=self.weight_decay)
        batch = min(self.batch_size, X.shape[0])
        ws = Workspace()  # minibatch gather buffers, reused across epochs
        for _ in range(epochs):
            epoch_loss = 0.0
            n_batches = 0
            for idx in iterate_minibatches(X.shape[0], batch, rng):
                m = idx.shape[0]
                xb = ws.get("xb", (m, X.shape[1]), X.dtype)
                np.take(X, idx, axis=0, out=xb)
                tb = ws.get("tb", (m, n_classes), targets.dtype)
                np.take(targets, idx, axis=0, out=tb)
                logits = self.network_.forward(xb, training=True)
                epoch_loss += loss_fn.forward(logits, tb)
                grad = loss_fn.backward()
                if w is not None:
                    wb = ws.get("wb", (m,), w.dtype)
                    np.take(w, idx, out=wb)
                    np.multiply(grad, wb[:, None], out=grad)
                self.network_.backward(grad)
                optimizer.step()
                optimizer.zero_grad()
                n_batches += 1
            self.loss_curve_.append(epoch_loss / max(1, n_batches))

    def decision_function(self, X) -> np.ndarray:
        """Raw logits."""
        check_is_fitted(self, "network_")
        X = check_array(X)
        check_consistent_features(X, self.n_features_)
        # forward returns a reused workspace buffer — hand back a copy
        return self.network_.forward(X, training=False).copy()

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self.decision_function(X), axis=1)

    def bind_proba(self, X: np.ndarray, ws: Workspace, name: str):
        """:meth:`predict_proba` of the buffer ``X`` bound for replay.

        Returns ``(ops, proba)`` as :meth:`repro.nn.layers.Layer.bind` does:
        the network's bound layers, then the bound softmax.
        """
        check_is_fitted(self, "network_")
        check_consistent_features(X, self.n_features_)
        ops, logits = self.network_.bind(X, ws, name)
        softmax_ops, proba = bind_softmax(logits, ws, name + ".proba")
        return ops + softmax_ops, proba

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]
