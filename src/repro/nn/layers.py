"""Layers for the numpy neural-network substrate (fused engine).

Every layer implements the explicit-backprop protocol:

- ``forward(x, training)`` caches whatever it needs and returns the output;
- ``backward(grad_output)`` returns the gradient w.r.t. the input and stores
  parameter gradients in ``layer.grads`` (same keys as ``layer.params``).

Shapes are ``(batch, features)`` throughout.  This substrate replaces PyTorch
(unavailable offline) for all the paper's neural components.

**Buffer ownership (fused engine).**  Layers write activations, masks and
input gradients into preallocated :class:`~repro.nn.workspace.Workspace`
buffers (one grow-only buffer per tensor, a prefix view for a smaller
batch), and ``backward`` writes parameter gradients into the *existing*
``grads`` arrays (``out=`` ufunc forms throughout), so after the first
minibatch of the largest size a training step allocates nothing.  The
contract this buys:

- an array returned by ``layer.forward``/``layer.backward`` is owned by that
  layer and valid only until its **next** forward/backward call — model-level
  ``predict``/``generate`` surfaces copy at the boundary;
- a layer never mutates its input ``x`` or ``grad_output`` (they belong to
  the neighbouring layer);
- the ``grads`` arrays are stable objects for the whole life of the layer —
  optimizers may alias them.

All float64 computations are bit-identical to the pre-fusion implementations
frozen in :mod:`repro.nn.reference` (same ufuncs, same operation order);
random draws are always taken at float64 so the float32 fast path (see
:meth:`Layer.to`) consumes the RNG stream identically.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import get_initializer, zeros
from repro.nn.workspace import Workspace
from repro.utils.errors import ValidationError
from repro.utils.validation import check_random_state

#: rows per GEMM of an inference-mode :class:`Dense` forward (see there)
ROW_TILE = 16


class Layer:
    """Base class: a differentiable module with optional parameters."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._ws = Workspace()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to(self, dtype) -> "Layer":
        """Convert parameters/gradients to ``dtype`` and reset the workspace.

        Call before training (the optimizers size their state off the
        parameter arrays).  Returns ``self`` for chaining.
        """
        dtype = np.dtype(dtype)
        for key in self.params:
            self.params[key] = np.ascontiguousarray(self.params[key], dtype=dtype)
            self.grads[key] = np.ascontiguousarray(self.grads[key], dtype=dtype)
        self._ws.clear()
        return self

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Inference (``training=False``) on a row count that is a multiple of
    :data:`ROW_TILE` runs the product as a stack of ``ROW_TILE``-row GEMMs.
    BLAS row results can change with the GEMM's row count M, so this makes
    each row's output a function of its own input alone: ``n`` rows scored
    together equal ``n / ROW_TILE`` separate ``ROW_TILE``-row calls bit for
    bit.  Padded serving (:meth:`repro.serve.plan.InferencePlan.execute`)
    builds its coalescing guarantee on this.  Training keeps one GEMM per
    minibatch.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        init: str = "he_normal",
        random_state=None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValidationError(
                f"Dense dimensions must be positive, got ({in_features}, {out_features})"
            )
        rng = check_random_state(random_state)
        self.in_features = in_features
        self.out_features = out_features
        self.params = {
            "W": get_initializer(init)(rng, in_features, out_features),
            "b": zeros(out_features),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[1] != self.in_features:
            raise ValidationError(
                f"Dense expected {self.in_features} input features, got {x.shape[1]}"
            )
        self._x = x
        W, b = self.params["W"], self.params["b"]
        rows = x.shape[0]
        out = self._ws.get("out", (rows, self.out_features), W.dtype)
        if not training and rows > ROW_TILE and rows % ROW_TILE == 0:
            # one GEMM per ROW_TILE-row slice: every row is computed inside
            # an M=ROW_TILE call, whatever else shares the batch
            np.matmul(x.reshape(-1, ROW_TILE, self.in_features), W,
                      out=out.reshape(-1, ROW_TILE, self.out_features))
        else:
            np.matmul(x, W, out=out)
        out += b
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._x
        W = self.params["W"]
        np.matmul(x.T, grad_output, out=self.grads["W"])
        np.sum(grad_output, axis=0, out=self.grads["b"])
        gin = self._ws.get("gin", (grad_output.shape[0], self.in_features), W.dtype)
        np.matmul(grad_output, W.T, out=gin)
        return gin


class ReLU(Layer):
    """Rectified linear unit."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = self._ws.get("mask", x.shape, bool)
        np.greater(x, 0, out=mask)
        self._mask = mask
        out = self._ws.get("out", x.shape, x.dtype)
        np.multiply(x, mask, out=out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        gin = self._ws.get("gin", grad_output.shape, grad_output.dtype)
        np.multiply(grad_output, self._mask, out=gin)
        return gin


class LeakyReLU(Layer):
    """Leaky ReLU with configurable negative slope (CTGAN discriminator uses 0.2)."""

    def __init__(self, negative_slope: float = 0.2) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ValidationError("negative_slope must be non-negative")
        self.negative_slope = negative_slope

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = self._ws.get("mask", x.shape, bool)
        np.greater(x, 0, out=mask)
        self._mask = mask
        out = self._ws.get("out", x.shape, x.dtype)
        np.multiply(x, self.negative_slope, out=out)
        np.copyto(out, x, where=mask)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        gin = self._ws.get("gin", grad_output.shape, grad_output.dtype)
        np.multiply(grad_output, self.negative_slope, out=gin)
        np.copyto(gin, grad_output, where=self._mask)
        return gin


class Tanh(Layer):
    """Hyperbolic tangent (generator output for continuous columns)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = self._ws.get("out", x.shape, x.dtype)
        np.tanh(x, out=out)
        self._out = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        gin = self._ws.get("gin", grad_output.shape, grad_output.dtype)
        np.square(self._out, out=gin)
        np.subtract(1.0, gin, out=gin)
        np.multiply(grad_output, gin, out=gin)
        return gin


class Sigmoid(Layer):
    """Logistic sigmoid (discriminator output)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = self._ws.get("out", x.shape, x.dtype)
        np.clip(x, -60.0, 60.0, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
        self._out = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        out = self._out
        gin = self._ws.get("gin", grad_output.shape, grad_output.dtype)
        tmp = self._ws.get("tmp", grad_output.shape, grad_output.dtype)
        np.multiply(grad_output, out, out=gin)
        np.subtract(1.0, out, out=tmp)
        np.multiply(gin, tmp, out=gin)
        return gin


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float = 0.5, *, random_state=None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValidationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = check_random_state(random_state)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        # draw at float64 regardless of compute dtype: the RNG stream (and
        # therefore the mask) must match the float64 reference bit for bit
        u = self._ws.get("u", x.shape, np.float64)
        self._rng.random(out=u)
        keep_mask = self._ws.get("keep", x.shape, bool)
        np.less(u, keep, out=keep_mask)
        mask = self._ws.get("mask", x.shape, x.dtype)
        np.divide(keep_mask, keep, out=mask)
        self._mask = mask
        out = self._ws.get("out", x.shape, x.dtype)
        np.multiply(x, mask, out=out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        gin = self._ws.get("gin", grad_output.shape, grad_output.dtype)
        np.multiply(grad_output, self._mask, out=gin)
        return gin


class BatchNorm1d(Layer):
    """Batch normalization over the batch axis with learned scale/shift.

    Keeps running statistics for inference, as in the CTGAN generator blocks.
    """

    def __init__(self, num_features: int, *, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValidationError("num_features must be positive")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.params = {"gamma": np.ones(num_features), "beta": np.zeros(num_features)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def to(self, dtype) -> "BatchNorm1d":
        super().to(dtype)
        dtype = np.dtype(dtype)
        self.running_mean = np.ascontiguousarray(self.running_mean, dtype=dtype)
        self.running_var = np.ascontiguousarray(self.running_var, dtype=dtype)
        return self

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[1] != self.num_features:
            raise ValidationError(
                f"BatchNorm1d expected {self.num_features} features, got {x.shape[1]}"
            )
        d = self.num_features
        dt = x.dtype
        if training:
            mean = self._ws.get("mean", (d,), dt)
            var = self._ws.get("var", (d,), dt)
            np.mean(x, axis=0, out=mean)
            np.var(x, axis=0, out=var)
            tmp = self._ws.get("stat_tmp", (d,), dt)
            self.running_mean *= self.momentum
            np.multiply(mean, 1 - self.momentum, out=tmp)
            self.running_mean += tmp
            self.running_var *= self.momentum
            np.multiply(var, 1 - self.momentum, out=tmp)
            self.running_var += tmp
        else:
            mean, var = self.running_mean, self.running_var
        std = self._ws.get("std", (d,), dt)
        np.add(var, self.eps, out=std)
        np.sqrt(std, out=std)
        self._std = std
        x_hat = self._ws.get("x_hat", x.shape, dt)
        np.subtract(x, mean, out=x_hat)
        np.divide(x_hat, std, out=x_hat)
        self._x_hat = x_hat
        self._training = training
        out = self._ws.get("out", x.shape, dt)
        np.multiply(x_hat, self.params["gamma"], out=out)
        out += self.params["beta"]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, std = self._x_hat, self._std
        dt = grad_output.dtype
        tmp = self._ws.get("tmp", grad_output.shape, dt)
        np.multiply(grad_output, x_hat, out=tmp)
        np.sum(tmp, axis=0, out=self.grads["gamma"])
        np.sum(grad_output, axis=0, out=self.grads["beta"])
        gin = self._ws.get("gin", grad_output.shape, dt)
        np.multiply(grad_output, self.params["gamma"], out=gin)
        if not self._training:
            np.divide(gin, std, out=gin)
            return gin
        d = self.num_features
        g_mean = self._ws.get("g_mean", (d,), dt)
        np.mean(gin, axis=0, out=g_mean)
        gx_mean = self._ws.get("gx_mean", (d,), dt)
        np.multiply(gin, x_hat, out=tmp)
        np.mean(tmp, axis=0, out=gx_mean)
        np.multiply(x_hat, gx_mean, out=tmp)
        np.subtract(gin, g_mean, out=gin)
        gin -= tmp
        np.divide(gin, std, out=gin)
        return gin


class GradientReversal(Layer):
    """Identity forward; multiplies gradients by ``-lambda`` on the way back.

    The core trick of DANN (Ganin & Lempitsky 2015): the feature extractor is
    trained to *confuse* the domain classifier attached after this layer.
    """

    def __init__(self, lambda_: float = 1.0) -> None:
        super().__init__()
        self.lambda_ = lambda_

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        gin = self._ws.get("gin", grad_output.shape, grad_output.dtype)
        np.multiply(grad_output, -self.lambda_, out=gin)
        return gin


class Concat(Layer):
    """Concatenates a fixed conditioning block to the input along features.

    Used by the conditional GAN so the whole generator can stay a single
    :class:`~repro.nn.network.Sequential` even when intermediate layers need
    the conditioning vector re-appended (CTGAN-style skip of conditions).
    """

    def __init__(self) -> None:
        super().__init__()
        self.condition: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if self.condition is None:
            raise ValidationError("Concat.condition must be set before forward()")
        self._split = x.shape[1]
        cond = self.condition
        out = self._ws.get("out", (x.shape[0], x.shape[1] + cond.shape[1]), x.dtype)
        out[:, : self._split] = x
        out[:, self._split:] = cond
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output[:, : self._split]


class GumbelSoftmax(Layer):
    """Gumbel-softmax head for discrete one-hot blocks (Jang et al. 2017).

    During training, Gumbel noise is added to the logits before a
    temperature-scaled softmax, giving differentiable almost-one-hot
    samples; at inference the plain tempered softmax is returned.  Used by
    the CTGAN-style generator for discrete columns (paper §V-C3).
    """

    def __init__(self, temperature: float = 0.5, *, random_state=None) -> None:
        super().__init__()
        if temperature <= 0:
            raise ValidationError("temperature must be positive")
        self.temperature = temperature
        self._rng = check_random_state(random_state)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            # Gumbel noise drawn at float64 (stream parity with reference)
            u = self._ws.get("u", x.shape, np.float64)
            self._rng.random(out=u)
            np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
            np.log(u, out=u)
            np.negative(u, out=u)
            np.log(u, out=u)
            np.negative(u, out=u)
            logits = self._ws.get("logits", x.shape, x.dtype)
            np.add(x, u, out=logits)
        else:
            logits = x
        row = self._ws.get("row", (x.shape[0], 1), x.dtype)
        np.max(logits, axis=1, keepdims=True, out=row)
        out = self._ws.get("out", x.shape, x.dtype)
        np.subtract(logits, row, out=out)
        out /= self.temperature
        np.exp(out, out=out)
        np.sum(out, axis=1, keepdims=True, out=row)
        np.divide(out, row, out=out)
        self._out = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        s = self._out
        tmp = self._ws.get("tmp", grad_output.shape, grad_output.dtype)
        dot = self._ws.get("dot", (grad_output.shape[0], 1), grad_output.dtype)
        np.multiply(grad_output, s, out=tmp)
        np.sum(tmp, axis=1, keepdims=True, out=dot)
        gin = self._ws.get("gin", grad_output.shape, grad_output.dtype)
        np.subtract(grad_output, dot, out=gin)
        np.multiply(s, gin, out=gin)
        gin /= self.temperature
        return gin


class BlockActivation(Layer):
    """Applies a different activation to each contiguous slice of the input.

    ``blocks`` is a list of ``(width, layer)`` pairs covering the full input
    width — e.g. tanh heads for continuous scalars interleaved with
    Gumbel-softmax heads for one-hot indicator blocks, matching a
    :class:`repro.gan.transformer.TabularTransformer` layout.
    """

    def __init__(self, blocks) -> None:
        super().__init__()
        if not blocks:
            raise ValidationError("BlockActivation requires at least one block")
        self.blocks = list(blocks)
        self._slices = []
        pos = 0
        for width, _layer in self.blocks:
            if width < 1:
                raise ValidationError("block widths must be >= 1")
            self._slices.append((pos, pos + width))
            pos += width
        self.total_width = pos

    def to(self, dtype) -> "BlockActivation":
        super().to(dtype)
        for _width, layer in self.blocks:
            layer.to(dtype)
        return self

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[1] != self.total_width:
            raise ValidationError(
                f"BlockActivation expected {self.total_width} features, "
                f"got {x.shape[1]}"
            )
        out = self._ws.get("out", x.shape, x.dtype)
        for (a, b), (_w, layer) in zip(self._slices, self.blocks):
            out[:, a:b] = layer.forward(x[:, a:b], training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self._ws.get("gin", grad_output.shape, grad_output.dtype)
        for (a, b), (_w, layer) in zip(self._slices, self.blocks):
            grad[:, a:b] = layer.backward(grad_output[:, a:b])
        return grad
