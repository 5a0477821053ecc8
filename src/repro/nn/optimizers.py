"""Optimizers for the numpy neural-network substrate (fused engine).

Both optimizers update parameters strictly in place with preallocated
scratch buffers (``out=`` ufunc forms), so a step allocates nothing after
the first call — and the float64 parameter trajectories are bit-identical
to the pre-fusion implementations frozen in ``tests/oracles/nn_reference.py``
(same ufuncs, same operation order).

State (Adam moments and step count, SGD velocities) round-trips through
``state_dict``/``load_state_dict`` so training can be checkpointed and
resumed exactly.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ValidationError


class Optimizer:
    """Base optimizer operating on a list of layers with params/grads dicts."""

    def __init__(self, layers, *, lr: float, weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValidationError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValidationError("weight_decay must be non-negative")
        self.layers = [layer for layer in layers if layer.params]
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Reset all parameter gradients to zero."""
        for layer in self.layers:
            for key in layer.grads:
                layer.grads[key][...] = 0.0

    def grad_norm(self) -> float:
        """Global L2 norm of all current gradients (training-telemetry hooks)."""
        total = 0.0
        for _, _, grad in self._iter_params():
            total += float(np.dot(grad.ravel(), grad.ravel()))
        return float(np.sqrt(total))

    def state_dict(self) -> dict:
        """Serializable snapshot of the optimizer state (base: empty)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict` (base: no-op)."""

    def _iter_params(self):
        for li, layer in enumerate(self.layers):
            for key in layer.params:
                yield (li, key), layer.params[key], layer.grads[key]

    def _state_arrays(self, store: dict, *, copy: bool) -> dict[str, np.ndarray]:
        """Flatten a ``{(layer, key): array}`` store into string-keyed arrays."""
        out = {}
        for (li, key), arr in store.items():
            out[f"{li}.{key}"] = arr.copy() if copy else arr
        return out

    def _load_state_arrays(self, store: dict, arrays: dict, name: str) -> None:
        """Restore a flattened store in place, validating against the params."""
        for key, param, _grad in self._iter_params():
            li, pkey = key
            flat = f"{li}.{pkey}"
            if flat not in arrays:
                raise ValidationError(f"optimizer state is missing {name}[{flat!r}]")
            value = np.asarray(arrays[flat])
            if value.shape != param.shape:
                raise ValidationError(
                    f"optimizer state shape mismatch for {name}[{flat!r}]: "
                    f"{value.shape} vs {param.shape}"
                )
            buf = store.get(key)
            if buf is None:
                buf = store[key] = np.zeros_like(param)
            buf[...] = value


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum.

    The momentum step updates the velocity buffer in place
    (``v *= momentum; v -= lr * g``) instead of rebinding a fresh array
    every step.
    """

    def __init__(self, layers, *, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0) -> None:
        super().__init__(layers, lr=lr, weight_decay=weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValidationError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity: dict = {}
        self._scratch: dict = {}

    def step(self) -> None:
        for key, param, grad in self._iter_params():
            tmp = self._scratch.get(key)
            if tmp is None:
                tmp = self._scratch[key] = np.empty_like(param)
            g = grad
            if self.weight_decay:
                np.multiply(param, self.weight_decay, out=tmp)
                np.add(grad, tmp, out=tmp)
                g = tmp
            if self.momentum:
                v = self._velocity.get(key)
                if v is None:
                    v = self._velocity[key] = np.zeros_like(param)
                v *= self.momentum
                if g is tmp:
                    tmp *= self.lr
                else:
                    np.multiply(g, self.lr, out=tmp)
                v -= tmp
                param += v
            else:
                if g is tmp:
                    tmp *= self.lr
                else:
                    np.multiply(g, self.lr, out=tmp)
                param -= tmp

    def state_dict(self) -> dict:
        return {"velocity": self._state_arrays(self._velocity, copy=True)}

    def load_state_dict(self, state: dict) -> None:
        self._load_state_arrays(self._velocity, state.get("velocity", {}), "velocity")


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba 2015) with decoupled weight decay.

    The paper trains generator and discriminator with lr 2e-4 and a decay of
    1e-6; we map that decay onto ``weight_decay``.  Moments and scratch are
    preallocated per parameter on the first step; afterwards a step performs
    zero allocations.
    """

    def __init__(self, layers, *, lr: float = 2e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(layers, lr=lr, weight_decay=weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValidationError("betas must be in [0, 1)")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m: dict = {}
        self._v: dict = {}
        self._t = 0
        self._scratch: dict = {}

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        wd = self.weight_decay
        for key, param, grad in self._iter_params():
            m = self._m.get(key)
            if m is None:
                m = self._m[key] = np.zeros_like(param)
                self._v[key] = np.zeros_like(param)
                self._scratch[key] = (np.empty_like(param), np.empty_like(param),
                                      np.empty_like(param))
            v = self._v[key]
            num, den, tmp = self._scratch[key]
            m *= b1
            np.multiply(grad, 1 - b1, out=tmp)
            m += tmp
            v *= b2
            np.square(grad, out=tmp)
            tmp *= 1 - b2
            v += tmp
            np.divide(m, bias1, out=num)
            np.divide(v, bias2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            np.divide(num, den, out=num)
            if wd:
                np.multiply(param, wd, out=tmp)
                num += tmp
            num *= self.lr
            param -= num

    def state_dict(self) -> dict:
        return {
            "t": self._t,
            "m": self._state_arrays(self._m, copy=True),
            "v": self._state_arrays(self._v, copy=True),
        }

    def load_state_dict(self, state: dict) -> None:
        self._t = int(state.get("t", 0))
        self._load_state_arrays(self._m, state.get("m", {}), "m")
        self._load_state_arrays(self._v, state.get("v", {}), "v")
        for key, param, _grad in self._iter_params():
            if key not in self._scratch:
                self._scratch[key] = (np.empty_like(param), np.empty_like(param),
                                      np.empty_like(param))
