"""Sequential network container and training utilities."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer
from repro.utils.errors import ValidationError
from repro.utils.validation import check_random_state


class Sequential(Layer):
    """A stack of layers applied in order, with reverse-order backprop."""

    def __init__(self, layers: list[Layer]) -> None:
        super().__init__()
        if not layers:
            raise ValidationError("Sequential requires at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def bind(self, x: np.ndarray, ws, name: str):
        """Every layer's bound inference ops, in order (see :meth:`Layer.bind`)."""
        if type(self).forward is not Sequential.forward:
            return super().bind(x, ws, name)  # a custom forward: replay it
        ops = []
        for i, layer in enumerate(self.layers):
            layer_ops, x = layer.bind(x, ws, f"{name}.{i}")
            ops += layer_ops
        return ops, x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def to(self, dtype) -> "Sequential":
        """Convert every layer's parameters/buffers to ``dtype`` (in order).

        ``float64`` is the default compute dtype everywhere; ``float32`` is
        the fast path for training/serving where tolerance-bounded deviation
        from the float64 trajectory is acceptable.  Call before constructing
        the optimizer (optimizer state is sized off the parameter arrays).
        """
        for layer in self.layers:
            layer.to(dtype)
        self._ws.clear()
        return self

    def trainable_layers(self) -> list[Layer]:
        """All layers carrying parameters, flattening nested Sequentials."""
        found: list[Layer] = []
        for layer in self.layers:
            if isinstance(layer, Sequential):
                found.extend(layer.trainable_layers())
            elif layer.params:
                found.append(layer)
        return found

    def n_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for layer in self.trainable_layers() for p in layer.params.values())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of parameter (and batch-norm statistic) arrays."""
        state: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.trainable_layers()):
            for key, value in layer.params.items():
                state[f"{i}.{key}"] = value.copy()
            if hasattr(layer, "running_mean"):
                state[f"{i}.running_mean"] = layer.running_mean.copy()
                state[f"{i}.running_var"] = layer.running_var.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        for i, layer in enumerate(self.trainable_layers()):
            for key in layer.params:
                name = f"{i}.{key}"
                if name not in state:
                    raise ValidationError(f"state dict is missing {name!r}")
                if state[name].shape != layer.params[key].shape:
                    raise ValidationError(
                        f"shape mismatch for {name!r}: "
                        f"{state[name].shape} vs {layer.params[key].shape}"
                    )
                layer.params[key][...] = state[name]
            if hasattr(layer, "running_mean"):
                layer.running_mean[...] = state[f"{i}.running_mean"]
                layer.running_var[...] = state[f"{i}.running_var"]


def iterate_minibatches(
    n_samples: int,
    batch_size: int,
    rng: np.random.Generator | int | None = None,
    *,
    shuffle: bool = True,
    drop_last: bool = False,
):
    """Yield index arrays covering ``range(n_samples)`` in minibatches."""
    if batch_size <= 0:
        raise ValidationError("batch_size must be positive")
    rng = check_random_state(rng)
    order = rng.permutation(n_samples) if shuffle else np.arange(n_samples)
    for start in range(0, n_samples, batch_size):
        batch = order[start : start + batch_size]
        if drop_last and len(batch) < batch_size:
            return
        yield batch
