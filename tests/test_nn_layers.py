"""Unit tests for the nn layers, including finite-difference gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    Dense,
    Dropout,
    GradientReversal,
    LeakyReLU,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.utils.errors import ValidationError


def numerical_gradient(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f()
        x[idx] = orig - eps
        lo = f()
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def check_input_gradient(layer, x, training=True, atol=1e-5):
    """Compare layer.backward against finite differences of sum(output)."""
    out = layer.forward(x, training=training)
    analytic = layer.backward(np.ones_like(out))
    numeric = numerical_gradient(
        lambda: layer.forward(x, training=training).sum(), x
    )
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(5, 3, random_state=0)
        out = layer.forward(rng.standard_normal((7, 5)))
        assert out.shape == (7, 3)

    def test_input_gradient(self, rng):
        layer = Dense(4, 3, random_state=0)
        check_input_gradient(layer, rng.standard_normal((5, 4)))

    def test_weight_gradient(self, rng):
        layer = Dense(4, 3, random_state=0)
        x = rng.standard_normal((5, 4))
        layer.forward(x)
        layer.backward(np.ones((5, 3)))
        analytic = layer.grads["W"].copy()
        numeric = numerical_gradient(lambda: layer.forward(x).sum(), layer.params["W"])
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_bias_gradient(self, rng):
        layer = Dense(4, 3, random_state=0)
        x = rng.standard_normal((5, 4))
        layer.forward(x)
        layer.backward(np.ones((5, 3)))
        numeric = numerical_gradient(lambda: layer.forward(x).sum(), layer.params["b"])
        np.testing.assert_allclose(layer.grads["b"], numeric, atol=1e-5)

    def test_rejects_wrong_width(self, rng):
        layer = Dense(4, 3, random_state=0)
        with pytest.raises(ValidationError, match="expected 4"):
            layer.forward(rng.standard_normal((2, 5)))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValidationError):
            Dense(0, 3)


@pytest.mark.parametrize(
    "layer_factory",
    [ReLU, lambda: LeakyReLU(0.2), Tanh, Sigmoid],
    ids=["relu", "leaky", "tanh", "sigmoid"],
)
def test_activation_gradients(layer_factory, rng):
    layer = layer_factory()
    x = rng.standard_normal((6, 4)) + 0.1  # avoid kinks at exactly 0
    check_input_gradient(layer, x)


class TestActivationValues:
    def test_relu_zeroes_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_leaky_slope(self):
        out = LeakyReLU(0.1).forward(np.array([[-10.0, 10.0]]))
        np.testing.assert_allclose(out, [[-1.0, 10.0]])

    def test_leaky_rejects_negative_slope(self):
        with pytest.raises(ValidationError):
            LeakyReLU(-0.1)

    def test_sigmoid_bounds(self, rng):
        # values may round to exactly 0.0/1.0 in float64 at extreme logits;
        # the BCE loss clips, so [0, 1] closure is the right contract here
        out = Sigmoid().forward(rng.standard_normal((10, 3)) * 100)
        assert np.all(out >= 0) and np.all(out <= 1) and np.all(np.isfinite(out))

    def test_sigmoid_no_overflow(self):
        out = Sigmoid().forward(np.array([[-1e6, 1e6]]))
        assert np.all(np.isfinite(out))


class TestDropout:
    def test_identity_at_inference(self, rng):
        layer = Dropout(0.5, random_state=0)
        x = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_scales_at_training(self, rng):
        layer = Dropout(0.5, random_state=0)
        x = np.ones((1000, 10))
        out = layer.forward(x, training=True)
        # inverted dropout preserves the expectation
        assert abs(out.mean() - 1.0) < 0.1
        kept = out != 0
        np.testing.assert_allclose(out[kept], 2.0)

    def test_backward_uses_same_mask(self, rng):
        layer = Dropout(0.5, random_state=0)
        x = rng.standard_normal((8, 4))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_rejects_rate_one(self):
        with pytest.raises(ValidationError):
            Dropout(1.0)


class TestBatchNorm:
    def test_normalizes_batch(self, rng):
        layer = BatchNorm1d(4)
        x = rng.standard_normal((100, 4)) * 5 + 3
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_used_at_inference(self, rng):
        layer = BatchNorm1d(3, momentum=0.0)  # running stats = last batch
        x = rng.standard_normal((50, 3)) * 2 + 1
        layer.forward(x, training=True)
        out = layer.forward(x, training=False)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-2)

    def test_training_gradient(self, rng):
        layer = BatchNorm1d(3)
        x = rng.standard_normal((10, 3))
        out = layer.forward(x, training=True)
        analytic = layer.backward(np.ones_like(out))
        # finite differences through the batch statistics
        numeric = numerical_gradient(
            lambda: layer.forward(x, training=True).sum(), x
        )
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_rejects_wrong_width(self, rng):
        layer = BatchNorm1d(3)
        with pytest.raises(ValidationError):
            layer.forward(rng.standard_normal((5, 4)), training=True)


class TestGradientReversal:
    def test_identity_forward(self, rng):
        x = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(GradientReversal(0.5).forward(x), x)

    def test_flips_and_scales_gradient(self):
        layer = GradientReversal(0.5)
        layer.forward(np.zeros((2, 2)))
        grad = layer.backward(np.ones((2, 2)))
        np.testing.assert_allclose(grad, -0.5)


class TestSequential:
    def test_composes(self, rng):
        net = Sequential([Dense(4, 8, random_state=0), ReLU(), Dense(8, 2, random_state=1)])
        out = net.forward(rng.standard_normal((5, 4)))
        assert out.shape == (5, 2)

    def test_end_to_end_gradient(self, rng):
        net = Sequential([Dense(3, 5, random_state=0), Tanh(), Dense(5, 2, random_state=1)])
        x = rng.standard_normal((4, 3))
        check_input_gradient(net, x, training=False)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Sequential([])

    def test_n_parameters(self):
        net = Sequential([Dense(4, 8, random_state=0), ReLU(), Dense(8, 2, random_state=1)])
        assert net.n_parameters() == (4 * 8 + 8) + (8 * 2 + 2)

    def test_state_dict_roundtrip(self, rng):
        net1 = Sequential([Dense(3, 4, random_state=0), ReLU(), Dense(4, 2, random_state=1)])
        net2 = Sequential([Dense(3, 4, random_state=5), ReLU(), Dense(4, 2, random_state=6)])
        x = rng.standard_normal((5, 3))
        net2.load_state_dict(net1.state_dict())
        np.testing.assert_array_equal(net1.forward(x), net2.forward(x))

    def test_state_dict_shape_mismatch(self):
        net1 = Sequential([Dense(3, 4, random_state=0)])
        net2 = Sequential([Dense(3, 5, random_state=0)])
        with pytest.raises(ValidationError, match="shape mismatch"):
            net2.load_state_dict(net1.state_dict())


def _trained_batch_norm(rng, width):
    layer = BatchNorm1d(width)
    for _ in range(3):  # move the running statistics off their defaults
        layer.forward(rng.normal(2.0, 3.0, size=(32, width)), training=True)
    return layer


class _Doubled(Sequential):
    """A Sequential with its own forward: binding replays that forward."""

    def forward(self, x, training=False):
        return 2.0 * super().forward(x, training=training)


@pytest.mark.parametrize("make", [
    lambda rng: Dense(7, 5, random_state=0),
    lambda rng: Dense(7, 300, random_state=0),  # split into column blocks
    lambda rng: Dense(7, 5, random_state=0).to(np.float32),
    lambda rng: _trained_batch_norm(rng, 7),
    lambda rng: ReLU(),
    lambda rng: Tanh(),
    lambda rng: LeakyReLU(0.2),
    lambda rng: Sigmoid(),
    lambda rng: Dropout(0.5, random_state=0),
    lambda rng: Sequential([Dense(7, 16, random_state=0), _trained_batch_norm(
        rng, 16), ReLU(), Dense(16, 4, random_state=1), Tanh()]),
    lambda rng: _Doubled([Dense(7, 4, random_state=0), ReLU()]),
], ids=["dense", "dense-wide", "dense-f32", "batchnorm", "relu", "tanh",
        "leaky-replayed", "sigmoid-replayed", "dropout", "sequential",
        "custom-forward"])
@pytest.mark.parametrize("rows", [5, 16, 48])
def test_bound_ops_replay_the_inference_forward(make, rows, rng):
    """``bind`` ops re-read their input buffer on every replay and give
    ``forward(training=False)`` bit for bit."""
    from repro.nn import Workspace

    layer = make(rng)
    dtype = getattr(layer, "params", {}).get("W", np.zeros(0)).dtype
    x = np.empty((rows, 7), dtype=dtype)
    ops, out = layer.bind(x, Workspace(), "bound")
    for _ in range(2):
        x[...] = rng.standard_normal(x.shape)
        for op in ops:
            op()
        np.testing.assert_array_equal(
            out, layer.forward(x.copy(), training=False))
