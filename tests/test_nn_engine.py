"""Fused training engine: bit-identity, allocation-freedom, checkpoints.

The contract under test (see ``repro/nn/fused.py``): the fused cGAN kernel
is an *optimization*, not an approximation — float64 training reproduces
the frozen pre-fusion implementations in ``tests/oracles/nn_reference.py``
bit for bit, the batched Monte-Carlo serving path matches the per-draw
loop, and neither allocates after warmup.
"""

import copy

import numpy as np
import pytest

from repro.gan.cgan import ConditionalGAN
from repro.nn.fused import FlatAdam, FusedCGANTrainer, consolidate
from repro.nn.layers import (
    BatchNorm1d,
    Dense,
    Dropout,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.utils.errors import ValidationError
from tests.oracles.nn_reference import ReferenceAdam, ReferenceConditionalGAN

#: serving tolerance for the float32 fast path (see EXPERIMENTS.md):
#: one forward pass of float32 roundoff over two hidden layers
FLOAT32_RTOL = 1e-3
FLOAT32_ATOL = 1e-3

#: float64 serving tolerance: the stacked forward differs from the
#: per-draw loop only by BLAS blocking roundoff (last ULP, ~1e-16)
SERVE_ATOL = 1e-12


@pytest.fixture(scope="module")
def gan_data():
    rng = np.random.default_rng(42)
    n, n_inv, nv, nc = 96, 12, 5, 4
    X_inv = rng.normal(size=(n, n_inv))
    X_var = np.tanh(rng.normal(size=(n, nv)))
    y = np.eye(nc)[rng.integers(0, nc, n)]
    return X_inv, X_var, y


def _gan_kwargs(**overrides):
    kw = dict(noise_dim=3, hidden_size=16, epochs=4, batch_size=32,
              random_state=7)
    kw.update(overrides)
    return kw


def _state_equal(a: Sequential, b: Sequential) -> bool:
    sa, sb = a.state_dict(), b.state_dict()
    return set(sa) == set(sb) and all(np.array_equal(sa[k], sb[k]) for k in sa)


def _build_gd(rng, n_inv=8, nv=4, nc=3, noise_dim=3, h=16):
    """A (generator, discriminator) pair in the cGAN architecture."""
    seed = lambda: int(rng.integers(0, 2**31 - 1))  # noqa: E731
    gen = Sequential([
        Dense(n_inv + noise_dim, h, random_state=seed()), BatchNorm1d(h),
        ReLU(),
        Dense(h, h, random_state=seed()), BatchNorm1d(h), ReLU(),
        Dense(h, nv, init="glorot_uniform", random_state=seed()), Tanh(),
    ])
    disc = Sequential([
        Dense(n_inv + nv + nc, h, random_state=seed()), LeakyReLU(0.2),
        Dropout(0.3, random_state=seed()),
        Dense(h, h, random_state=seed()), LeakyReLU(0.2),
        Dropout(0.3, random_state=seed()),
        Dense(h, 1, init="glorot_uniform", random_state=seed()), Sigmoid(),
    ])
    return gen, disc


class TestBitIdentity:
    """Fused float64 training reproduces the frozen reference bit for bit."""

    @pytest.mark.parametrize("conditional,d_steps", [
        (True, 1), (True, 2), (False, 1),
    ])
    def test_training_trajectory(self, gan_data, conditional, d_steps):
        X_inv, X_var, y = gan_data
        kw = _gan_kwargs(conditional=conditional, d_steps=d_steps)
        ref = ReferenceConditionalGAN(**kw).fit(
            X_inv, X_var, y if conditional else None)
        fused = ConditionalGAN(**kw).fit(
            X_inv, X_var, y if conditional else None)
        assert _state_equal(ref.generator_, fused.generator_)
        assert _state_equal(ref.discriminator_, fused.discriminator_)
        assert ref.history_ == fused.history_

    def test_batched_serving_matches_per_draw_loop(self, gan_data):
        X_inv, X_var, y = gan_data
        kw = _gan_kwargs(conditional=True)
        ref = ReferenceConditionalGAN(**kw).fit(X_inv, X_var, y)
        fused = ConditionalGAN(**kw).fit(X_inv, X_var, y)
        for n_draws in (1, 3, 8):
            a = ref.generate(X_inv[:10], n_draws=n_draws, random_state=3)
            b = fused.generate(X_inv[:10], n_draws=n_draws, random_state=3)
            np.testing.assert_array_equal(a, b)
        # 128-wide layers, 64 rows x 8 draws: BLAS may block the stacked
        # pass differently from the loop and move the last ULP
        kw = _gan_kwargs(conditional=True, hidden_size=128, epochs=1)
        ref = ReferenceConditionalGAN(**kw).fit(X_inv, X_var, y)
        fused = ConditionalGAN(**kw).fit(X_inv, X_var, y)
        a = ref.generate(X_inv[:64], n_draws=8, random_state=3)
        b = fused.generate(X_inv[:64], n_draws=8, random_state=3)
        np.testing.assert_allclose(a, b, rtol=0, atol=SERVE_ATOL)


class TestConsolidate:
    def test_views_share_flat_storage(self, rng):
        layer = Dense(4, 3, random_state=0)
        before = {k: v.copy() for k, v in layer.params.items()}
        flat_p, flat_g, segments = consolidate([layer])
        assert flat_p.size == sum(v.size for v in before.values())
        assert len(segments) == len(before)
        for key, value in before.items():
            np.testing.assert_array_equal(layer.params[key], value)
            assert np.shares_memory(layer.params[key], flat_p)
            assert np.shares_memory(layer.grads[key], flat_g)
        # a flat write is visible through the layer view and vice versa
        flat_p[:] = 1.0
        assert np.all(layer.params["W"] == 1.0)
        layer.params["b"][...] = 2.0
        assert np.all(segments[-1] == 2.0)

    def test_generic_forward_still_works_after_consolidate(self, rng):
        net = Sequential([Dense(4, 8, random_state=0), ReLU(),
                          Dense(8, 2, random_state=1)])
        x = rng.normal(size=(5, 4))
        expected = net.forward(x, training=False).copy()
        consolidate(net.trainable_layers())
        np.testing.assert_array_equal(net.forward(x, training=False), expected)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            consolidate([])


class TestFlatAdam:
    def test_matches_per_parameter_adam_bitwise(self, rng):
        net_a = Sequential([Dense(6, 8, random_state=3), ReLU(),
                            Dense(8, 4, random_state=4)])
        net_b = copy.deepcopy(net_a)
        layers_a = net_a.trainable_layers()
        layers_b = net_b.trainable_layers()
        per_param = Adam(layers_a, lr=1e-3, weight_decay=1e-6)
        flat_p, flat_g, _ = consolidate(layers_b)
        flat = FlatAdam(flat_p, flat_g, lr=1e-3, weight_decay=1e-6)
        for step in range(25):
            g_rng = np.random.default_rng(step)
            for la, lb in zip(layers_a, layers_b):
                for key in la.params:
                    g = g_rng.normal(size=la.params[key].shape)
                    la.grads[key][...] = g
                    lb.grads[key][...] = g
            per_param.step()
            flat.step()
        for la, lb in zip(layers_a, layers_b):
            for key in la.params:
                np.testing.assert_array_equal(la.params[key], lb.params[key])

    def test_matches_frozen_reference_adam(self, rng):
        net_a = Sequential([Dense(5, 7, random_state=9)])
        net_b = copy.deepcopy(net_a)
        ref = ReferenceAdam(net_a.trainable_layers(), lr=2e-4,
                            weight_decay=1e-6)
        flat_p, flat_g, _ = consolidate(net_b.trainable_layers())
        flat = FlatAdam(flat_p, flat_g, lr=2e-4, weight_decay=1e-6)
        for step in range(10):
            g_rng = np.random.default_rng(100 + step)
            for la, lb in zip(net_a.trainable_layers(),
                              net_b.trainable_layers()):
                for key in la.params:
                    g = g_rng.normal(size=la.params[key].shape)
                    la.grads[key][...] = g
                    lb.grads[key][...] = g
            ref.step()
            flat.step()
        for la, lb in zip(net_a.trainable_layers(), net_b.trainable_layers()):
            for key in la.params:
                np.testing.assert_array_equal(la.params[key], lb.params[key])


class TestAllocationFree:
    """After warmup every step reuses the same arrays (buffer identity)."""

    def _trainer(self, rng):
        gen, disc = _build_gd(rng)
        trainer = FusedCGANTrainer(gen, disc, noise_dim=3, conditional=True,
                                   lr=2e-4, weight_decay=1e-6,
                                   dtype=np.float64)
        n = 64
        X_inv = np.ascontiguousarray(rng.normal(size=(n, 8)))
        X_var = np.ascontiguousarray(np.tanh(rng.normal(size=(n, 4))))
        y = np.eye(3)[rng.integers(0, 3, n)].astype(np.float64)
        trainer.bind(X_inv, X_var, y)
        return trainer, n

    def test_fused_buffers_and_grads_stable(self, rng):
        trainer, n = self._trainer(rng)
        step_rng = np.random.default_rng(0)
        idx = np.arange(32)
        trainer.minibatch(idx, step_rng, d_steps=1)
        bufs = trainer._buffers(32)
        buf_ids = {k: id(v) for k, v in bufs.items() if v is not None}
        grad_ids = {
            (i, key): id(layer.grads[key])
            for i, layer in enumerate([trainer.gd1, trainer.gbn1, trainer.gd2,
                                       trainer.gbn2, trainer.gd3, trainer.dd1,
                                       trainer.dd2, trainer.dd3])
            for key in layer.grads
        }
        opt_ids = {
            name: id(getattr(trainer.g_opt, name))
            for name in ("_m", "_v", "_num", "_den", "_tmp", "p", "g")
        }
        for _ in range(3):
            trainer.minibatch(idx, step_rng, d_steps=1)
        assert trainer._buffers(32) is bufs
        assert {k: id(v) for k, v in trainer._buffers(32).items()
                if v is not None} == buf_ids
        for i, layer in enumerate([trainer.gd1, trainer.gbn1, trainer.gd2,
                                   trainer.gbn2, trainer.gd3, trainer.dd1,
                                   trainer.dd2, trainer.dd3]):
            for key in layer.grads:
                assert id(layer.grads[key]) == grad_ids[(i, key)]
        for name in opt_ids:
            assert id(getattr(trainer.g_opt, name)) == opt_ids[name]

    def test_generic_dense_backward_reuses_grad_arrays(self, rng):
        layer = Dense(6, 4, random_state=0)
        x = rng.normal(size=(8, 6))
        grad = rng.normal(size=(8, 4))
        layer.forward(x, training=True)
        layer.backward(grad)
        gw, gb = layer.grads["W"], layer.grads["b"]
        layer.forward(x + 1.0, training=True)
        layer.backward(grad * 2.0)
        assert layer.grads["W"] is gw
        assert layer.grads["b"] is gb

    def test_generic_adam_scratch_stable(self, rng):
        layer = Dense(6, 4, random_state=0)
        opt = Adam([layer], lr=1e-3)
        layer.grads["W"][...] = rng.normal(size=(6, 4))
        layer.grads["b"][...] = rng.normal(size=4)
        opt.step()
        ids = {k: tuple(id(a) for a in v) for k, v in opt._scratch.items()}
        moment_ids = {k: id(v) for k, v in opt._m.items()}
        for _ in range(3):
            opt.step()
        assert {k: tuple(id(a) for a in v)
                for k, v in opt._scratch.items()} == ids
        assert {k: id(v) for k, v in opt._m.items()} == moment_ids

    def test_rejects_foreign_architecture(self, rng):
        net = Sequential([Dense(4, 4, random_state=0), ReLU()] * 4)
        with pytest.raises(ValidationError):
            FusedCGANTrainer(net, net, noise_dim=2, conditional=False,
                             lr=1e-3, weight_decay=0.0, dtype=np.float64)


class TestDtypeFastPath:
    def test_float32_training_runs_and_casts(self, gan_data):
        X_inv, X_var, y = gan_data
        gan = ConditionalGAN(dtype="float32",
                             **_gan_kwargs(epochs=2)).fit(X_inv, X_var, y)
        assert all(p.dtype == np.float32
                   for p in gan.generator_.state_dict().values())
        out = gan.generate(X_inv[:6], n_draws=2, random_state=0)
        assert np.isfinite(out).all()

    def test_float32_serving_within_tolerance(self, gan_data):
        X_inv, X_var, y = gan_data
        gan = ConditionalGAN(**_gan_kwargs()).fit(X_inv, X_var, y)
        g32 = copy.deepcopy(gan.generator_).to(np.float32)
        z = np.random.default_rng(0).standard_normal((10, 3))
        x = np.concatenate([X_inv[:10], z], axis=1)
        out64 = gan.generator_.forward(x, training=False).copy()
        out32 = g32.forward(x.astype(np.float32), training=False)
        np.testing.assert_allclose(out64, out32, rtol=FLOAT32_RTOL,
                                   atol=FLOAT32_ATOL)


class TestCheckpointRoundTrip:
    def test_sequential_state_dict_includes_batchnorm_stats(self, rng):
        gen, _ = _build_gd(rng)
        x = rng.normal(size=(32, 11))
        for _ in range(3):  # accumulate running statistics
            gen.forward(x, training=True)
        expected = gen.forward(x, training=False).copy()
        state = gen.state_dict()
        assert any(k.endswith("running_mean") for k in state)
        assert any(k.endswith("running_var") for k in state)

        clone, _ = _build_gd(np.random.default_rng(123))
        clone.load_state_dict(state)
        np.testing.assert_array_equal(
            clone.forward(x, training=False), expected)

    def test_adam_state_roundtrip_resumes_identically(self, rng):
        def grads_for(step, layers):
            g_rng = np.random.default_rng(step)
            for layer in layers:
                for key in layer.params:
                    layer.grads[key][...] = g_rng.normal(
                        size=layer.params[key].shape)

        net = Sequential([Dense(5, 6, random_state=1), ReLU(),
                          Dense(6, 2, random_state=2)])
        opt = Adam(net.trainable_layers(), lr=1e-3, weight_decay=1e-6)
        for step in range(5):
            grads_for(step, net.trainable_layers())
            opt.step()
        net_state = net.state_dict()
        opt_state = opt.state_dict()
        assert opt_state["t"] == 5
        # the checkpoint must be a snapshot, not views of live moments
        for step in range(5, 10):
            grads_for(step, net.trainable_layers())
            opt.step()
        direct = net.state_dict()

        resumed = Sequential([Dense(5, 6, random_state=8), ReLU(),
                              Dense(6, 2, random_state=9)])
        resumed.load_state_dict(net_state)
        opt2 = Adam(resumed.trainable_layers(), lr=1e-3, weight_decay=1e-6)
        opt2.load_state_dict(opt_state)
        assert opt2._t == 5
        for step in range(5, 10):
            grads_for(step, resumed.trainable_layers())
            opt2.step()
        for key, value in resumed.state_dict().items():
            np.testing.assert_array_equal(value, direct[key])

    def test_fused_trained_gan_state_dict_roundtrip(self, gan_data):
        """Consolidated (view-backed) params still checkpoint correctly."""
        X_inv, X_var, y = gan_data
        gan = ConditionalGAN(**_gan_kwargs()).fit(X_inv, X_var, y)
        state = gan.generator_.state_dict()
        assert all(v.base is None for v in state.values())  # real copies
        clone, _ = _build_gd(np.random.default_rng(5), n_inv=12, nv=5)
        clone.load_state_dict(state)
        z = np.random.default_rng(1).standard_normal((7, 3))
        x = np.concatenate([X_inv[:7], z], axis=1)
        np.testing.assert_array_equal(
            clone.forward(x, training=False),
            gan.generator_.forward(x, training=False))


class TestPredictProbaSpan:
    def test_span_emitted(self, tiny_5gc, tmp_path):
        from repro.core import FSGANPipeline, ReconstructionConfig
        from repro.ml import MLPClassifier
        from repro.obs import RunRecorder

        X_few, y_few, X_test, _ = tiny_5gc.few_shot_split(5, random_state=0)
        pipe = FSGANPipeline(
            lambda: MLPClassifier(hidden_sizes=(16,), epochs=5,
                                  random_state=0),
            reconstruction_config=ReconstructionConfig(
                epochs=2, noise_dim=2, hidden_size=8),
            random_state=0,
        ).fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
        with RunRecorder(tmp_path / "run") as rec:
            pipe.predict_proba(X_test[:5])
        span = rec.tracer.find("pipeline.predict_proba")
        assert span is not None
        assert span.tags["n_samples"] == 5


class TestEstimatorStateAfterFusion:
    """Estimator-protocol checkpoints must survive consolidated networks.

    After ``consolidate()`` every ``layer.params[key]`` is a view into one
    flat vector.  ``load_state_dict`` writes in place, so restoring a
    checkpoint into a consolidated network must keep the flat-Adam aliasing
    intact (and keep updating through it), not silently detach the params.
    """

    def test_load_state_dict_writes_through_flat_views(self, rng):
        donor, _ = _build_gd(rng)
        x = rng.normal(size=(16, 11))
        donor.forward(x, training=True)
        state = donor.state_dict()

        target, _ = _build_gd(np.random.default_rng(99))
        flat_p, flat_g, _ = consolidate(target.trainable_layers())
        target.load_state_dict(state)
        for layer in target.trainable_layers():
            for key, param in layer.params.items():
                assert np.shares_memory(param, flat_p), key
        np.testing.assert_array_equal(
            target.forward(x, training=False),
            donor.forward(x, training=False))

        # the flat optimizer must still drive the restored parameters
        opt = FlatAdam(flat_p, flat_g, lr=1e-2)
        flat_g[...] = 1.0
        before = target.trainable_layers()[0].params["W"].copy()
        opt.step()
        assert not np.array_equal(
            target.trainable_layers()[0].params["W"], before)

    def test_estimator_roundtrip_covers_fused_trainer(self, gan_data):
        """Full ConditionalGAN state round trip after a fused fit."""
        from repro.core.estimator import pack_estimator, unpack_estimator

        X_inv, X_var, y = gan_data
        gan = ConditionalGAN(**_gan_kwargs()).fit(X_inv, X_var, y)
        expected = gan.generate(X_inv[:9], n_draws=2, random_state=3)

        arrays = pack_estimator(gan, "gan.")
        restored = unpack_estimator(arrays, "gan.")
        assert isinstance(restored, ConditionalGAN)
        np.testing.assert_array_equal(
            restored.generate(X_inv[:9], n_draws=2, random_state=3),
            expected)
        # the restored internal RNG stream is aligned with the original's
        np.testing.assert_array_equal(
            restored.generate(X_inv[:9], n_draws=1),
            gan.generate(X_inv[:9], n_draws=1))

    def test_roundtrip_into_consolidated_clone_keeps_flat_training(
            self, gan_data):
        """A fused-trained checkpoint restores into another fused trainee."""
        X_inv, X_var, y = gan_data
        gan = ConditionalGAN(**_gan_kwargs()).fit(X_inv, X_var, y)
        clone = ConditionalGAN(**_gan_kwargs(random_state=11)).fit(
            X_inv, X_var, y)
        # clone's networks are consolidated by its own fused fit
        clone.generator_.load_state_dict(gan.generator_.state_dict())
        clone.discriminator_.load_state_dict(
            gan.discriminator_.state_dict())
        assert _state_equal(clone.generator_, gan.generator_)
        assert _state_equal(clone.discriminator_, gan.discriminator_)
        np.testing.assert_array_equal(
            clone.generate(X_inv[:5], n_draws=1, random_state=0),
            gan.generate(X_inv[:5], n_draws=1, random_state=0))
