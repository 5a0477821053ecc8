"""Estimator protocol: params, state round trips, and the kind registry."""

import numpy as np
import pytest

from repro.core.config import FSConfig, ReconstructionConfig
from repro.core.estimator import (
    Estimator,
    get_estimator_class,
    pack_estimator,
    param_from_jsonable,
    param_to_jsonable,
    register_estimator,
    registered_kinds,
    unpack_estimator,
)
from repro.utils.errors import ArtifactError, ValidationError


def _roundtrip(est):
    return unpack_estimator(pack_estimator(est))


class TestRegistry:
    def test_known_kinds_resolve(self):
        for kind in ("minmax_scaler", "mlp", "random_forest", "cgan",
                     "fsgan_pipeline", "fs+gan", "protonet"):
            cls = get_estimator_class(kind)
            assert issubclass(cls, Estimator)
            assert cls._estimator_kind == kind

    def test_registered_kinds_is_sorted_and_nonempty(self):
        kinds = registered_kinds()
        assert kinds == sorted(kinds)
        assert "fsgan_pipeline" in kinds

    def test_unknown_kind_raises(self):
        with pytest.raises((ArtifactError, ValidationError, KeyError)):
            get_estimator_class("definitely-not-a-kind")

    def test_duplicate_kind_rejected(self):
        with pytest.raises(Exception):
            @register_estimator("minmax_scaler")
            class Dup(Estimator):  # pragma: no cover - definition must fail
                pass


class TestParamCodec:
    def test_dataclass_configs_survive(self):
        fs = FSConfig(alpha=0.07, max_parents=2)
        back = param_from_jsonable(param_to_jsonable(fs))
        assert isinstance(back, FSConfig)
        assert back.alpha == 0.07 and back.max_parents == 2

        rc = ReconstructionConfig(strategy="vae", epochs=3, noise_dim=7)
        back = param_from_jsonable(param_to_jsonable(rc))
        assert isinstance(back, ReconstructionConfig)
        assert (back.strategy, back.epochs, back.noise_dim) == ("vae", 3, 7)

    def test_numpy_scalars_and_generators(self):
        assert param_to_jsonable(np.float64(1.5)) == 1.5
        assert param_to_jsonable(np.int64(4)) == 4
        assert param_to_jsonable(np.random.default_rng(0)) is None


class TestGetParamsRoundTrip:
    def test_params_are_constructor_ready(self):
        from repro.ml.mlp import MLPClassifier

        est = MLPClassifier(hidden_sizes=(8, 4), epochs=3, random_state=5)
        params = est.get_params()
        clone = type(est).from_params(
            {k: param_from_jsonable(param_to_jsonable(v))
             for k, v in params.items()}
        )
        assert clone.hidden_sizes == (8, 4)
        assert clone.epochs == 3

    def test_model_factory_excluded_and_stubbed(self):
        from repro.ml.mlp import MLPClassifier
        from repro.core.pipeline import FSGANPipeline

        pipe = FSGANPipeline(lambda: MLPClassifier())
        assert "model_factory" not in pipe.get_params()
        restored = FSGANPipeline.from_params(pipe.get_params())
        with pytest.raises(ArtifactError):
            restored.model_factory()


class TestStateRoundTrips:
    def test_unfitted_estimator_raises(self):
        from repro.ml.preprocessing import MinMaxScaler
        from repro.utils.errors import NotFittedError

        with pytest.raises(NotFittedError):
            pack_estimator(MinMaxScaler())

    def test_scaler_roundtrip_bitwise(self, rng):
        from repro.ml.preprocessing import MinMaxScaler

        X = rng.normal(size=(30, 6))
        scaler = MinMaxScaler().fit(X)
        clone = _roundtrip(scaler)
        np.testing.assert_array_equal(clone.transform(X), scaler.transform(X))

    def test_tree_ensemble_roundtrips(self, blob_data):
        from repro.ml.gradient_boosting import GradientBoostingClassifier
        from repro.ml.random_forest import RandomForestClassifier

        X_train, y_train, X_test, _ = blob_data
        for est in (
            RandomForestClassifier(n_estimators=5, max_depth=4, random_state=0),
            GradientBoostingClassifier(n_estimators=4, max_depth=3,
                                       random_state=0),
        ):
            est.fit(X_train, y_train)
            clone = _roundtrip(est)
            np.testing.assert_array_equal(
                clone.predict_proba(X_test), est.predict_proba(X_test))

    def test_network_estimator_roundtrips(self, blob_data):
        from repro.ml.mlp import MLPClassifier

        X_train, y_train, X_test, _ = blob_data
        est = MLPClassifier(hidden_sizes=(12,), epochs=8,
                            random_state=3).fit(X_train, y_train)
        clone = _roundtrip(est)
        np.testing.assert_array_equal(
            clone.predict_proba(X_test), est.predict_proba(X_test))

    def test_gan_roundtrip_restores_rng_stream(self, rng):
        from repro.gan.cgan import ConditionalGAN

        X_inv = rng.normal(size=(60, 6))
        X_var = np.tanh(rng.normal(size=(60, 3)))
        gan = ConditionalGAN(noise_dim=2, hidden_size=8, epochs=2,
                             batch_size=32, random_state=0,
                             conditional=False).fit(X_inv, X_var)
        clone = _roundtrip(gan)
        # internal stream: same draws without an explicit random_state
        np.testing.assert_array_equal(
            clone.generate(X_inv[:5], n_draws=2),
            gan.generate(X_inv[:5], n_draws=2))

    def test_separator_warm_state_roundtrips(self, rng):
        from repro.core.config import FSConfig
        from repro.core.feature_separation import FeatureSeparator
        from repro.datasets.wide import make_wide_pair

        Xs, Xt = make_wide_pair(23, n_source=200, n_target=80, random_state=7)
        sep = FeatureSeparator(FSConfig()).fit(Xs, Xt[:56])
        assert sep.warm_state_ is not None
        clone = _roundtrip(sep)
        res, cres = sep.result_, clone.result_
        np.testing.assert_array_equal(cres.variant_indices, res.variant_indices)
        np.testing.assert_array_equal(cres.p_values, res.p_values)
        np.testing.assert_array_equal(
            cres.marginal_p_values, res.marginal_p_values)
        assert cres.coverage == res.coverage
        # the restored warm state drives an identical incremental refit
        warm = clone.warm_state_
        assert warm is not None
        assert warm.source_fingerprint == sep.warm_state_.source_fingerprint
        cold = FeatureSeparator(FSConfig()).fit(Xs, Xt)
        refit = FeatureSeparator(FSConfig()).fit(Xs, Xt, warm=warm)
        np.testing.assert_array_equal(
            refit.result_.variant_indices, cold.result_.variant_indices)
        assert refit.cache_stats_["warm_hits"] > 0

    def test_persisted_confirm_mode_loads_as_exact(self, tmp_path):
        from repro.core.artifacts import load_artifact, save_artifact
        from repro.core.config import FSConfig
        from repro.core.feature_separation import FeatureSeparator
        from repro.datasets.wide import make_wide_pair

        Xs, Xt = make_wide_pair(23, n_source=200, n_target=80, random_state=7)
        sep = FeatureSeparator(FSConfig()).fit(Xs, Xt[:56])
        # bundles written while the inexact "confirm" mode existed
        object.__setattr__(sep.config, "warm_mode", "confirm")
        path = tmp_path / "sep.npz"
        save_artifact(sep, path)
        loaded = load_artifact(path).estimator
        assert loaded.config.warm_mode == "exact"
        warm = loaded.warm_state_
        assert warm is not None
        saved, restored = sep.warm_state_.state_dict(), warm.state_dict()
        assert sorted(restored) == sorted(saved)
        for name, array in saved.items():
            np.testing.assert_array_equal(restored[name], array)
        cold = FeatureSeparator(FSConfig()).fit(Xs, Xt)
        refit = FeatureSeparator(loaded.config).fit(Xs, Xt, warm=warm)
        assert refit.cache_stats_["mode"] == "exact"
        np.testing.assert_array_equal(
            refit.result_.variant_indices, cold.result_.variant_indices)

    def test_budgeted_coverage_survives_roundtrip(self, rng):
        from repro.core.config import FSConfig
        from repro.core.feature_separation import FeatureSeparator
        from repro.datasets.wide import make_wide_pair

        Xs, Xt = make_wide_pair(23, n_source=200, n_target=80, random_state=7)
        sep = FeatureSeparator(FSConfig(budget=2)).fit(Xs, Xt)
        assert 0.0 <= sep.result_.coverage < 1.0
        clone = _roundtrip(sep)
        assert clone.result_.coverage == sep.result_.coverage
        np.testing.assert_array_equal(
            clone.result_.variant_indices, sep.result_.variant_indices)

    def test_warm_artifact_fresh_interpreter(self, rng, tmp_path):
        import os
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        from repro.core.artifacts import save_artifact
        from repro.core.config import FSConfig
        from repro.core.feature_separation import FeatureSeparator
        from repro.datasets.wide import make_wide_pair

        Xs, Xt = make_wide_pair(23, n_source=200, n_target=80, random_state=7)
        sep = FeatureSeparator(FSConfig()).fit(Xs, Xt[:56])
        path = tmp_path / "sep.npz"
        save_artifact(sep, path)
        np.savez(tmp_path / "data.npz", Xs=Xs, Xt=Xt)
        cold = FeatureSeparator(FSConfig()).fit(Xs, Xt)
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from repro.core.artifacts import load_artifact
            from repro.core.config import FSConfig
            from repro.core.feature_separation import FeatureSeparator

            data = np.load(sys.argv[2])
            sep = load_artifact(sys.argv[1]).estimator
            assert sep.warm_state_ is not None
            refit = FeatureSeparator(FSConfig()).fit(
                data["Xs"], data["Xt"], warm=sep.warm_state_)
            print(",".join(map(str, refit.result_.variant_indices.tolist())))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path),
             str(tmp_path / "data.npz")],
            capture_output=True, text=True, check=True,
            # inherit the environment (PYTHONDONTWRITEBYTECODE among it)
            env=dict(os.environ, PYTHONPATH=str(
                Path(__file__).resolve().parents[1] / "src")),
        )
        got = [int(s) for s in proc.stdout.strip().split(",") if s]
        assert got == cold.result_.variant_indices.tolist()

    def test_prefix_isolation(self, rng):
        from repro.ml.preprocessing import MinMaxScaler, StandardScaler

        X = rng.normal(size=(20, 4))
        a, b = MinMaxScaler().fit(X), StandardScaler().fit(X)
        arrays = {}
        arrays.update(pack_estimator(a, "a."))
        arrays.update(pack_estimator(b, "b."))
        ra = unpack_estimator(arrays, "a.")
        rb = unpack_estimator(arrays, "b.")
        np.testing.assert_array_equal(ra.transform(X), a.transform(X))
        np.testing.assert_array_equal(rb.transform(X), b.transform(X))


class TestExportPlan:
    def test_pipeline_plan_lists_stages(self, tiny_5gc):
        from repro.core import FSGANPipeline, ReconstructionConfig
        from repro.ml import MLPClassifier

        X_few, _, _, _ = tiny_5gc.few_shot_split(5, random_state=0)
        pipe = FSGANPipeline(
            lambda: MLPClassifier(hidden_sizes=(8,), epochs=3, random_state=0),
            reconstruction_config=ReconstructionConfig(
                epochs=1, noise_dim=2, hidden_size=8),
            random_state=0,
        ).fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
        plan = pipe.export_plan()
        stages = [s["stage"] if isinstance(s, dict) else s
                  for s in plan["stages"]]
        assert plan["kind"] == "fsgan_pipeline"
        assert len(stages) == 5
