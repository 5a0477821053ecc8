"""Tests for the wide-scale FS discovery paths (ISSUE 7 / ROADMAP item 4).

Covers the four tentpole optimisations — shared-memory fan-out (lifecycle
tested here, bit-identity in ``test_causal_engine.py``), candidate-pool
pruning with the exactness guarantee, budgeted/anytime search with
coverage, and the float32 statistics path with float64 borderline
verification — plus the synthetic wide generator they are measured on.
"""

import numpy as np
import pytest

from repro.causal import FNodeDiscovery
from repro.causal.shm import (
    SHM_AVAILABLE,
    SharedMatrices,
    attach_arrays,
    create_shared_matrices,
)
from repro.core.config import FSConfig
from repro.core.feature_separation import FeatureSeparator
from repro.datasets.wide import make_wide_pair
from repro.utils.errors import ConfigurationError, ValidationError


@pytest.fixture(scope="module")
def scaled_pair(tiny_5gc):
    from repro.ml import MinMaxScaler

    X_few, _, _, _ = tiny_5gc.few_shot_split(10, random_state=0)
    scaler = MinMaxScaler().fit(tiny_5gc.X_source)
    return scaler.transform(tiny_5gc.X_source), scaler.transform(X_few)


@pytest.fixture(scope="module")
def baseline(scaled_pair):
    Xs, Xt = scaled_pair
    return FNodeDiscovery().discover(Xs, Xt)


class TestSharedMemoryLifecycle:
    pytestmark = pytest.mark.skipif(
        not SHM_AVAILABLE, reason="shared memory unavailable"
    )

    def test_roundtrip_is_exact_and_readonly(self, rng):
        arrays = {"Xs": rng.standard_normal((40, 7)), "Xt": rng.standard_normal((9, 7))}
        with SharedMatrices(arrays) as shared:
            attached = attach_arrays(shared.meta())
            for key, original in arrays.items():
                np.testing.assert_array_equal(attached[key], original)
                assert not attached[key].flags.writeable

    def test_close_unlinks_and_is_idempotent(self, rng):
        shared = SharedMatrices({"Xs": rng.standard_normal((5, 3))})
        name = shared.meta()["Xs"]["name"]
        shared.close()
        shared.close()  # second close must not raise
        with pytest.raises(FileNotFoundError):
            attach_arrays({"Xs": {"name": name, "shape": (5, 3), "dtype": "float64"}})

    def test_create_returns_handle_or_none(self, rng):
        shared = create_shared_matrices({"Xs": rng.standard_normal((5, 3))})
        assert shared is not None
        shared.close()

    def test_create_returns_none_when_unavailable(self, rng, monkeypatch):
        import repro.causal.shm as shm_mod

        monkeypatch.setattr(shm_mod, "SHM_AVAILABLE", False)
        assert create_shared_matrices({"Xs": rng.standard_normal((5, 3))}) is None

    def test_discovery_falls_back_when_shm_creation_fails(
        self, scaled_pair, baseline, monkeypatch
    ):
        import repro.causal.fnode as fnode_mod

        monkeypatch.setattr(
            fnode_mod, "create_shared_matrices", lambda arrays: None
        )
        Xs, Xt = scaled_pair
        config = FSConfig(n_jobs=2, use_shared_memory=True)
        result = FNodeDiscovery(config).discover(Xs, Xt)
        np.testing.assert_array_equal(baseline.p_values, result.p_values)
        assert baseline.n_tests == result.n_tests


class TestPruning:
    def test_exact_mode_preserves_variant_decisions(self, scaled_pair, baseline):
        Xs, Xt = scaled_pair
        for prune_k in (1, 2, 3):
            config = FSConfig(prune_k=prune_k, prune_exact=True)
            pruned = FNodeDiscovery(config).discover(Xs, Xt)
            np.testing.assert_array_equal(
                baseline.variant_indices, pruned.variant_indices
            )

    def test_exact_mode_on_wide_generator_across_seeds(self):
        configs = (
            FSConfig(prune_k=2, prune_exact=True),
            # the wide-scale setting: exact pruning with float32 statistics
            FSConfig(prune_k=3, stats_dtype="float32"),
        )
        for seed in range(3):
            Xs, Xt = make_wide_pair(72, random_state=seed)
            full = FNodeDiscovery().discover(Xs, Xt)
            for config in configs:
                pruned = FNodeDiscovery(config).discover(Xs, Xt)
                np.testing.assert_array_equal(
                    full.variant_indices, pruned.variant_indices
                )
                assert pruned.coverage == 1.0

    def test_approximate_mode_over_reports_only(self, scaled_pair, baseline):
        # skipping the fallback phase can only miss clearing subsets, so the
        # approximate variant set is a superset of the exact one
        Xs, Xt = scaled_pair
        config = FSConfig(prune_k=1, prune_exact=False)
        approx = FNodeDiscovery(config).discover(Xs, Xt)
        assert set(baseline.variant_indices) <= set(approx.variant_indices)


class TestBudgetedSearch:
    def test_variant_sets_shrink_monotonically_with_budget(self, scaled_pair):
        # more tests can only find more clearing subsets, so the variant set
        # at a larger budget is a subset of any smaller budget's
        Xs, Xt = scaled_pair
        previous = None
        for budget in (0, 10, 50, 200, 100000):
            result = FNodeDiscovery(FSConfig(budget=budget)).discover(Xs, Xt)
            assert result.n_tests <= Xs.shape[1] + budget
            if previous is not None:
                assert set(result.variant_indices) <= set(previous.variant_indices)
            previous = result

    def test_unlimited_budget_matches_unbudgeted_decisions(
        self, scaled_pair, baseline
    ):
        Xs, Xt = scaled_pair
        result = FNodeDiscovery(FSConfig(budget=10**9)).discover(Xs, Xt)
        np.testing.assert_array_equal(
            baseline.variant_indices, result.variant_indices
        )
        assert result.coverage == 1.0

    def test_coverage_reports_completed_fraction(self, scaled_pair):
        Xs, Xt = scaled_pair
        starved = FNodeDiscovery(FSConfig(budget=0)).discover(Xs, Xt)
        assert starved.coverage == 0.0
        partial = FNodeDiscovery(FSConfig(budget=30)).discover(Xs, Xt)
        assert 0.0 < partial.coverage < 1.0
        full = FNodeDiscovery().discover(Xs, Xt)
        assert full.coverage == 1.0

    def test_wall_clock_budget_runs_and_reports_coverage(self, scaled_pair):
        Xs, Xt = scaled_pair
        result = FNodeDiscovery(FSConfig(budget_seconds=120.0)).discover(Xs, Xt)
        assert 0.0 <= result.coverage <= 1.0


class TestFloat32Path:
    def test_variant_sets_match_float64_across_seeds(self):
        for seed in range(4):
            Xs, Xt = make_wide_pair(64, random_state=seed)
            f64 = FNodeDiscovery(FSConfig(stats_dtype="float64")).discover(Xs, Xt)
            f32 = FNodeDiscovery(FSConfig(stats_dtype="float32")).discover(Xs, Xt)
            np.testing.assert_array_equal(f64.variant_indices, f32.variant_indices)

    def test_variant_sets_match_on_5gc(self, scaled_pair, baseline):
        Xs, Xt = scaled_pair
        f32 = FNodeDiscovery(FSConfig(stats_dtype="float32")).discover(Xs, Xt)
        np.testing.assert_array_equal(baseline.variant_indices, f32.variant_indices)

    def test_borderline_pvalues_are_verified_in_float64(self, scaled_pair):
        from repro.causal.engine import CIEngine

        Xs, Xt = scaled_pair
        engine = CIEngine(Xs, Xt, stats_dtype="float32", verify_alpha=0.01)
        exact = CIEngine(Xs, Xt)
        ps32 = engine.marginal_pvalues()
        ps64 = exact.marginal_pvalues()
        near = np.abs(ps32 - 0.01) <= 0.005
        # inside the verification band the float32 path must return the
        # float64 answer exactly — that is the decision-equality mechanism
        np.testing.assert_array_equal(ps32[near], ps64[near])

    def test_stats_dtype_validation(self):
        from repro.causal.engine import CIEngine

        with pytest.raises(ValidationError):
            CIEngine(np.zeros((5, 2)), np.zeros((4, 2)), stats_dtype="float16")


class TestWideGenerator:
    def test_exact_width_and_determinism(self):
        for width in (1, 7, 8, 21, 96):
            Xs, Xt = make_wide_pair(width, random_state=3)
            assert Xs.shape[1] == Xt.shape[1] == width
            Xs2, Xt2 = make_wide_pair(width, random_state=3)
            np.testing.assert_array_equal(Xs, Xs2)
            np.testing.assert_array_equal(Xt, Xt2)

    def test_discovery_finds_parents_not_children(self):
        Xs, Xt = make_wide_pair(48, random_state=0)
        result = FNodeDiscovery().discover(Xs, Xt)
        variant = set(result.variant_indices.tolist())
        parents = set(range(0, 48, 8))
        # every drifted parent is an intervention target; its children are
        # separated by conditioning on it, so most must not be reported
        assert parents <= variant
        children = set(range(48)) - parents - {c for c in range(48) if c % 8 >= 6}
        assert len(variant & children) < len(children) / 2


class TestFSConfigWideFields:
    def test_defaults_are_backwards_compatible(self):
        config = FSConfig()
        assert config.prune_k is None
        assert config.budget is None
        assert config.stats_dtype == "float64"
        assert config.use_shared_memory is True

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FSConfig(prune_k=0)
        with pytest.raises(ConfigurationError):
            FSConfig(budget=-5)
        with pytest.raises(ConfigurationError):
            FSConfig(budget_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            FSConfig(budget_seconds=0.0)
        with pytest.raises(ConfigurationError):
            FSConfig(stats_dtype="float16")
        with pytest.raises(ConfigurationError, match="got 0"):
            FSConfig(n_jobs=0)
        with pytest.raises(ConfigurationError, match="got -3"):
            FSConfig(n_jobs=-3)
        with pytest.raises(ConfigurationError, match="got True"):
            FSConfig(n_jobs=True)
        with pytest.raises(ConfigurationError, match="got 2.5"):
            FSConfig(n_jobs=2.5)

    def test_separator_passes_wide_settings_through(self, scaled_pair):
        Xs, Xt = scaled_pair
        sep = FeatureSeparator(
            FSConfig(prune_k=2, stats_dtype="float32", budget=100)
        ).fit(Xs, Xt)
        assert 0.0 <= sep.result_.coverage <= 1.0
        state = sep.state_dict()
        loaded = FeatureSeparator().load_state_dict(state)
        assert loaded.result_.coverage == sep.result_.coverage
