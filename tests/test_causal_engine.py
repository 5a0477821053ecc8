"""Tests for the batched/parallel CI-test engine behind F-node discovery.

The engine is a performance layer, so the contract under test is
*equivalence*: batched marginal p-values match the scalar test, the
level-batched subset search matches the sequential reference loop, and the
process-pool path is bit-identical to serial — including the observability
counters replayed in the parent process.
"""

import numpy as np
import pytest

from repro.causal import FNodeDiscovery
from repro.core.config import FSConfig
from repro.causal.ci_tests import regression_invariance_test
from repro.causal.engine import (
    CIEngine,
    batch_ks_pvalues,
    batch_welch_t_pvalues,
    combined_invariance_pvalues,
    resolve_n_jobs,
)
from repro.experiments.bench import reference_discover
from repro.ml import MinMaxScaler
from repro.obs import RunRecorder
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def domain_pair(tiny_5gc):
    """Scaled (source, few-shot target) matrices off the seeded benchmark."""
    X_few, _, _, _ = tiny_5gc.few_shot_split(10, random_state=0)
    scaler = MinMaxScaler().fit(tiny_5gc.X_source)
    return scaler.transform(tiny_5gc.X_source), scaler.transform(X_few)


class TestBatchedStats:
    def test_welch_t_matches_scipy(self, rng):
        from scipy import stats

        A = rng.standard_normal((60, 8))
        B = rng.standard_normal((25, 8)) + 0.5
        batched = batch_welch_t_pvalues(A, B)
        for k in range(8):
            _, p = stats.ttest_ind(A[:, k], B[:, k], equal_var=False)
            assert batched[k] == pytest.approx(p, rel=1e-12)

    def test_ks_matches_scipy(self, rng):
        from scipy import stats

        A = rng.standard_normal((60, 8))
        B = rng.standard_normal((25, 8)) + 0.5
        batched = batch_ks_pvalues(A, B)
        for k in range(8):
            p = stats.ks_2samp(A[:, k], B[:, k], method="asymp").pvalue
            assert batched[k] == pytest.approx(p, rel=1e-12)

    def test_combined_handles_constant_columns(self):
        res_s = np.column_stack([np.full(30, 2.0), np.full(30, 2.0)])
        res_t = np.column_stack([np.full(10, 2.0), np.full(10, 5.0)])
        out = combined_invariance_pvalues(res_s, res_t)
        assert out[0] == 1.0  # same constant in both domains
        assert out[1] == 0.0  # different constants: maximal evidence of drift


class TestMarginalSweep:
    def test_matches_scalar_test(self, domain_pair):
        Xs, Xt = domain_pair
        engine = CIEngine(Xs, Xt)
        batched = engine.marginal_pvalues()
        for j in range(Xs.shape[1]):
            p = regression_invariance_test(Xs[:, j], Xt[:, j])
            assert batched[j] == pytest.approx(p, rel=1e-9, abs=1e-12)

    def test_constant_column(self, rng):
        Xs = rng.standard_normal((50, 3))
        Xt = rng.standard_normal((20, 3))
        Xs[:, 1] = 7.0
        Xt[:, 1] = 7.0
        engine = CIEngine(Xs, Xt)
        p = engine.marginal_pvalues()[1]
        assert p == regression_invariance_test(Xs[:, 1], Xt[:, 1]) == 1.0

    def test_too_few_samples_all_pass(self, rng):
        engine = CIEngine(rng.standard_normal((2, 4)), rng.standard_normal((5, 4)))
        np.testing.assert_array_equal(engine.marginal_pvalues(), np.ones(4))


class TestConditionalCache:
    def test_matches_scalar_test(self, domain_pair):
        Xs, Xt = domain_pair
        engine = CIEngine(Xs, Xt)
        subsets = [(1,), (2,), (1, 2), (3, 5)]
        batched = engine.conditional_pvalues(0, subsets)
        for k, cols in enumerate(subsets):
            p = regression_invariance_test(
                Xs[:, 0], Xt[:, 0], Xs[:, list(cols)], Xt[:, list(cols)]
            )
            assert batched[k] == pytest.approx(p, rel=1e-9, abs=1e-12)

    def test_cache_is_consistent(self, domain_pair):
        Xs, Xt = domain_pair
        engine = CIEngine(Xs, Xt)
        subsets = [(1,), (1, 2)]
        first = engine.conditional_pvalues(0, subsets)
        again = engine.conditional_pvalues(0, subsets)  # cached designs
        np.testing.assert_array_equal(first, again)
        assert (1,) in engine._designs and (1, 2) in engine._designs

    def test_search_skips_cleared_marginal(self, domain_pair):
        Xs, Xt = domain_pair
        engine = CIEngine(Xs, Xt)
        best_p, separating, n_tests, log, completed = engine.search_feature(
            0, (1, 2), 0.9, alpha=0.01, max_cond_size=2
        )
        assert (best_p, separating, n_tests, log, completed) == (0.9, (), 0, [], True)


class TestReferenceEquivalence:
    def test_discovery_matches_reference_loop(self, domain_pair):
        Xs, Xt = domain_pair
        result = FNodeDiscovery().discover(Xs, Xt)
        ref = reference_discover(Xs, Xt)
        np.testing.assert_array_equal(result.variant_indices, ref.variant_indices)
        np.testing.assert_allclose(result.p_values, ref.p_values, rtol=1e-9)
        assert result.parent_sets == ref.parent_sets
        assert result.n_tests == ref.n_tests


class TestParallelEquivalence:
    def test_bit_identical_to_serial(self, domain_pair):
        Xs, Xt = domain_pair
        serial = FNodeDiscovery(FSConfig(n_jobs=1)).discover(Xs, Xt)
        parallel = FNodeDiscovery(FSConfig(n_jobs=4)).discover(Xs, Xt)
        np.testing.assert_array_equal(serial.variant_indices, parallel.variant_indices)
        np.testing.assert_array_equal(serial.p_values, parallel.p_values)
        assert serial.parent_sets == parallel.parent_sets
        assert serial.n_tests == parallel.n_tests

    def test_shared_memory_bit_identical_to_serial(self, domain_pair):
        from repro.causal.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared memory unavailable on this platform")
        Xs, Xt = domain_pair
        serial = FNodeDiscovery(FSConfig(n_jobs=1)).discover(Xs, Xt)
        config = FSConfig(n_jobs=2, use_shared_memory=True)
        shm = FNodeDiscovery(config).discover(Xs, Xt)
        np.testing.assert_array_equal(serial.p_values, shm.p_values)
        assert serial.parent_sets == shm.parent_sets
        assert serial.n_tests == shm.n_tests

    def test_pickling_fallback_bit_identical(self, domain_pair):
        Xs, Xt = domain_pair
        serial = FNodeDiscovery(FSConfig(n_jobs=1)).discover(Xs, Xt)
        config = FSConfig(n_jobs=2, use_shared_memory=False)
        pickled = FNodeDiscovery(config).discover(Xs, Xt)
        np.testing.assert_array_equal(serial.p_values, pickled.p_values)
        assert serial.parent_sets == pickled.parent_sets
        assert serial.n_tests == pickled.n_tests

    def test_no_shared_memory_segments_leak(self, domain_pair):
        import glob

        from repro.causal.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared memory unavailable on this platform")
        Xs, Xt = domain_pair
        FNodeDiscovery(FSConfig(n_jobs=2, use_shared_memory=True)).discover(Xs, Xt)
        assert glob.glob("/dev/shm/repro_fs_*") == []

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_obs_counters_match_n_tests(self, domain_pair, tmp_path, n_jobs):
        Xs, Xt = domain_pair
        with RunRecorder(tmp_path / f"run{n_jobs}") as rec:
            result = FNodeDiscovery(FSConfig(n_jobs=n_jobs)).discover(Xs, Xt)
        total = rec.metrics.counter("ci_tests_total").value
        assert total == result.n_tests
        assert rec.metrics.histogram("ci_test_seconds").count == total
        assert rec.metrics.histogram("ci_test_pvalue").count == total
        per_size = sum(
            rec.metrics.counter(name).value
            for name in rec.metrics.names()
            if name.startswith("ci_tests_cond")
        )
        assert per_size == total

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ValidationError, match="got 0"):
            resolve_n_jobs(0)
        with pytest.raises(ValidationError, match="got -2"):
            resolve_n_jobs(-2)
        with pytest.raises(ValidationError, match="-1 \\(all cores\\)"):
            resolve_n_jobs(-4)
        with pytest.raises(ValidationError):
            resolve_n_jobs(True)
        with pytest.raises(ValidationError):
            resolve_n_jobs(2.5)
