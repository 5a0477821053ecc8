"""Tests for the batched/parallel CI-test engine behind F-node discovery.

The engine is a performance layer, so the contract under test is
*equivalence*: batched marginal p-values match the scalar test, a p-value
does not depend on what it is batched with, the cross-feature round search
matches both a one-feature-at-a-time search and the sequential reference
loop, and the process-pool path is bit-identical to serial — including the
observability counters replayed in the parent process.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal import FNodeDiscovery
from repro.core.config import FSConfig
from repro.causal.ci_tests import regression_invariance_test
from repro.causal.warm import WarmState
from repro.causal.engine import (
    CIEngine,
    batch_ks_pvalues,
    batch_welch_t_pvalues,
    combined_invariance_pvalues,
    resolve_n_jobs,
)
from repro.experiments.drift_schedule import make_drift_schedule
from repro.ml import MinMaxScaler
from repro.obs import RunRecorder
from repro.obs.trace import Tracer, use_tracer
from repro.utils.errors import ValidationError
from tests.oracles.fs_reference import reference_discover


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

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_ks_equals_scipy_bitwise_with_ties(self, rng, dtype):
        from scipy import stats

        # integer-valued columns: most pooled values are tied across domains
        A = rng.integers(0, 6, (45, 12)).astype(dtype)
        B = rng.integers(1, 7, (17, 12)).astype(dtype)
        batched = batch_ks_pvalues(A, B)
        for k in range(12):
            p = stats.ks_2samp(A[:, k], B[:, k], method="asymp").pvalue
            assert batched[k] == p

    def test_combined_handles_constant_columns(self):
        res_s = np.column_stack([np.full(30, 2.0), np.full(30, 2.0)])
        res_t = np.column_stack([np.full(10, 2.0), np.full(10, 5.0)])
        out = combined_invariance_pvalues(res_s, res_t)
        assert out[0] == 1.0  # same constant in both domains
        assert out[1] == 0.0  # different constants: maximal evidence of drift


class TestWidthInvariance:
    """A p-value is a function of its own (j, S) only, not of the batch."""

    @settings(max_examples=40, deadline=None)
    @given(
        dtype=st.sampled_from(["float32", "float64"]),
        ks_exact=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_columns_alone_equal_their_slice(self, dtype, ks_exact, seed, data):
        rng = np.random.default_rng(seed)
        n_s = data.draw(st.integers(3, 150), label="n_s")
        n_t = data.draw(st.integers(2, 60), label="n_t")
        m = data.draw(st.integers(1, 60), label="m")
        scale = 10.0 ** rng.uniform(-3, 3)
        res_s = rng.standard_normal((n_s, m)) * scale
        res_t = (rng.standard_normal((n_t, m)) + rng.uniform(-1, 1, m)) * scale
        # ties and constant columns take the KS and constant-column branches
        res_s[:, 1::5] = np.round(res_s[:, 1::5] / scale)
        res_t[:, 1::5] = np.round(res_t[:, 1::5] / scale)
        res_s[:, 2::7] = 2.0
        res_t[:, 2::7] = 2.0
        res_s, res_t = res_s.astype(dtype), res_t.astype(dtype)
        full = combined_invariance_pvalues(res_s, res_t, ks_exact=ks_exact)
        cols = data.draw(
            st.lists(st.integers(0, m - 1), min_size=1, unique=True), label="cols"
        )
        alone = combined_invariance_pvalues(
            res_s[:, cols], res_t[:, cols], ks_exact=ks_exact
        )
        np.testing.assert_array_equal(alone, full[cols])

    @settings(max_examples=15, deadline=None)
    @given(dtype=st.sampled_from(["float32", "float64"]), data=st.data())
    def test_pair_alone_equals_its_entry_in_a_mixed_round(
        self, domain_pair, dtype, data
    ):
        Xs, Xt = domain_pair
        d = Xs.shape[1]
        verify = 0.01 if dtype == "float32" else None
        pair = st.integers(0, d - 1).flatmap(
            lambda j: st.tuples(
                st.just(j),
                st.lists(
                    st.integers(0, d - 1).filter(lambda c: c != j),
                    min_size=1, max_size=3, unique=True,
                ).map(tuple),
            )
        )
        pairs = data.draw(st.lists(pair, min_size=2, max_size=40), label="pairs")
        mixed = CIEngine(
            Xs, Xt, stats_dtype=dtype, verify_alpha=verify
        ).pvalues(pairs)
        k = data.draw(st.integers(0, len(pairs) - 1), label="k")
        j, cols = pairs[k]
        alone = CIEngine(
            Xs, Xt, stats_dtype=dtype, verify_alpha=verify
        ).conditional_pvalues(j, [cols])
        assert alone[0] == mixed[k]


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


def _one_feature_per_round(monkeypatch):
    """Make every CIEngine.search run its tasks one feature at a time."""
    search = CIEngine.search

    def one_at_a_time(self, tasks, **kwargs):
        return [row for task in tasks for row in search(self, [task], **kwargs)]

    monkeypatch.setattr(CIEngine, "search", one_at_a_time)


DEEP = FSConfig(max_parents=6, max_cond_size=3, min_correlation=0.1)


class TestRoundEquivalence:
    """Cross-feature rounds equal the one-feature-at-a-time search bitwise."""

    @pytest.fixture(scope="class")
    def hop(self):
        """(source, post-onset target, prior warm state) of a drift hop."""
        data = make_drift_schedule(96, schedule="abrupt", random_state=0)
        prior = data["X_target_prior"]
        drifted = data["batches"][data["onset_batch"]][:32]
        disc = FNodeDiscovery(DEEP)
        disc.discover(data["X_source"], prior)
        state = disc.warm_state_.state_dict(include_residuals=True)
        return data["X_source"], np.vstack([prior, drifted]), state

    @staticmethod
    def _run(config, hop, warm):
        """Discovery result plus each feature's counted (size, p) tests."""
        Xs, Xt, state = hop
        tests = {}
        search = FNodeDiscovery._search

        def capture(self, engine, tasks, tracer):
            rows, coverage = search(self, engine, tasks, tracer)
            for row in rows:
                tests[row[0]] = [(size, p) for size, p, _ in row[4]]
            return rows, coverage

        disc = FNodeDiscovery(config)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(FNodeDiscovery, "_search", capture)
            if warm:
                result = disc.rediscover(Xs, Xt, WarmState.from_state(state))
            else:
                result = disc.discover(Xs, Xt)
        return result, tests

    @pytest.mark.parametrize(
        "config, warm",
        [
            (DEEP, False),
            (DEEP, True),
            (replace(DEEP, prune_k=3), False),
            (replace(DEEP, stats_dtype="float32"), False),
            (replace(DEEP, stats_dtype="float32", prune_k=3), True),
            (replace(DEEP, n_jobs=2), False),
        ],
        ids=["cold", "warm", "prune-exact", "float32", "float32-warm", "pool"],
    )
    def test_rounds_equal_one_feature_per_round(
        self, hop, monkeypatch, config, warm
    ):
        verified = []
        verifier = CIEngine._verifier

        def spy(engine):
            verified.append(True)
            return verifier(engine)

        monkeypatch.setattr(CIEngine, "_verifier", spy)
        tracer = Tracer()
        with use_tracer(tracer):
            rounds, round_tests = self._run(config, hop, warm)
        with monkeypatch.context() as m:
            search = CIEngine.search

            def one_at_a_time(self, tasks, **kwargs):
                return [row for task in tasks for row in search(self, [task], **kwargs)]

            m.setattr(CIEngine, "search", one_at_a_time)
            single, single_tests = self._run(replace(config, n_jobs=1), hop, warm)
        np.testing.assert_array_equal(rounds.p_values, single.p_values)
        assert rounds.parent_sets == single.parent_sets
        assert rounds.n_tests == single.n_tests
        assert round_tests == single_tests  # every counted test, bitwise

        # the runs exercise what their case names
        batches = [
            s for root in tracer.roots for s in _walk(root) if s.name == "fs.ci_batch"
        ]
        if config.n_jobs == 1:
            assert max(s.tags.get("n_features", 0) for s in batches) > 1
            pools = {s.tags.get("pool") for s in batches}
            assert ("prior" in pools) == warm
            assert ("fallback" in pools) == (config.prune_k is not None)
        else:
            assert any(s.tags.get("n_jobs") == 2 for s in batches)
        assert bool(verified) == (config.stats_dtype == "float32")


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


class TestRoundSpans:
    def test_rounds_split_into_residuals_and_score(self, domain_pair):
        Xs, Xt = domain_pair
        tracer = Tracer()
        with use_tracer(tracer):
            result = FNodeDiscovery(DEEP).discover(Xs, Xt)
        discover = tracer.find("fs.discover")
        batches = [c for c in discover.children if c.name == "fs.ci_batch"]
        marginal, rounds = batches[0], batches[1:]
        assert marginal.tags["stage"] == "marginal"
        assert [r.tags["round"] for r in rounds] == sorted(
            {r.tags["round"] for r in rounds}
        )
        for r in rounds:
            assert {"round", "level", "n_features", "n_tests"} <= set(r.tags)
            names = {c.name for c in r.children}
            assert names == {"fs.residuals", "fs.score"}
        assert marginal.tags["n_tests"] + sum(
            r.tags["n_tests"] for r in rounds
        ) == result.n_tests


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
