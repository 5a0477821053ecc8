"""Warm-start incremental re-discovery tests (ISSUE 9).

Covers the persistent CI-statistics cache (:class:`CIStatCache`) and its
packed serialized layout (bit-exact round trips, a member count that does
not grow with the entries), the serialized :class:`WarmState`,
:meth:`FNodeDiscovery.rediscover` against the cold baseline across every
fan-out path, the guard-mismatch cold fallbacks, the ``fs.cache.*`` metric
export, the intra-level wall-clock deadline fix, and the deduplicated and
memoized :func:`ks_pvalue` tails.
"""

import io
import json
import sys
import threading

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.causal import (
    CIStatCache,
    FNodeDiscovery,
    WarmState,
    matrix_fingerprint,
)
from repro.causal import ci_tests
from repro.causal.ci_tests import KS_PVALUE_MODES, ks_pvalue
from repro.causal.engine import DEADLINE_CHUNK, CIEngine
from repro.causal.warm import state_version
from repro.core.config import FSConfig
from repro.core.feature_separation import FeatureSeparator
from repro.datasets.wide import make_wide_pair
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.utils.errors import ConfigurationError, ValidationError

WIDTH = 39


def clone_warm(warm: WarmState) -> WarmState:
    """Isolated copy so tests cannot couple through the live cache."""
    return WarmState.from_state(warm.state_dict(include_residuals=True))


@pytest.fixture(scope="module")
def pair():
    return make_wide_pair(WIDTH, n_source=240, n_target=96, random_state=3)


@pytest.fixture(scope="module")
def warm_setup(pair):
    """(Xs, Xt, prior WarmState at 72 rows, cold result at 96 rows)."""
    Xs, Xt = pair
    prior = FNodeDiscovery()
    prior.discover(Xs, Xt[:72])
    cold = FNodeDiscovery().discover(Xs, Xt)
    return Xs, Xt, prior.warm_state_, cold


class TestMatrixFingerprint:
    def test_ignores_input_dtype_and_layout(self, rng):
        X = rng.standard_normal((20, 5))
        base = matrix_fingerprint(X)
        assert matrix_fingerprint(np.asfortranarray(X)) == base
        assert matrix_fingerprint(X.astype(np.float32).astype(np.float64)) != base
        assert matrix_fingerprint(X.copy()) == base

    def test_detects_any_change(self, rng):
        X = rng.standard_normal((20, 5))
        Y = X.copy()
        Y[13, 2] += 1e-12
        assert matrix_fingerprint(Y) != matrix_fingerprint(X)
        assert matrix_fingerprint(X[:19]) != matrix_fingerprint(X)


class TestKsPvalue:
    def test_exact_matches_scipy_asymp_bitwise(self, rng):
        for n, m in ((480, 120), (480, 24), (50, 7)):
            a, b = rng.standard_normal(n), 0.3 + rng.standard_normal(m)
            d, p_ref = scipy_stats.ks_2samp(a, b, method="asymp")
            assert float(ks_pvalue(d, n, m, mode="exact")) == p_ref

    def test_stephens_is_close_but_distinct(self, rng):
        a, b = rng.standard_normal(200), 0.2 + rng.standard_normal(60)
        d, _ = scipy_stats.ks_2samp(a, b, method="asymp")
        exact = float(ks_pvalue(d, 200, 60, mode="exact"))
        steph = float(ks_pvalue(d, 200, 60, mode="stephens"))
        assert 0.0 <= steph <= 1.0
        assert steph == pytest.approx(exact, abs=5e-3)

    def test_vectorized_and_mode_validation(self):
        d = np.array([0.1, 0.5, 0.9])
        out = ks_pvalue(d, 100, 30, mode="exact")
        assert out.shape == d.shape
        assert np.all(np.diff(out) < 0)  # larger D, smaller tail
        assert "exact" in KS_PVALUE_MODES
        with pytest.raises(ValidationError):
            ks_pvalue(0.3, 100, 30, mode="approximate")


class TestKsTailMemo:
    """The exact tail is memoized by (rounded n, D); it must stay scipy's."""

    @staticmethod
    def _scipy(d, n, m):
        en = np.round(max(n, m) * min(n, m) / (n + m))
        return np.clip(scipy_stats.kstwo.sf(d, en), 0.0, 1.0)

    @pytest.mark.parametrize("n,m", [(480, 120), (480, 24), (50, 7), (800, 10)])
    def test_grid_bitwise_equal_to_scipy_cold_and_warm(self, rng, n, m):
        ci_tests._KS_TAIL_MEMO.clear()
        lcm = np.lcm(n, m)
        # attainable statistics (repeated multiples of 1/lcm) mixed with
        # arbitrary floats, some shared between the two calls
        grid = np.concatenate([rng.integers(0, lcm + 1, 300) / lcm,
                               rng.random(40)])
        rng.shuffle(grid)
        cold = ks_pvalue(grid, n, m, mode="exact")
        warm = ks_pvalue(grid.reshape(20, -1), n, m, mode="exact")
        ref = self._scipy(grid, n, m)
        assert cold.dtype == ref.dtype == np.float64
        np.testing.assert_array_equal(cold.view(np.int64), ref.view(np.int64))
        np.testing.assert_array_equal(
            warm.view(np.int64), ref.reshape(20, -1).view(np.int64))
        assert len(ci_tests._KS_TAIL_MEMO) == len(np.unique(grid))

    def test_scalar_path_bitwise_equal_to_scipy(self, rng):
        for n, m in ((480, 120), (50, 7)):
            for d in rng.integers(0, np.lcm(n, m) + 1, 25) / np.lcm(n, m):
                for _ in range(2):  # miss, then hit
                    got = ks_pvalue(float(d), n, m, mode="exact")
                    assert isinstance(got, np.float64)
                    assert got == self._scipy(float(d), n, m)

    def test_non_finite_statistics_pass_through_unstored(self):
        ci_tests._KS_TAIL_MEMO.clear()
        d = np.array([np.nan, 0.25, np.inf, np.nan])
        got = ks_pvalue(d, 100, 30, mode="exact")
        np.testing.assert_array_equal(got, self._scipy(d, 100, 30))
        assert len(ci_tests._KS_TAIL_MEMO) == 1

    def test_memo_size_is_bounded(self, monkeypatch):
        ci_tests._KS_TAIL_MEMO.clear()
        monkeypatch.setattr(ci_tests, "KS_TAIL_MEMO_MAX", 16)
        grid = np.arange(1, 101) / 200
        for chunk in np.split(grid, 5):
            got = ks_pvalue(chunk, 200, 60, mode="exact")
            np.testing.assert_array_equal(got, self._scipy(chunk, 200, 60))
            assert len(ci_tests._KS_TAIL_MEMO) <= 16
        # the newest entries are the ones kept
        assert (float(np.round(200 * 60 / 260)), float(grid[-1])) in ci_tests._KS_TAIL_MEMO

    def test_threads_share_the_memo_safely(self, monkeypatch):
        ci_tests._KS_TAIL_MEMO.clear()
        monkeypatch.setattr(ci_tests, "KS_TAIL_MEMO_MAX", 8)
        grids = [np.arange(k, k + 24) / 120 for k in range(0, 48, 6)]
        refs = [self._scipy(g, 120, 40) for g in grids]
        errors = []

        def work(i):
            try:
                for _ in range(20):
                    got = ks_pvalue(grids[i], 120, 40, mode="exact")
                    if not np.array_equal(got, refs[i]):
                        errors.append(i)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(grids))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(ci_tests._KS_TAIL_MEMO) <= 8


class TestCIStatCache:
    def test_entry_accessors_and_counts(self, rng):
        cache = CIStatCache(ridge=1e-3, stats_dtype="float64",
                            source_fingerprint="fp")
        cols = (1, 4)
        factor = (rng.standard_normal((2, 2)), True)
        cache.put_factor(cols, factor)
        cache.put_beta(cols, 7, rng.standard_normal(2))
        cache.put_residual(cols, 7, rng.standard_normal(30))
        assert cache.n_entries == 3
        assert cache.get_factor(cols)[1] is True
        assert cache.get_beta(cols, 7).shape == (2,)
        assert cache.get_beta(cols, 8) is None
        assert cache.get_factor((9,)) is None

    def test_matches_and_invalidate(self):
        cache = CIStatCache(ridge=1e-3, stats_dtype="float32",
                            source_fingerprint="fp")
        cache.put_beta((0,), 1, np.zeros(1))
        assert cache.matches(ridge=1e-3, stats_dtype="float32",
                             source_fingerprint="fp")
        assert not cache.matches(ridge=1e-2, stats_dtype="float32",
                                 source_fingerprint="fp")
        assert not cache.matches(ridge=1e-3, stats_dtype="float32",
                                 source_fingerprint="other")
        assert cache.invalidate() == 1
        assert cache.n_entries == 0
        assert cache.invalidations == 1

    def test_state_roundtrip(self, rng):
        cache = CIStatCache(ridge=2e-3, stats_dtype="float32",
                            source_fingerprint="abc")
        cache.put_factor((2, 5), (rng.standard_normal((2, 2)), False))
        cache.put_beta((2, 5), 3, rng.standard_normal(2))
        cache.put_residual((2, 5), 3, rng.standard_normal(12))
        lean = CIStatCache.from_state(cache.state_dict())
        assert lean.matches(ridge=2e-3, stats_dtype="float32",
                            source_fingerprint="abc")
        np.testing.assert_array_equal(
            lean.get_factor((2, 5))[0], cache.get_factor((2, 5))[0])
        np.testing.assert_array_equal(
            lean.get_beta((2, 5), 3), cache.get_beta((2, 5), 3))
        assert lean.get_residual((2, 5), 3) is None  # dropped by default
        full = CIStatCache.from_state(cache.state_dict(include_residuals=True))
        np.testing.assert_array_equal(
            full.get_residual((2, 5), 3), cache.get_residual((2, 5), 3))

    def test_portable_roundtrip(self, rng):
        cache = CIStatCache(ridge=1e-3, stats_dtype="float64",
                            source_fingerprint="xyz")
        cache.put_factor((1,), (rng.standard_normal((1, 1)), True))
        back = CIStatCache.from_portable(cache.to_portable())
        assert back.source_fingerprint == "xyz"
        np.testing.assert_array_equal(
            back.get_factor((1,))[0], cache.get_factor((1,))[0])


def _npz_roundtrip(state: dict) -> dict:
    """Write ``state`` through a real npz file and read it back."""
    buf = io.BytesIO()
    np.savez(buf, **state)
    buf.seek(0)
    with np.load(buf, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def _assert_same_entries(back: dict, orig: dict) -> None:
    assert sorted(back) == sorted(orig)
    for key, arr in orig.items():
        got = back[key]
        assert got.dtype == arr.dtype, key
        assert got.shape == arr.shape, key
        assert got.tobytes() == np.ascontiguousarray(arr).tobytes(), key


def _by_cols_and_j(entries: dict) -> dict:
    return {(cols, j): arr for cols, per in entries.items()
            for j, arr in per.items()}


class TestPackedLayout:
    def _mixed_cache(self, rng) -> CIStatCache:
        cache = CIStatCache(ridge=2e-3, stats_dtype="float32",
                            source_fingerprint="mixed")
        cache.invalidations = 5
        # key lengths 0, 1 and 3; float32 entries next to the float64
        # fallback factors the engine writes when a float32 Gram matrix
        # loses positive-definiteness
        for cols, dtype in (((), np.float32), ((4,), np.float64),
                            ((0, 2, 9), np.float32)):
            k = len(cols) + 1
            factor = np.asfortranarray(rng.standard_normal((k, k)).astype(dtype))
            cache.put_factor(cols, (factor, len(cols) % 2 == 0))
            for j in (1, 11):
                cache.put_beta(cols, j, rng.standard_normal(k).astype(dtype))
                cache.put_residual(cols, j, rng.standard_normal(17))
        return cache

    def test_mixed_keys_and_dtypes_roundtrip_bit_exactly(self, rng):
        cache = self._mixed_cache(rng)
        state = cache.state_dict(include_residuals=True)
        assert len(json.loads(state["__meta__"].tobytes())["dtypes"]) == 2
        back = CIStatCache.from_state(_npz_roundtrip(state))
        assert back.matches(ridge=2e-3, stats_dtype="float32",
                            source_fingerprint="mixed")
        assert back.invalidations == 5
        assert {c: f[1] for c, f in back.factors.items()} == {
            c: f[1] for c, f in cache.factors.items()}
        _assert_same_entries({c: f[0] for c, f in back.factors.items()},
                             {c: f[0] for c, f in cache.factors.items()})
        for family in ("betas", "residuals"):
            _assert_same_entries(_by_cols_and_j(getattr(back, family)),
                                 _by_cols_and_j(getattr(cache, family)))
        # the packed bytes are a pure function of the cache contents
        again = back.state_dict(include_residuals=True)
        assert sorted(again) == sorted(state)
        for name in state:
            assert again[name].tobytes() == state[name].tobytes(), name

    def test_residuals_are_opt_in(self, rng):
        cache = self._mixed_cache(rng)
        lean = CIStatCache.from_state(_npz_roundtrip(cache.state_dict()))
        assert lean.residuals == {}
        assert lean.n_entries == cache.n_entries - 6

    def test_empty_cache_roundtrips(self):
        cache = CIStatCache(ridge=1e-3, stats_dtype="float64",
                            source_fingerprint=None)
        state = cache.state_dict(include_residuals=True)
        assert not any(name.startswith("data.") for name in state)
        back = CIStatCache.from_state(_npz_roundtrip(state))
        assert back.n_entries == 0
        assert back.source_fingerprint is None
        assert sorted(back.state_dict()) == sorted(state)

    def test_member_count_does_not_grow_with_entries(self, pair):
        small_s, small_t = make_wide_pair(8, n_source=120, n_target=48,
                                          random_state=4)
        small = FeatureSeparator().fit(small_s, small_t)
        Xs, Xt = pair
        large = FeatureSeparator().fit(Xs, Xt)
        n_small = small.warm_state_.cache.n_entries
        n_large = large.warm_state_.cache.n_entries
        assert n_large > 4 * n_small > 0

        def warm_members(sep):
            return [n for n in sep.state_dict() if n.startswith("warm.")]

        assert len(warm_members(small)) == len(warm_members(large)) < 20

    def test_older_layout_version_is_refused(self, rng):
        state = self._mixed_cache(rng).state_dict()
        meta = json.loads(state["__meta__"].tobytes())
        meta["version"] = 1
        state["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                          dtype=np.uint8)
        assert state_version(state) == 1
        with pytest.raises(ValidationError, match="version 1"):
            CIStatCache.from_state(state)


class TestRediscover:
    def test_exact_mode_matches_cold(self, warm_setup):
        Xs, Xt, warm, cold = warm_setup
        disc = FNodeDiscovery()
        res = disc.rediscover(Xs, Xt, clone_warm(warm))
        np.testing.assert_array_equal(res.variant_indices, cold.variant_indices)
        assert res.coverage == 1.0
        assert disc.cache_stats_["mode"] == "exact"

    @pytest.mark.parametrize("shm", [False, True])
    def test_parallel_paths_match_cold(self, warm_setup, shm):
        Xs, Xt, warm, cold = warm_setup
        config = FSConfig(n_jobs=2, use_shared_memory=shm)
        res = FNodeDiscovery(config).rediscover(Xs, Xt, clone_warm(warm))
        np.testing.assert_array_equal(res.variant_indices, cold.variant_indices)

    def test_changed_source_falls_back_cold_and_invalidates(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        warm = clone_warm(warm)
        assert warm.cache.n_entries > 0
        Xs2 = Xs + 0.01  # same shape, different bytes
        cold2 = FNodeDiscovery().discover(Xs2, Xt)
        disc = FNodeDiscovery()
        res = disc.rediscover(Xs2, Xt, warm)
        assert disc.cache_stats_["mode"] == "cold"
        np.testing.assert_array_equal(res.variant_indices, cold2.variant_indices)
        np.testing.assert_array_equal(res.p_values, cold2.p_values)
        assert res.n_tests == cold2.n_tests  # full cold work was re-done
        assert warm.cache.n_entries == 0
        assert warm.cache.invalidations > 0

    def test_param_mismatch_matches_cold(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        # alpha differs from the producing run
        disc = FNodeDiscovery(FSConfig(alpha=0.05))
        cold = FNodeDiscovery(FSConfig(alpha=0.05)).discover(Xs, Xt)
        res = disc.rediscover(Xs, Xt, clone_warm(warm))
        np.testing.assert_array_equal(res.variant_indices, cold.variant_indices)
        assert disc.cache_stats_["mode"] == "exact"

    def test_budgeted_run_reports_coverage(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        disc = FNodeDiscovery(FSConfig(budget=2))
        res = disc.rediscover(Xs, Xt, clone_warm(warm))
        assert 0.0 <= res.coverage < 1.0

    def test_warm_state_accumulates_on_every_run(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        disc = FNodeDiscovery()
        res = disc.rediscover(Xs, Xt, clone_warm(warm))
        state = disc.warm_state_
        assert state is not None
        assert state.priors is res
        assert state.n_features == WIDTH
        assert state.source_fingerprint == matrix_fingerprint(Xs)
        assert state.cache is not None and state.cache.n_entries > 0
        assert state.params == disc._params_key()

    def test_mode_and_warm_validation(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        with pytest.raises(TypeError):  # one warm mode: nothing to select
            FNodeDiscovery().rediscover(Xs, Xt, clone_warm(warm), mode="exact")
        with pytest.raises(ValidationError):
            FNodeDiscovery().rediscover(Xs, Xt, None)

    def test_result_carries_marginal_p_values(self, warm_setup):
        Xs, Xt, _, cold = warm_setup
        assert cold.marginal_p_values is not None
        assert cold.marginal_p_values.shape == cold.p_values.shape
        # the best-p search can only raise p above the marginal
        assert np.all(cold.p_values >= cold.marginal_p_values - 1e-12)


class TestWarmMetrics:
    def test_fs_cache_counters_exported(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            FNodeDiscovery().rediscover(Xs, Xt, clone_warm(warm))
        finally:
            set_metrics(previous)
        names = registry.names()
        for kind in ("design", "beta", "warm"):
            assert f"fs.cache.hits_total{{cache={kind}}}" in names
            assert f"fs.cache.misses_total{{cache={kind}}}" in names
        assert "fs.cache.invalidated_total{cache=warm}" in names
        warm_hits = registry.counter("fs.cache.hits_total", cache="warm")
        assert warm_hits.value > 0  # the prior run's entries were reused

    def test_invalidations_counted(self, warm_setup):
        Xs, Xt, warm, _ = warm_setup
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            FNodeDiscovery().rediscover(Xs + 0.5, Xt, clone_warm(warm))
        finally:
            set_metrics(previous)
        dropped = registry.counter("fs.cache.invalidated_total", cache="warm")
        assert dropped.value > 0


class _FakeClock:
    """perf_counter advancing one second per call (deterministic deadlines)."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now


class TestIntraLevelDeadline:
    def _engine(self, rng):
        # feature 0 genuinely variant (mean shift), 40 independent noise
        # candidates: no conditioning subset ever separates it, so a full
        # size-1 level is 40 subsets = two DEADLINE_CHUNK batches
        Xs = rng.standard_normal((200, 41))
        Xt = rng.standard_normal((60, 41))
        Xt[:, 0] += 3.0
        return CIEngine(Xs, Xt)

    def test_deadline_breaks_inside_a_level(self, rng, monkeypatch):
        import repro.causal.engine as engine_mod

        engine = self._engine(rng)
        clock = _FakeClock()
        monkeypatch.setattr(engine_mod.time, "perf_counter", clock.perf_counter)
        _, _, n_tests, _, completed = engine.search_feature(
            0, tuple(range(1, 41)), 0.0, alpha=0.01, max_cond_size=1,
            deadline=2.5,
        )
        assert not completed
        assert 0 < n_tests <= DEADLINE_CHUNK  # stopped after one batch

    def test_no_deadline_still_runs_single_batch(self, rng):
        engine = self._engine(rng)
        best_p, _, n_tests, _, completed = engine.search_feature(
            0, tuple(range(1, 41)), 0.0, alpha=0.01, max_cond_size=1,
        )
        assert completed
        assert n_tests == 40  # nothing separates: the whole level runs
        assert best_p < 0.01


class TestSeparatorWarmMode:
    def test_invalid_warm_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FSConfig(warm_mode="fastest")

    def test_removed_confirm_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="'off' or 'exact'"):
            FSConfig(warm_mode="confirm")

    def test_off_mode_runs_cold_but_still_captures_state(self, warm_setup):
        Xs, Xt, warm, cold = warm_setup
        sep = FeatureSeparator(FSConfig(warm_mode="off"))
        sep.fit(Xs, Xt, warm=clone_warm(warm))
        np.testing.assert_array_equal(
            sep.result_.variant_indices, cold.variant_indices)
        assert sep.result_.n_tests == cold.n_tests
        assert sep.warm_state_ is not None

    def test_fit_with_warm_matches_cold(self, warm_setup):
        Xs, Xt, warm, cold = warm_setup
        sep = FeatureSeparator(FSConfig())
        sep.fit(Xs, Xt, warm=clone_warm(warm))
        np.testing.assert_array_equal(
            sep.result_.variant_indices, cold.variant_indices)
        assert sep.cache_stats_["mode"] == "exact"
        assert sep.cache_stats_["warm_hits"] > 0
