"""Adaptation loop: shot buffer, shadow policy/evaluator, controller hops."""

import json

import numpy as np
import pytest

from repro.adapt import (
    AdaptationConfig,
    AdaptationController,
    ShadowEvaluator,
    ShadowPolicy,
    ShotBuffer,
)
from repro.adapt.lineage import ArtifactLineage
from repro.datasets.wide import make_wide_pair
from repro.experiments.drift_schedule import (
    _scenario_pipeline,
    run_adapt_scenario,
)
from repro.utils.errors import ValidationError

WIDTH = 24
BATCH_ROWS = 64

#: the lifecycle tests exercise state transitions, not promotion judgement:
#: a candidate refit on a genuinely drifted domain *should* disagree with
#: the incumbent, so the policy accepts any bounded divergence
PERMISSIVE = ShadowPolicy(
    agreement_batches=1,
    max_disagreement=1.0,
    abort_disagreement=1.0,
    max_batches=16,
)


class TestShotBuffer:
    def test_accumulates_rows(self):
        buf = ShotBuffer(capacity=100)
        assert buf.add(np.zeros((30, 4))) == 30
        assert buf.add(np.ones((20, 4))) == 50
        assert buf.count == 50
        assert buf.matrix().shape == (50, 4)

    def test_overflow_drops_oldest_rows(self):
        buf = ShotBuffer(capacity=5)
        buf.add(np.full((4, 1), 1.0))
        buf.add(np.full((3, 1), 2.0))
        assert buf.count == 5
        # the head batch is trimmed, not the tail: most recent rows win
        np.testing.assert_array_equal(
            buf.matrix().ravel(), [1.0, 1.0, 2.0, 2.0, 2.0]
        )

    def test_oversized_batch_keeps_its_tail(self):
        buf = ShotBuffer(capacity=3)
        buf.add(np.arange(8.0).reshape(8, 1))
        np.testing.assert_array_equal(buf.matrix().ravel(), [5.0, 6.0, 7.0])

    def test_empty_matrix_raises(self):
        with pytest.raises(ValidationError, match="empty"):
            ShotBuffer().matrix()

    def test_clear(self):
        buf = ShotBuffer()
        buf.add(np.zeros((4, 2)))
        buf.clear()
        assert buf.count == 0

    def test_capacity_validated(self):
        with pytest.raises(ValidationError, match="capacity"):
            ShotBuffer(capacity=0)


class TestShadowPolicy:
    def test_defaults_valid(self):
        policy = ShadowPolicy()
        assert policy.agreement_batches >= 1
        assert policy.abort_disagreement >= policy.max_disagreement

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"agreement_batches": 0}, "agreement_batches"),
            ({"max_disagreement": -0.1}, "max_disagreement"),
            (
                {"max_disagreement": 0.4, "abort_disagreement": 0.1},
                "abort_disagreement",
            ),
            ({"max_batches": 0}, "max_batches"),
        ],
    )
    def test_invalid_rejected(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            ShadowPolicy(**kwargs)


class TestShadowEvaluator:
    def _proba(self, p):
        return np.array([[p, 1.0 - p]])

    def test_promotes_after_agreement_window(self):
        ev = ShadowEvaluator("t", ShadowPolicy(agreement_batches=3,
                                               max_disagreement=0.01))
        inc = self._proba(0.8)
        assert ev.observe(inc, self._proba(0.805)) is None
        assert ev.observe(inc, self._proba(0.795)) is None
        assert ev.observe(inc, self._proba(0.8)) == "promote"
        assert ev.verdict == "promote"

    def test_disagreement_resets_streak(self):
        ev = ShadowEvaluator("t", ShadowPolicy(agreement_batches=2,
                                               max_disagreement=0.01,
                                               abort_disagreement=0.4))
        inc = self._proba(0.8)
        assert ev.observe(inc, inc) is None
        assert ev.observe(inc, self._proba(0.7)) is None  # streak broken
        assert ev.agreement_streak == 0
        assert ev.observe(inc, inc) is None
        assert ev.observe(inc, inc) == "promote"

    def test_aborts_on_regression_guard(self):
        ev = ShadowEvaluator("t", ShadowPolicy(abort_disagreement=0.3))
        assert ev.observe(self._proba(0.9), self._proba(0.1)) == "abort"

    def test_aborts_on_max_batches(self):
        ev = ShadowEvaluator("t", ShadowPolicy(agreement_batches=3,
                                               max_disagreement=0.01,
                                               abort_disagreement=0.5,
                                               max_batches=2))
        inc = self._proba(0.8)
        assert ev.observe(inc, self._proba(0.7)) is None
        assert ev.observe(inc, self._proba(0.7)) == "abort"

    def test_verdict_is_sticky(self):
        ev = ShadowEvaluator("t", ShadowPolicy(agreement_batches=1,
                                               max_disagreement=0.1))
        inc = self._proba(0.8)
        assert ev.observe(inc, inc) == "promote"
        # a later wildly-divergent batch cannot overturn the decision
        assert ev.observe(inc, self._proba(0.0)) == "promote"
        assert ev.batches == 1

    def test_shape_mismatch_raises(self):
        ev = ShadowEvaluator("t")
        with pytest.raises(ValidationError, match="shapes differ"):
            ev.observe(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_stats_snapshot(self):
        ev = ShadowEvaluator("t", ShadowPolicy(agreement_batches=5,
                                               max_disagreement=0.2))
        ev.observe(self._proba(0.8), self._proba(0.75))
        stats = ev.stats()
        assert stats["batches"] == 1
        assert stats["rows"] == 1
        assert stats["max_abs_diff"] == pytest.approx(0.05)
        assert stats["verdict"] is None


def _fit_pipeline(X_source, X_prior, random_state=0):
    y = (X_source[:, 0] > np.median(X_source[:, 0])).astype(np.int64)
    return _scenario_pipeline(1, 2, random_state).fit(X_source, y, X_prior)


def _adapt_config(**overrides):
    defaults = dict(
        min_shots=64,
        shot_capacity=256,
        drift_options={"min_rows": 192, "window_rows": 256, "n_bins": 8,
                       "psi_threshold": 1.5, "name": "adapt-test"},
        policy=PERMISSIVE,
        subscribe_alarms=False,
    )
    defaults.update(overrides)
    return AdaptationConfig(**defaults)


def _batches(pool, n=24):
    return [pool[i * BATCH_ROWS:(i + 1) * BATCH_ROWS] for i in range(n)]


class TestControllerLifecycle:
    def test_requires_training_cache(self, tmp_path):
        from repro.core.artifacts import load_artifact, save_artifact

        src, prior = make_wide_pair(WIDTH, n_target=96, random_state=5)
        pipeline = _fit_pipeline(src, prior)
        # an artifact round trip drops the training cache: the controller
        # must refuse a pipeline it cannot refit
        reloaded = load_artifact(
            save_artifact(pipeline, tmp_path / "p.npz")
        ).estimator
        with pytest.raises(ValidationError, match="training"):
            AdaptationController(
                reloaded, ArtifactLineage(tmp_path / "store"), "t"
            )

    def test_single_hop_reaches_promoted(self, tmp_path):
        src, prior = make_wide_pair(WIDTH, n_target=96, random_state=5)
        pipeline = _fit_pipeline(src, prior)
        pool_rows = 24 * BATCH_ROWS
        pre_pool, post_pool = make_wide_pair(
            WIDTH, n_source=pool_rows, n_target=pool_rows, random_state=7
        )
        lineage = ArtifactLineage(tmp_path / "store")
        with AdaptationController(
            pipeline, lineage, "t", _adapt_config()
        ) as controller:
            assert controller.state == "WATCHING"
            assert lineage.active("t").generation == 0
            for batch in _batches(pre_pool, n=4):
                assert controller.observe(batch) == "WATCHING"
            final = None
            for batch in _batches(post_pool):
                final = controller.observe(batch)
                if final == "PROMOTED":
                    break
            assert final == "PROMOTED"
            assert controller.generation == 1
            assert controller.alarm_batch is not None
            assert controller.timings["rediscover_warm"] is True
            assert controller.timings["alarm_to_promotion_seconds"] > 0
            diff = controller.variant_diff
            assert sorted(diff) == ["added", "kept", "removed"]
            seen = [e["state"] for e in controller.timeline]
            assert seen[:4] == ["ACCUMULATING", "REDISCOVERING",
                               "REFITTING", "SHADOW"]
        states = {v.generation: v.lifecycle_state for v in lineage.history("t")}
        assert states == {0: "retired", 1: "active"}

    def test_two_hop_target1_to_target2(self, tmp_path):
        """The paper's Target_1 -> Target_2 regime: two chained adaptations.

        After promoting the Target_1 adapter, the drift tracker re-references
        on the accumulated Target_1 window, so the second domain is detected
        *relative to the first*; the second re-discovery warm-starts from the
        warm state the first hop persisted, chaining generations 0 -> 1 -> 2.
        """
        src, prior = make_wide_pair(WIDTH, n_target=96, random_state=5)
        pipeline = _fit_pipeline(src, prior)
        pool_rows = 24 * BATCH_ROWS
        pre_pool, t1_pool = make_wide_pair(
            WIDTH, n_source=pool_rows, n_target=pool_rows, random_state=7
        )
        # Target_2 doubles the mechanism shift, so it is drifted relative
        # to Target_1 by the same margin Target_1 was relative to source
        _, t2_pool = make_wide_pair(
            WIDTH, n_source=8, n_target=pool_rows, drift=2.4, random_state=8
        )
        lineage = ArtifactLineage(tmp_path / "store")
        with AdaptationController(
            pipeline, lineage, "t", _adapt_config()
        ) as controller:
            for batch in _batches(pre_pool, n=4):
                controller.observe(batch)

            hop1 = None
            for batch in _batches(t1_pool):
                if controller.observe(batch) == "PROMOTED":
                    hop1 = controller.batches
                    break
            assert hop1 is not None, "first hop never promoted"
            assert controller.generation == 1
            hop1_alarm = controller.alarm_batch
            assert controller.timings["rediscover_warm"] is True

            hop2 = None
            for batch in _batches(t2_pool):
                if controller.observe(batch) == "PROMOTED":
                    hop2 = controller.batches
                    break
            assert hop2 is not None, "second hop never promoted"
            assert controller.generation == 2
            # a fresh alarm fired against the re-referenced tracker
            assert controller.alarm_batch > hop1_alarm
            # the second re-discovery warm-started from hop 1's warm state
            assert controller.timings["rediscover_warm"] is True
            stats = pipeline.separator_.cache_stats_
            assert stats["warmed"] is True
            assert stats["warm_hits"] > 0

        history = [(v.generation, v.lifecycle_state)
                   for v in lineage.history("t")]
        assert history == [(0, "retired"), (1, "retired"), (2, "active")]
        # lineage is a chain: each generation's parent is its predecessor
        versions = lineage.history("t")
        assert versions[1].parent_hash == versions[0].content_hash
        assert versions[2].parent_hash == versions[1].content_hash

    def test_manual_promotion_mode_leaves_candidate_in_shadow(self, tmp_path):
        src, prior = make_wide_pair(WIDTH, n_target=96, random_state=5)
        pipeline = _fit_pipeline(src, prior)
        pool_rows = 24 * BATCH_ROWS
        _, post_pool = make_wide_pair(
            WIDTH, n_source=pool_rows, n_target=pool_rows, random_state=7
        )
        lineage = ArtifactLineage(tmp_path / "store")
        with AdaptationController(
            pipeline, lineage, "t", _adapt_config(auto_promote=False)
        ) as controller:
            state = None
            for batch in _batches(post_pool):
                state = controller.observe(batch)
                # a winning verdict re-arms to WATCHING but keeps the
                # candidate parked for the manual promote
                if state == "WATCHING" and controller.status()["candidate"]:
                    break
            assert state == "WATCHING"
            candidate = controller.status()["candidate"]
            assert candidate is not None
        # the winning candidate waits for `repro adapt promote`
        assert lineage.active("t").generation == 0
        assert lineage.history("t")[-1].lifecycle_state == "shadow"
        promoted = lineage.promote("t", candidate)
        assert promoted.generation == 1
        assert lineage.active("t").content_hash == candidate


def _v1_warm_state_dict(warm, *, include_residuals=False):
    """The warm-state layout of version 1: one npz member per cache entry
    and the entry keys as JSON lists in ``__meta__``."""
    def meta(obj):
        return np.frombuffer(json.dumps(obj, sort_keys=True).encode(),
                             dtype=np.uint8)

    priors, cache = warm.priors, warm.cache
    marginal = priors.marginal_p_values
    state = {
        "__meta__": meta({
            "version": 1,
            "source_fingerprint": warm.source_fingerprint,
            "n_features": int(warm.n_features),
            "params": warm.params,
            "parent_sets": [list(p) for p in priors.parent_sets],
            "n_tests": int(priors.n_tests),
            "coverage": float(priors.coverage),
            "has_cache": True,
            "has_marginal": marginal is not None,
        }),
        "variant_indices": np.asarray(priors.variant_indices),
        "invariant_indices": np.asarray(priors.invariant_indices),
        "p_values": np.asarray(priors.p_values),
    }
    if marginal is not None:
        state["marginal_p_values"] = np.asarray(marginal)
    factor_cols = sorted(cache.factors)
    beta_keys = sorted((c, j) for c, per in cache.betas.items() for j in per)
    state["cache.__meta__"] = meta({
        "version": 1,
        "ridge": cache.ridge,
        "stats_dtype": cache.stats_dtype,
        "source_fingerprint": cache.source_fingerprint,
        "invalidations": int(cache.invalidations),
        "factor_cols": [list(c) for c in factor_cols],
        "factor_lower": [bool(cache.factors[c][1]) for c in factor_cols],
        "beta_keys": [[list(c), int(j)] for c, j in beta_keys],
        "residual_keys": [],
    })
    for i, cols in enumerate(factor_cols):
        state[f"cache.factor.{i}"] = cache.factors[cols][0]
    for i, (cols, j) in enumerate(beta_keys):
        state[f"cache.beta.{i}"] = cache.betas[cols][j]
    return state


class TestOlderWarmStateBundle:
    def test_loads_scores_identically_and_rediscovers_cold(
            self, tmp_path, monkeypatch):
        from repro.causal.warm import WarmState
        from repro.core.artifacts import load_artifact, save_artifact

        src, prior = make_wide_pair(WIDTH, n_target=96, random_state=5)
        pipeline = _fit_pipeline(src, prior)
        current = save_artifact(pipeline, tmp_path / "v2.npz")
        with monkeypatch.context() as patch:
            patch.setattr(WarmState, "state_dict", _v1_warm_state_dict)
            older = save_artifact(pipeline, tmp_path / "v1.npz")
        with np.load(older) as data:
            assert "separator_.warm.cache.factor.0" in data.files

        loaded = load_artifact(older).estimator
        assert loaded.separator_.warm_state_ is None
        reference = load_artifact(current).estimator
        assert reference.separator_.warm_state_ is not None
        X = prior[:32]
        np.testing.assert_array_equal(loaded.predict_proba(X),
                                      reference.predict_proba(X))

        # a restored pipeline has no training cache; hand it the one the
        # fitted pipeline kept so the controller can run a hop on it
        loaded._cached_source = pipeline._fit_cache
        loaded._cache_released = False
        pool_rows = 24 * BATCH_ROWS
        pre_pool, post_pool = make_wide_pair(
            WIDTH, n_source=pool_rows, n_target=pool_rows, random_state=7
        )
        with AdaptationController(
            loaded, ArtifactLineage(tmp_path / "store"), "t", _adapt_config()
        ) as controller:
            for batch in _batches(pre_pool, n=4) + _batches(post_pool):
                if controller.observe(batch) == "PROMOTED":
                    break
            assert controller.state == "PROMOTED"
            assert controller.timings["rediscover_warm"] is False
        assert loaded.separator_.warm_state_ is not None


class TestScenarioDriver:
    def test_abrupt_scenario_end_to_end(self):
        result = run_adapt_scenario(
            WIDTH, n_batches=24, onset_batch=5, min_shots=64,
            cold_rounds=1, random_state=0,
        )
        assert result["promoted"] is True
        assert result["final_state"] == "PROMOTED"
        assert result["alarm_batch"] >= result["onset_batch"]
        assert result["detection_latency_batches"] >= 0
        assert result["shots_to_refit"] >= 64
        assert result["rediscover_warm"] is True
        assert result["warm_cache_stats"]["mode"] == "exact"
        assert result["rediscover_warm_seconds"] > 0
        assert result["rediscover_cold_seconds"] > 0
        assert result["warm_speedup"] > 0
        assert result["variant_equivalent"] is True
        assert result["alarm_to_promotion_seconds"] > 0
        assert result["generation"] >= 1
        assert result["lineage_history"] == [(0, "retired"), (1, "active")]

    def test_warm_variant_set_equals_cold_at_width_111_seed_7(self):
        # reusing prior marginals far above alpha dropped feature 110 here
        result = run_adapt_scenario(111, random_state=7)
        assert result["rediscover_warm"] is True
        assert result["warm_cache_stats"]["mode"] == "exact"
        assert result["variant_equivalent"] is True

    def test_gradual_schedule_shapes(self):
        from repro.experiments.drift_schedule import make_drift_schedule

        data = make_drift_schedule(
            16, schedule="gradual", n_batches=8, batch_rows=32,
            onset_batch=4, ramp_batches=2, n_source=64, n_prior=16,
        )
        assert len(data["batches"]) == 8
        assert all(b.shape == (32, 16) for b in data["batches"])

    def test_bad_schedule_rejected(self):
        from repro.experiments.drift_schedule import make_drift_schedule

        with pytest.raises(ValidationError, match="schedule"):
            make_drift_schedule(16, schedule="sudden")
        with pytest.raises(ValidationError, match="onset_batch"):
            make_drift_schedule(16, onset_batch=0)
