"""End-to-end adaptation through the serving daemon: shadow, promote, rollback.

The ISSUE's acceptance path: a candidate is shadow-scored *inside* the
daemon on live traffic and promoted by a pure lineage pointer flip — no
daemon restart — and a one-command rollback restores the prior plan so
that replayed traffic scores bit-identically (``max_abs_diff == 0.0``).
"""

import json
import time
import urllib.request

import numpy as np
import pytest

from repro.adapt import (
    AdaptationConfig,
    AdaptationController,
    ArtifactLineage,
    ShadowPolicy,
)
from repro.serve import DaemonConfig, ServeDaemon

#: lifecycle-mechanics policy: any bounded divergence promotes after one
#: shadow batch (a legitimate refit is *supposed* to disagree)
PERMISSIVE = ShadowPolicy(
    agreement_batches=1,
    max_disagreement=1.0,
    abort_disagreement=1.0,
    max_batches=8,
)


def _wait_for_verdict(daemon, tenant, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        verdict = daemon.shadow_verdict(tenant)
        if verdict is not None:
            return verdict
        time.sleep(0.01)
    raise AssertionError("shadow verdict never arrived")


@pytest.fixture(scope="module")
def two_generations(tiny_5gc):
    """Two fitted pipelines (distinct seeds => distinct plans) + traffic."""
    from repro.core import FSGANPipeline, ReconstructionConfig
    from repro.ml import MLPClassifier

    X_few, _, X_test, _ = tiny_5gc.few_shot_split(5, random_state=0)
    pipes = [
        FSGANPipeline(
            lambda: MLPClassifier(hidden_sizes=(16,), epochs=8,
                                  random_state=seed),
            reconstruction_config=ReconstructionConfig(
                strategy="gan", epochs=2, noise_dim=2, hidden_size=8),
            random_state=seed,
        ).fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
        for seed in (0, 1)
    ]
    return pipes[0], pipes[1], X_test[:64]


@pytest.fixture()
def seeded_lineage(tmp_path, two_generations):
    """A lineage root with gen 0 active and gen 1 published as candidate."""
    incumbent, candidate, _ = two_generations
    lineage = ArtifactLineage(tmp_path / "store")
    lineage.publish("tenant", incumbent, parent=None, state="active")
    lineage.publish("tenant", candidate)
    return lineage


def _config(lineage, **overrides):
    defaults = dict(root=str(lineage.root), port=None, micro_batch_rows=64,
                    cache_size=8)
    defaults.update(overrides)
    return DaemonConfig(**defaults)


class TestDaemonShadowLifecycle:
    def test_shadow_promote_rollback_bit_identical(self, seeded_lineage,
                                                   two_generations):
        _, _, X = two_generations
        with ServeDaemon(_config(seeded_lineage)) as daemon:
            # first-ever pass on gen 0: the reference replay answers
            reference = daemon.score("tenant", X)

            daemon.start_shadow("tenant", policy=PERMISSIVE)
            daemon.score("tenant", X)  # live traffic drives the comparison
            assert _wait_for_verdict(daemon, "tenant") == "promote"

            # pointer flipped, picked up by the stat-triggered hot reload:
            # the daemon was never restarted
            assert daemon.running
            assert seeded_lineage.active("tenant").generation == 1
            promoted_scores = daemon.score("tenant", X)
            assert not np.array_equal(promoted_scores, reference)

            # one-command rollback: the restored bundle's hash differs from
            # the demoted one's, so the plan cache resets the noise stream
            # to the artifact's saved state — replayed traffic is bit-exact
            restored = daemon.rollback("tenant")
            assert restored.generation == 0
            replayed = daemon.score("tenant", X)
            max_abs_diff = float(np.max(np.abs(replayed - reference)))
            assert max_abs_diff == 0.0
        history = {v.generation: v.lifecycle_state
                   for v in seeded_lineage.history("tenant")}
        assert history == {0: "active", 1: "retired"}

    def test_abort_retires_candidate_and_keeps_incumbent(self, seeded_lineage,
                                                         two_generations):
        _, _, X = two_generations
        strict = ShadowPolicy(agreement_batches=1, max_disagreement=1e-12,
                              abort_disagreement=1e-9, max_batches=8)
        with ServeDaemon(_config(seeded_lineage)) as daemon:
            reference = daemon.score("tenant", X)
            daemon.start_shadow("tenant", policy=strict)
            daemon.score("tenant", X)
            assert _wait_for_verdict(daemon, "tenant") == "abort"
            assert seeded_lineage.active("tenant").generation == 0
            assert (seeded_lineage.history("tenant")[-1].lifecycle_state
                    == "retired")
            # the incumbent's stream was never disturbed by the shadow
            follow_up = daemon.score("tenant", X)
            assert follow_up.shape == reference.shape

    def test_http_admin_promote_and_rollback(self, seeded_lineage,
                                             two_generations):
        _, _, X = two_generations
        with ServeDaemon(_config(seeded_lineage, port=0)) as daemon:
            daemon.score("tenant", X[:8])

            def post(path):
                request = urllib.request.Request(
                    daemon.url + path, data=b"", method="POST")
                with urllib.request.urlopen(request, timeout=10) as resp:
                    return json.loads(resp.read())

            doc = post("/v1/admin/promote/tenant")
            assert doc["action"] == "promote"
            assert doc["generation"] == 1
            assert seeded_lineage.active("tenant").generation == 1

            doc = post("/v1/admin/rollback/tenant")
            assert doc["action"] == "rollback"
            assert doc["generation"] == 0
            assert seeded_lineage.active("tenant").generation == 0

            # errors map to structured JSON, not tracebacks: the demoted
            # version is retired, so no candidate is left to promote -> 409
            with pytest.raises(urllib.error.HTTPError) as err:
                post("/v1/admin/promote/tenant")
            assert err.value.code == 409
            assert "no candidate" in json.loads(err.value.read())["error"]


    def test_hot_reload_after_promote_is_timed(self, seeded_lineage,
                                               two_generations):
        _, _, X = two_generations
        with ServeDaemon(_config(seeded_lineage, port=0)) as daemon:
            daemon.score("tenant", X[:8])  # first load: a miss
            assert daemon.stats()["cache"]["reload_seconds_total"] == 0.0
            daemon.promote("tenant")
            daemon.score("tenant", X[:8])  # pointer flipped: a hot reload
            cache = daemon.stats()["cache"]
            with urllib.request.urlopen(daemon.url + "/metrics",
                                        timeout=10) as resp:
                body = resp.read()
        assert cache["reloads"] == 1
        assert cache["reload_seconds_last"] > 0
        assert cache["reload_seconds_total"] == cache["reload_seconds_last"]
        assert b"daemon_cache_reload_seconds_count 1\n" in body


class TestControllerDrivesDaemon:
    def test_full_loop_through_daemon_without_restart(self, tmp_path):
        """Drift -> detect -> warm rediscover -> refit -> daemon shadow ->
        promote, with the daemon serving (and shadow-scoring) the traffic."""
        from repro.datasets.wide import make_wide_pair
        from repro.experiments.drift_schedule import _scenario_pipeline

        width, batch_rows = 24, 64
        src, prior = make_wide_pair(width, n_target=96, random_state=5)
        y = (src[:, 0] > np.median(src[:, 0])).astype(np.int64)
        pipeline = _scenario_pipeline(1, 2, 0).fit(src, y, prior)
        pool_rows = 24 * batch_rows
        pre_pool, post_pool = make_wide_pair(
            width, n_source=pool_rows, n_target=pool_rows, random_state=7)

        lineage = ArtifactLineage(tmp_path / "store")
        config = AdaptationConfig(
            min_shots=64,
            drift_options={"min_rows": 192, "window_rows": 256, "n_bins": 8,
                           "psi_threshold": 1.5, "name": "adapt-daemon"},
            policy=PERMISSIVE,
            subscribe_alarms=False,
        )
        with ServeDaemon(_config(lineage)) as daemon:
            with AdaptationController(
                pipeline, lineage, "tenant", config, daemon=daemon
            ) as controller:
                batches = [pre_pool[i * batch_rows:(i + 1) * batch_rows]
                           for i in range(4)]
                batches += [post_pool[i * batch_rows:(i + 1) * batch_rows]
                            for i in range(24)]
                state = None
                for batch in batches:
                    daemon.score("tenant", batch)   # serve path (shadow too)
                    state = controller.observe(batch)  # detection + lifecycle
                    if state == "PROMOTED":
                        break
                assert state == "PROMOTED"
                assert daemon.running  # never restarted
                assert controller.generation == 1
                assert controller.timings["rediscover_warm"] is True
        history = {v.generation: v.lifecycle_state
                   for v in lineage.history("tenant")}
        assert history == {0: "retired", 1: "active"}
