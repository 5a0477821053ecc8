"""Micro-batch bit-identity: the daemon's load-bearing contract.

Coalesced mixed-size micro-batches must score bit-identically to
per-request execution — across coalescing patterns, tenants, draw counts
and cache evict/reload mid-stream.
"""

import os
import shutil
import threading

import numpy as np
import pytest

from repro.core import FSGANPipeline, ReconstructionConfig
from repro.core.artifacts import save_artifact
from repro.ml import MLPClassifier
from repro.serve import MicroBatcher, PlanCache
from repro.utils.errors import ValidationError

CAP = 64


def _segments(X_test, sizes):
    cuts = np.cumsum([0] + list(sizes))
    return [X_test[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def _fresh_plan(root, name, n_draws=1):
    cache = PlanCache(root, capacity=8, n_draws=n_draws, micro_batch_rows=CAP)
    return cache.get(name).plan


class TestPaddedExecutorEquivalence:
    """Padded execution (``plan.execute`` at a fixed capacity)."""

    @pytest.mark.parametrize("pattern", [
        [(5, 1, 14, 3, 9)],                  # one coalesced batch
        [(5, 1, 14), (3, 9)],                # two batches
        [(5,), (1,), (14,), (3,), (9,)],     # fully per-request
        [(5, 1), (14,), (3, 9)],             # mixed
    ])
    def test_patterns_agree(self, tenant_root, pattern):
        root, names, X_test = tenant_root
        sizes = [n for group in pattern for n in group]
        segments = _segments(X_test, sizes)
        reference = None
        plan = _fresh_plan(root, names[0])
        got, i = [], 0
        for group in pattern:
            batch = segments[i:i + len(group)]
            got.extend(plan.execute(batch, capacity=CAP))
            i += len(group)
        other = _fresh_plan(root, names[0])
        reference = [other.execute([s], capacity=CAP)[0]
                     for s in segments]
        for a, b in zip(got, reference):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("strategy,n_draws", [
        ("gan", 3), ("vae", 2), ("autoencoder", 1), ("nocond", 2),
    ])
    def test_strategies_and_draws(self, tiny_5gc, tmp_path, strategy, n_draws):
        X_few, _, X_test, _ = tiny_5gc.few_shot_split(5, random_state=0)
        pipe = FSGANPipeline(
            lambda: MLPClassifier(hidden_sizes=(16,), epochs=8, random_state=0),
            reconstruction_config=ReconstructionConfig(
                strategy=strategy, epochs=2, noise_dim=2, hidden_size=8),
            random_state=0,
        ).fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
        save_artifact(pipe, str(tmp_path / "t.npz"))
        segments = _segments(X_test, (7, 1, 12, 2))
        plan1 = _fresh_plan(tmp_path, "t", n_draws)
        coalesced = plan1.execute(segments, capacity=CAP)
        plan2 = _fresh_plan(tmp_path, "t", n_draws)
        for got, seg in zip(coalesced, segments):
            np.testing.assert_array_equal(
                got, plan2.execute([seg], capacity=CAP)[0])

    def test_single_row_requests(self, tenant_root):
        root, names, X_test = tenant_root
        segments = _segments(X_test, [1] * 6)
        plan1 = _fresh_plan(root, names[0])
        coalesced = plan1.execute(segments, capacity=CAP)
        plan2 = _fresh_plan(root, names[0])
        for got, seg in zip(coalesced, segments):
            np.testing.assert_array_equal(
                got, plan2.execute([seg], capacity=CAP)[0])


class TestPaddedExecutorValidation:
    """The plan's request validator at a fixed capacity."""

    def test_rejects_wrong_width(self, tenant_root):
        root, names, X_test = tenant_root
        plan = _fresh_plan(root, names[0])
        with pytest.raises(ValidationError, match="features"):
            plan.check_request(X_test[:3, :-1], capacity=CAP)

    def test_rejects_oversized_request(self, tenant_root):
        root, names, X_test = tenant_root
        plan = _fresh_plan(root, names[0])
        big = np.repeat(X_test, 5, axis=0)[:CAP + 1]
        with pytest.raises(ValidationError, match="capacity"):
            plan.check_request(big, capacity=CAP)

    def test_rejects_overfull_batch(self, tenant_root):
        root, names, X_test = tenant_root
        plan = _fresh_plan(root, names[0])
        seg = plan.check_request(X_test[:CAP], capacity=CAP)
        with pytest.raises(ValidationError, match="capacity"):
            plan.execute([seg, seg], capacity=CAP)

    def test_one_dim_request_becomes_row(self, tenant_root):
        root, names, X_test = tenant_root
        plan = _fresh_plan(root, names[0])
        row = plan.check_request(X_test[0], capacity=CAP)
        assert row.shape == (1, X_test.shape[1])


class TestNonFiniteRequests:
    """A NaN or infinite request fails alone at submit, before its seq."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejected_before_it_can_join_a_batch(self, tenant_root, value):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache)
        valid = batcher.submit(names[0], X_test[:3])
        bad = X_test[:1].copy()
        bad[0, 0] = value
        with pytest.raises(ValidationError, match="NaN or infinite"):
            batcher.submit(names[0], bad)  # queued next to ``valid``
        batcher.start()
        try:
            got = valid.result(10.0)
            after = batcher.submit(names[0], X_test[3:5])
            got_after = after.result(10.0)
        finally:
            batcher.stop()
        assert (valid.seq, after.seq) == (0, 1)
        reference = _fresh_plan(root, names[0])
        np.testing.assert_array_equal(
            got, reference.execute([X_test[:3]], capacity=CAP)[0])
        np.testing.assert_array_equal(
            got_after, reference.execute([X_test[3:5]], capacity=CAP)[0])
        # the rejected row drew no noise: the streams stay in step
        assert cache.get(names[0]).plan.rng_draws == reference.rng_draws


class TestEvictReloadMidStream:
    def test_eviction_continues_rng_stream(self, tenant_root, tmp_path):
        """Evict-then-reload mid-stream fast-forwards to the same position.

        A dropped entry's noise-stream position is remembered per tenant;
        reloading the unchanged bundle resumes the stream exactly where it
        left off, so evict-reload is bit-identical to never evicting.
        """
        root, names, X_test = tenant_root
        for name in names[:2]:
            shutil.copy(root / f"{name}.npz", tmp_path / f"{name}.npz")
        X = X_test[:6]

        # reference: one uninterrupted cache scoring three passes
        ref_cache = PlanCache(tmp_path, capacity=8, micro_batch_rows=CAP)
        plan = ref_cache.get(names[0]).plan
        reference = [plan.execute([X], capacity=CAP)[0] for _ in range(3)]
        assert np.any(reference[0] != reference[1])  # RNG moves on

        # capacity-1 cache: tenant 0 is evicted between pass 2 and pass 3
        cache = PlanCache(tmp_path, capacity=1, micro_batch_rows=CAP)
        plan = cache.get(names[0]).plan
        got = [plan.execute([X], capacity=CAP)[0] for _ in range(2)]
        cache.get(names[1])  # capacity-1 cache: evicts tenant 0
        assert cache.loaded_tenants() == [names[1]]
        plan = cache.get(names[0]).plan  # reload fast-forwards the stream
        assert cache.misses == 3
        assert cache.rng_fast_forwards == 1
        got.append(plan.execute([X], capacity=CAP)[0])
        for a, b in zip(got, reference):
            np.testing.assert_array_equal(a, b)

    def test_batcher_continues_across_reload(self, tenant_root, tmp_path):
        """The reloaded stream continues — no replay of earlier draws."""
        root, names, X_test = tenant_root
        for name in names[:2]:
            shutil.copy(root / f"{name}.npz", tmp_path / f"{name}.npz")

        ref_cache = PlanCache(tmp_path, capacity=8, micro_batch_rows=CAP)
        with MicroBatcher(ref_cache) as batcher:
            ref_a = batcher.score(names[0], X_test[:4])
            ref_b = batcher.score(names[0], X_test[:4])

        cache = PlanCache(tmp_path, capacity=1, micro_batch_rows=CAP)
        with MicroBatcher(cache) as batcher:
            a = batcher.score(names[0], X_test[:4])
            batcher.score(names[1], X_test[:2])   # evicts tenant 0
            b = batcher.score(names[0], X_test[:4])  # reload + fast-forward
        np.testing.assert_array_equal(a, ref_a)
        np.testing.assert_array_equal(b, ref_b)

    def test_new_artifact_version_resets_stream(self, tenant_root, tmp_path):
        """A changed content hash starts the new artifact's stream fresh."""
        root, names, X_test = tenant_root
        shutil.copy(root / f"{names[0]}.npz", tmp_path / f"{names[0]}.npz")
        X = X_test[:6]

        cache = PlanCache(tmp_path, capacity=8, micro_batch_rows=CAP)
        plan = cache.get(names[0]).plan
        first = plan.execute([X], capacity=CAP)[0]
        plan.execute([X], capacity=CAP)  # advance the stream
        cache.invalidate(names[0])  # position remembered

        # swap in a different bundle under the same tenant name
        shutil.copy(root / f"{names[1]}.npz", tmp_path / f"{names[0]}.npz")
        plan = cache.get(names[0]).plan
        swapped = plan.execute([X], capacity=CAP)[0]
        assert cache.rng_fast_forwards == 0  # hash changed: no resume

        # and rolling back to the original bundle replays from its start
        shutil.copy(root / f"{names[0]}.npz", tmp_path / f"{names[0]}.npz")
        plan = cache.get(names[0]).plan
        rolled_back = plan.execute([X], capacity=CAP)[0]
        assert np.any(first != swapped)
        np.testing.assert_array_equal(rolled_back, first)


class TestMicroBatcher:
    def test_coalesces_queued_requests(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache)
        # enqueue before starting the scorer so the first batch coalesces
        pendings = [batcher.submit(names[0], X_test[i:i + 2])
                    for i in range(0, 12, 2)]
        batcher.start()
        results = [p.result(10.0) for p in pendings]
        batcher.stop()
        assert batcher.batches < len(pendings)
        fresh = _fresh_plan(root, names[0])
        for pending, got in zip(pendings, results):
            np.testing.assert_array_equal(
                got, fresh.execute([pending.X], capacity=CAP)[0])

    def test_seq_is_per_tenant_admission_order(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        with MicroBatcher(cache) as batcher:
            a0 = batcher.submit(names[0], X_test[:1])
            b0 = batcher.submit(names[1], X_test[:1])
            a1 = batcher.submit(names[0], X_test[:1])
            for p in (a0, b0, a1):
                p.result(10.0)
        assert (a0.seq, a1.seq, b0.seq) == (0, 1, 0)

    def test_concurrent_submitters_stay_bit_identical(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        results: dict[tuple, np.ndarray] = {}
        lock = threading.Lock()

        def client(tenant, offsets):
            for off in offsets:
                X = X_test[off:off + 1 + off % 4]
                pending = batcher.submit(tenant, X)
                proba = pending.result(10.0)
                with lock:
                    results[(tenant, pending.seq)] = (X, proba)

        with MicroBatcher(cache) as batcher:
            threads = [
                threading.Thread(target=client,
                                 args=(names[t % 2], range(8 * w, 8 * w + 8)))
                for w, t in enumerate(range(4))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # replay every tenant's stream per-request in seq order
        for tenant in names[:2]:
            plan = _fresh_plan(root, tenant)
            items = sorted((seq, X, proba)
                           for (who, seq), (X, proba) in results.items()
                           if who == tenant)
            assert [seq for seq, _, _ in items] == list(range(len(items)))
            for _seq, X, proba in items:
                np.testing.assert_array_equal(
                    proba, plan.execute([X], capacity=CAP)[0])

    def test_submit_after_stop_raises(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache).start()
        batcher.stop()
        with pytest.raises(ValidationError, match="stopped"):
            batcher.submit(names[0], X_test[:1])

    def test_stop_drains_queued_work(self, tenant_root):
        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache)
        pendings = [batcher.submit(names[0], X_test[i:i + 1])
                    for i in range(10)]
        batcher.start()
        batcher.stop()
        for p in pendings:
            assert p.result(0.0) is not None


#: every series a fixed request sequence leaves in the registry: counter
#: and gauge values, histogram observation counts
_SEQUENCE_METRICS = {
    "daemon.batch_requests": 4,
    "daemon.batch_rows": 4,
    "daemon.batch_seconds": 4,
    "daemon.batches_total": 4,
    "daemon.cache_evictions_total": 2,
    "daemon.cache_hits_total": 6,
    "daemon.cache_misses_total": 4,
    "daemon.padded_rows_total": 64,
    "daemon.queue_depth": 0.0,
    "daemon.queue_seconds": 5,
    "daemon.request_seconds": 5,
    "daemon.requests_total{tenant=tenant-00}": 3,
    "daemon.requests_total{tenant=tenant-01}": 1,
    "daemon.requests_total{tenant=tenant-02}": 1,
    "daemon.rng_fast_forwards_total": 1,
    "daemon.rows_total{tenant=tenant-00}": 13,
    "daemon.rows_total{tenant=tenant-01}": 1,
    "daemon.rows_total{tenant=tenant-02}": 4,
    "daemon.tenants_loaded": 2.0,
    "serve.latency": 4,
    "serve.stage_seconds{stage=generate}": 4,
    "serve.stage_seconds{stage=merge}": 4,
    "serve.stage_seconds{stage=predict}": 4,
    "serve.stage_seconds{stage=scale}": 4,
    "serve.stage_seconds{stage=split}": 4,
    "serve_batch_seconds": 4,
    "serve_batches": 4,
    "serve_rows": 18,
}


def _series(registry) -> dict:
    out = {}
    for family, kind, series in registry.collect():
        for labels, metric in series:
            key = family + "".join(f"{{{k}={v}}}"
                                   for k, v in sorted(labels.items()))
            out[key] = metric.count if kind == "histogram" else metric.value
    return out


class TestServeMetrics:
    def _run_sequence(self, root, names, X_test):
        cache = PlanCache(root, capacity=2, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache)
        for tenant, lo, hi in ((0, 0, 2), (0, 2, 5), (1, 5, 6)):
            batcher.submit(names[tenant], X_test[lo:hi])
        batcher.drain()
        batcher.submit(names[2], X_test[:4])  # evicts tenant 0
        batcher.drain()
        batcher.submit(names[0], X_test[:8])  # reload + fast-forward
        batcher.drain()
        bad = X_test[:2].copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            batcher.submit(names[0], bad)

    def test_fixed_sequence_families_and_counts(self, tenant_root):
        from repro.obs.exporters.prometheus import render_prometheus
        from repro.obs.metrics import MetricsRegistry, set_metrics

        root, names, X_test = tenant_root
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            self._run_sequence(root, names, X_test)
        finally:
            set_metrics(previous)
        assert _series(registry) == _SEQUENCE_METRICS
        families = [line.split()[2]
                    for line in render_prometheus(registry).splitlines()
                    if line.startswith("# TYPE")]
        assert sorted(families) == sorted(
            {key.split("{")[0].replace(".", "_")
             for key in _SEQUENCE_METRICS})

    def test_serving_follows_a_registry_swap(self, tenant_root):
        from repro.obs.metrics import MetricsRegistry, set_metrics

        root, names, X_test = tenant_root
        cache = PlanCache(root, capacity=8, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache)
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = set_metrics(first)
        try:
            for registry, requests in ((first, 2), (second, 3)):
                set_metrics(registry)
                for i in range(requests):
                    batcher.submit(names[0], X_test[i:i + 1])
                    batcher.drain()
        finally:
            set_metrics(previous)
        for registry, requests in ((first, 2), (second, 3)):
            assert registry.counter("daemon.batches_total").value == requests
            assert registry.histogram("serve.latency").count == requests
            assert registry.counter(
                "daemon.requests_total", tenant=names[0]).value == requests


class TestPlanCacheStat:
    def test_one_stat_per_scored_request(self, tenant_root, tmp_path,
                                         monkeypatch):
        root, names, X_test = tenant_root
        shutil.copy(root / f"{names[0]}.npz", tmp_path / f"{names[0]}.npz")
        bundle = str(tmp_path / f"{names[0]}.npz")
        batcher = MicroBatcher(PlanCache(tmp_path, micro_batch_rows=CAP))
        batcher.submit(names[0], X_test[:2])
        batcher.drain()  # loaded: from here on every request is a hit
        calls = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            if isinstance(path, (str, os.PathLike)) and os.fspath(path) == bundle:
                calls.append(path)
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        for n in (1, 3, 8):
            batcher.submit(names[0], X_test[:n])
            batcher.drain()
        assert len(calls) == 3
        for i in range(4):  # coalesced into one batch
            batcher.submit(names[0], X_test[i:i + 2])
        batcher.drain()
        assert len(calls) == 7
        assert batcher.batches == 5

    def test_pointer_flip_is_seen_by_the_next_request(self, tenant_root,
                                                     tmp_path):
        from repro.adapt.lineage import ArtifactLineage
        from repro.core.artifacts import load_artifact

        root, names, X_test = tenant_root
        lineage = ArtifactLineage(tmp_path)
        lineage.publish("t", load_artifact(root / f"{names[0]}.npz").estimator,
                        state="active")
        candidate = lineage.publish(
            "t", load_artifact(root / f"{names[1]}.npz").estimator)
        cache = PlanCache(tmp_path, micro_batch_rows=CAP)
        batcher = MicroBatcher(cache)
        X = X_test[:4]
        first = batcher.submit("t", X)
        batcher.drain()
        lineage.promote("t", candidate.content_hash)
        second = batcher.submit("t", X)
        batcher.drain()
        assert cache.reloads == 1
        assert second.plan is not first.plan
        assert cache.stats()["loaded"]["t"]["content_hash"] == (
            candidate.content_hash)
        for pending, name in ((first, names[0]), (second, names[1])):
            np.testing.assert_array_equal(
                pending.result(0.0),
                _fresh_plan(root, name).execute([X], capacity=CAP)[0])
