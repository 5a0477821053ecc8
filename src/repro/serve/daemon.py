"""Long-running multi-tenant serving daemon.

Ties the serving plane together: a :class:`~repro.serve.registry.PlanCache`
(LRU of compiled tenant plans with sha256-validated hot reload) feeding a
:class:`~repro.serve.batcher.MicroBatcher` (per-tenant FIFO coalescing into
micro-batches of at most ``micro_batch_rows`` rows, each executed padded to
the next multiple of 16 rows), drained by one event-loop thread
(:class:`~repro.serve.server.DaemonHTTPServer`) that is also the HTTP front
when a port is configured, plus an optional Prometheus exposition endpoint.
That thread is the only scorer: in-process callers (:meth:`ServeDaemon.submit`
/ :meth:`ServeDaemon.score`) enqueue from their own threads and wake it.
The daemon always runs under a live metrics registry (a private
one is installed when the caller has none), so request/batch/queue
telemetry and the shutdown summary exist unconditionally.  While it runs,
a ``gc.callbacks`` hook times every full (generation-2) collection of the
process into the ``daemon.gc_pause_seconds`` histogram, so a stall that
coincides with a collection shows up in ``/metrics`` and :meth:`stats`.

In-process use (tests, load generation, embedding)::

    with ServeDaemon(DaemonConfig(root="artifacts")) as daemon:
        proba = daemon.score("tenant-00", X)       # blocks until scored
        pending = daemon.submit("tenant-00", X)    # or: fire-and-wait-later

``repro serve --daemon --root artifacts --port 8350`` runs
:func:`run_daemon`, which blocks until interrupted and prints the latency
and coalescing summary on the way out.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.registry import DEFAULT_CAPACITY, PlanCache
from repro.serve.server import DaemonHTTPServer
from repro.utils.errors import ValidationError

__all__ = ["DaemonConfig", "ServeDaemon", "run_daemon"]


@dataclass(frozen=True)
class DaemonConfig:
    """Everything a daemon needs; defaults suit tests and smoke loads."""

    root: str = "artifacts"
    host: str = "127.0.0.1"
    #: HTTP port (0 = ephemeral); None disables the HTTP front entirely
    port: int | None = 0
    n_draws: int = 1
    #: admission and coalescing bound of a request or micro-batch (rows);
    #: not the executed row count, which is the live rows padded to a
    #: multiple of 16
    micro_batch_rows: int = DEFAULT_CAPACITY
    #: LRU capacity of the compiled-plan cache (tenants kept hot)
    cache_size: int = 8
    #: result wait budget of :meth:`ServeDaemon.score` (seconds)
    request_timeout: float = 30.0
    #: optional Prometheus exposition port (None = off)
    prom_port: int | None = None
    #: manage an ArtifactLineage over ``root`` (shadow mode, promote,
    #: rollback and the /v1/admin endpoints need it)
    manage_lineage: bool = True
    #: flip the lineage pointer automatically on a winning shadow verdict
    auto_promote: bool = True


class _GCPauseTimer:
    """``gc.callbacks`` hook observing each generation-2 collection's duration."""

    def __init__(self, histogram) -> None:
        self.histogram = histogram
        self._started: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.histogram.observe(time.perf_counter() - self._started)
            self._started = None


class ServeDaemon:
    """Multi-tenant scoring daemon (context manager)."""

    def __init__(self, config: DaemonConfig | None = None, **overrides) -> None:
        if config is None:
            config = DaemonConfig(**overrides)
        elif overrides:
            raise ValidationError("pass either a DaemonConfig or overrides")
        self.config = config
        self.cache: PlanCache | None = None
        self.batcher: MicroBatcher | None = None
        self.http: DaemonHTTPServer | None = None
        self._loop: DaemonHTTPServer | None = None
        self.prometheus = None
        self.lineage = None
        self._shadow_results: dict = {}
        self._previous_registry = None
        self._owns_registry = False
        self._started_at: float | None = None
        self._gc_timer: _GCPauseTimer | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self.batcher is not None

    @property
    def url(self) -> str | None:
        return self.http.url if self.http is not None else None

    def start(self) -> "ServeDaemon":
        if self.running:
            raise ValidationError("daemon already started")
        cfg = self.config
        if not get_metrics().enabled:
            # private registry so queue/batch/latency telemetry and the
            # shutdown summary exist even without --trace/--metrics-out
            self._previous_registry = set_metrics(MetricsRegistry())
            self._owns_registry = True
        self.cache = PlanCache(
            cfg.root,
            capacity=cfg.cache_size,
            n_draws=cfg.n_draws,
            micro_batch_rows=cfg.micro_batch_rows,
        )
        self.batcher = MicroBatcher(self.cache)
        if cfg.manage_lineage:
            from repro.adapt.lineage import ArtifactLineage

            self.lineage = ArtifactLineage(cfg.root)
        self._loop = DaemonHTTPServer(
            self.batcher, daemon=self, host=cfg.host, port=cfg.port
        ).start()
        if cfg.port is not None:
            self.http = self._loop
        if cfg.prom_port is not None:
            from repro.obs.exporters import PrometheusExporter

            self.prometheus = PrometheusExporter(
                get_metrics(), port=cfg.prom_port
            ).start()
        self._gc_timer = _GCPauseTimer(
            get_metrics().histogram("daemon.gc_pause_seconds"))
        gc.callbacks.append(self._gc_timer)
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> dict:
        """Drain, shut everything down, and return the final stats."""
        if not self.running:
            return {}
        stats = None
        try:
            if self._loop is not None:
                self._loop.stop()
            self._loop = self.http = None
            stats = self.stats()
            if self.prometheus is not None:
                self.prometheus.stop()
                self.prometheus = None
        finally:
            self.batcher = None
            if self._gc_timer in gc.callbacks:
                gc.callbacks.remove(self._gc_timer)
            self._gc_timer = None
            if self._owns_registry:
                set_metrics(self._previous_registry)
                self._previous_registry = None
                self._owns_registry = False
        return stats if stats is not None else {}

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- scoring -------------------------------------------------------------

    def submit(self, tenant: str, X) -> PendingRequest:
        """Enqueue one request; returns the waitable pending handle."""
        if not self.running:
            raise ValidationError("daemon is not running")
        return self.batcher.submit(tenant, X)

    def score(self, tenant: str, X, *,
              timeout: float | None = None) -> np.ndarray:
        """Submit and block for the class probabilities."""
        timeout = timeout if timeout is not None else self.config.request_timeout
        return self.submit(tenant, X).result(timeout)

    # -- adaptation lifecycle ------------------------------------------------

    def _require_lineage(self):
        if self.lineage is None:
            raise ValidationError(
                "daemon has no artifact lineage (manage_lineage=False)"
            )
        return self.lineage

    def start_shadow(self, tenant: str, content_hash: str | None = None, *,
                     policy=None):
        """Shadow-score a candidate version against the incumbent.

        ``content_hash`` defaults to the tenant's most recent
        candidate/shadow lineage version and ``policy`` to a default
        :class:`~repro.adapt.shadow.ShadowPolicy`.  Live traffic keeps being
        answered by the incumbent; once the evaluator reaches a verdict
        the candidate is auto-promoted (pointer flip, picked up by the
        stat-triggered hot reload — no restart) or retired, per
        ``config.auto_promote``.
        """
        from repro.adapt.shadow import ShadowEvaluator

        if not self.running:
            raise ValidationError("daemon is not running")
        lineage = self._require_lineage()
        if content_hash is None:
            pending = [v for v in lineage.history(tenant)
                       if v.lifecycle_state in ("candidate", "shadow")]
            if not pending:
                raise ValidationError(
                    f"tenant {tenant!r} has no candidate version to shadow"
                )
            version = pending[-1]
        else:
            candidates = [v for v in lineage.history(tenant)
                          if v.content_hash == content_hash]
            if not candidates:
                raise ValidationError(
                    f"tenant {tenant!r} has no version {content_hash!r}"
                )
            version = candidates[0]
        lineage.mark(tenant, version.content_hash, "shadow")
        evaluator = ShadowEvaluator(tenant, policy)
        self._shadow_results.pop(tenant, None)
        return self.cache.start_shadow(
            tenant, lineage.version_path(version), version.content_hash,
            evaluator=evaluator, on_verdict=self._on_shadow_verdict,
        )

    def _on_shadow_verdict(self, state) -> None:
        """Loop-thread callback: act on a shadow verdict."""
        tenant = state.tenant
        self._shadow_results[tenant] = {
            "verdict": state.verdict,
            "content_hash": state.content_hash,
            **(state.evaluator.stats()
               if hasattr(state.evaluator, "stats") else {}),
        }
        try:
            if self.lineage is not None:
                if state.verdict == "promote" and self.config.auto_promote:
                    # pure pointer flip; the cache's stat-triggered reload
                    # serves the candidate from the next request on
                    self.lineage.promote(tenant, state.content_hash)
                elif state.verdict != "promote":
                    self.lineage.mark(tenant, state.content_hash, "retired")
        finally:
            self.cache.stop_shadow(tenant)

    def shadow_verdict(self, tenant: str) -> str | None:
        """The last completed shadow verdict for ``tenant`` (None = pending)."""
        result = self._shadow_results.get(tenant)
        if result is not None:
            return result["verdict"]
        state = self.cache.shadow_for(tenant) if self.cache is not None else None
        return state.verdict if state is not None else None

    def promote(self, tenant: str, content_hash: str | None = None):
        """Manually flip the lineage pointer (stops any live shadow first)."""
        lineage = self._require_lineage()
        if self.cache is not None:
            self.cache.stop_shadow(tenant)
        return lineage.promote(tenant, content_hash)

    def rollback(self, tenant: str):
        """One-command rollback: pointer flip back to the previous version.

        The reload is picked up on the next request; because the restored
        bundle's content hash differs from the demoted one's, the plan
        cache resets the tenant's noise stream to the artifact's saved
        state — replayed traffic scores bit-identically to pre-promotion.
        """
        lineage = self._require_lineage()
        if self.cache is not None:
            self.cache.stop_shadow(tenant)
        return lineage.rollback(tenant)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """Daemon-level counters plus latency summaries from the registry."""
        if self.batcher is None or self.cache is None:
            return {}
        registry = get_metrics()
        out = {
            "uptime_seconds": (
                time.perf_counter() - self._started_at
                if self._started_at is not None else 0.0
            ),
            "batcher": self.batcher.stats(),
            "cache": self.cache.stats(),
        }
        if self._shadow_results:
            out["shadow_results"] = dict(self._shadow_results)
        if registry.enabled:
            latency = {}
            for name in ("daemon.request_seconds", "daemon.queue_seconds",
                         "daemon.batch_seconds", "daemon.batch_rows",
                         "daemon.gc_pause_seconds"):
                hist = registry.histogram(name)
                if hist.count:
                    summary = hist.summary()
                    latency[name] = {
                        key: summary[key]
                        for key in ("count", "p50", "p90", "p99", "max")
                    }
            out["latency"] = latency
        return out


def format_daemon_summary(stats: dict) -> str:
    """Human-readable shutdown summary for the CLI."""
    if not stats:
        return "daemon served no requests"
    batcher = stats.get("batcher", {})
    cache = stats.get("cache", {})
    lines = [
        f"served {batcher.get('requests', 0)} requests "
        f"({batcher.get('rows', 0)} rows) in {batcher.get('batches', 0)} "
        f"micro-batches (mean fill {batcher.get('mean_batch_rows', 0.0):.1f} "
        f"rows, {batcher.get('mean_batch_requests', 0.0):.1f} requests, "
        f"{batcher.get('padded_rows', 0)} rows executed)",
        f"cache: {cache.get('hits', 0)} hits / {cache.get('misses', 0)} "
        f"misses / {cache.get('evictions', 0)} evictions / "
        f"{cache.get('reloads', 0)} hot reloads "
        f"({len(cache.get('loaded', {}))} tenants hot)",
    ]
    for name, summary in stats.get("latency", {}).items():
        label = name.removeprefix("daemon.")
        if name.endswith("_seconds"):
            lines.append(
                f"  {label:<16} p50={1e3 * summary['p50']:8.3f} ms  "
                f"p90={1e3 * summary['p90']:8.3f} ms  "
                f"p99={1e3 * summary['p99']:8.3f} ms  (n={summary['count']})"
            )
        else:
            lines.append(
                f"  {label:<16} p50={summary['p50']:8.1f}     "
                f"p90={summary['p90']:8.1f}     "
                f"p99={summary['p99']:8.1f}     (n={summary['count']})"
            )
    return "\n".join(lines)


def run_daemon(config: DaemonConfig) -> dict:
    """Run a daemon until interrupted; returns (and prints) final stats."""
    daemon = ServeDaemon(config)
    daemon.start()
    try:
        known = daemon.cache.known_tenants()
        print(f"serving {len(known)} tenant artifact(s) from {config.root}"
              + (f" at {daemon.url}" if daemon.url else " (no HTTP front)"))
        if daemon.prometheus is not None:
            print(f"metrics exposed at {daemon.prometheus.url}")
        print("press Ctrl-C to stop")
        while True:
            time.sleep(3600.0)
    except KeyboardInterrupt:
        print("\nshutting down ...")
    finally:
        stats = daemon.stop()
    print(format_daemon_summary(stats))
    return stats
