"""Tenant registry: LRU cache of compiled plans with validated hot reload.

The daemon serves many tenants — one ``(domain, target)`` adapter artifact
each, the paper's deployment shape — out of a directory of versioned
``.npz`` bundles (``<root>/<tenant>.npz``, the ``ArtifactStore`` layout).
:class:`PlanCache` keeps at most ``capacity`` tenants hot: each entry is a
loaded artifact compiled into an :class:`~repro.serve.plan.InferencePlan`.
``micro_batch_rows`` is the admission and coalescing bound of every
request and micro-batch (``plan.execute(segments,
capacity=micro_batch_rows)``), not the executed row count: an execution
runs its live rows padded to the next multiple of 16.

Reload semantics:

- **Load and reload always validate.**  Every (re)load goes through
  :func:`repro.core.artifacts.load_artifact`, which recomputes the sha256
  content hash over all array payloads and rejects a bundle whose hash
  disagrees with its manifest — a half-written or tampered hot swap never
  reaches the scoring path.
- **Hot reload is stat-triggered.**  Each admitted request re-stats its
  bundle once (:meth:`PlanCache.get`; its batch then runs on the entry
  found, :meth:`PlanCache.hot`); a changed ``(inode, mtime_ns, size)``
  evicts the stale entry and reloads (and re-validates) from disk, so
  publishing a new artifact version is just an atomic file replace (or a
  lineage pointer flip), seen by the next request.  Each hot reload is
  timed: ``stats()`` reports the last and total reload seconds and the
  ``daemon.cache_reload_seconds`` histogram observes every one.
- **The RNG stream survives eviction.**  A compiled plan's noise stream
  starts from the RNG state saved in the artifact and its position (total
  standard-normal values drawn) is tracked on the plan.  When an entry is
  dropped — LRU eviction, explicit invalidation, or a deleted bundle —
  the cache remembers ``(content_hash, position)``; reloading the *same*
  bundle fast-forwards the fresh plan to that position, so evict-reload
  mid-stream is bit-identical to never evicting.  A changed content hash
  (a genuinely new artifact version, including a lineage rollback) resets
  the stream to the new artifact's saved state — which is exactly what
  makes rollback restore pre-promotion scoring bit for bit.

The cache also carries per-tenant **shadow state**: a second compiled
plan (the lineage's candidate version) scored concurrently with the
incumbent by the micro-batcher, with divergence folded into a
:class:`~repro.adapt.shadow.ShadowEvaluator` until it reaches a
promote/abort verdict.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import MetricHandles
from repro.serve.plan import fast_forward_rng
from repro.utils.errors import ArtifactError, ValidationError

__all__ = ["PlanCache", "ShadowState", "TenantEntry"]

#: default row bound of a request or coalesced micro-batch
DEFAULT_CAPACITY = 256

#: tenant names are path components; keep them boring and traversal-proof
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_METRICS = MetricHandles()


def _signature(stat) -> tuple[int, int, int]:
    """What a cache hit compares: a replaced or re-pointed bundle is a new
    inode even when a same-shaped (stored, equal-size) rewrite lands in
    the same coarse mtime tick."""
    return stat.st_ino, stat.st_mtime_ns, stat.st_size


@dataclass
class TenantEntry:
    """One hot tenant: compiled plan + load-time metadata."""

    tenant: str
    path: Path
    plan: object
    manifest: dict
    inode: int
    mtime_ns: int
    size: int
    loaded_at: float
    hits: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def content_hash(self) -> str | None:
        return self.manifest.get("content_hash")


@dataclass
class ShadowState:
    """One tenant's live shadow evaluation: candidate entry + evaluator."""

    tenant: str
    content_hash: str
    entry: TenantEntry
    evaluator: object
    on_verdict: object | None = None
    verdict: str | None = None
    errors: int = 0


class PlanCache:
    """Bounded LRU of compiled tenant plans over an artifact directory.

    Parameters
    ----------
    root:
        Directory of ``<tenant>.npz`` artifact bundles.
    capacity:
        Maximum number of tenants kept hot; the least-recently-used entry
        is evicted on overflow.
    n_draws:
        Monte-Carlo draws per sample for every compiled plan.
    micro_batch_rows:
        The daemon's maximum request and micro-batch size in rows, passed
        as ``capacity`` to every execution of a tenant's plan.  It bounds
        admission and coalescing; an execution runs its live rows padded
        to the next multiple of 16, whatever this value.
    """

    def __init__(self, root, *, capacity: int = 8, n_draws: int = 1,
                 micro_batch_rows: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ArtifactError("cache capacity must be >= 1")
        if micro_batch_rows < 1:
            raise ValidationError("micro-batch capacity must be >= 1")
        self.root = Path(root)
        self.capacity = int(capacity)
        self.n_draws = int(n_draws)
        self.micro_batch_rows = int(micro_batch_rows)
        self._entries: OrderedDict[str, TenantEntry] = OrderedDict()
        #: remembered noise-stream positions of dropped entries:
        #: tenant → (content_hash, values drawn); same-hash reloads resume
        self._rng_positions: dict[str, tuple[str | None, int]] = {}
        self._shadows: dict[str, ShadowState] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.reloads = 0
        #: wall seconds of the latest and of all hot reloads (load_artifact
        #: with its hash check, plus plan compilation)
        self.reload_seconds_last = 0.0
        self.reload_seconds_total = 0.0
        self.rng_fast_forwards = 0

    # -- name / path handling ------------------------------------------------

    def path_for(self, tenant: str) -> Path:
        """The bundle path a tenant name resolves to (validated)."""
        if not _TENANT_NAME.match(tenant or ""):
            raise ArtifactError(
                f"invalid tenant name {tenant!r} (letters, digits, '._-' "
                f"only, must not start with a separator)"
            )
        return self.root / f"{tenant}.npz"

    def known_tenants(self) -> list[str]:
        """Every tenant with a bundle under ``root`` (loaded or not)."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.npz")
                      if _TENANT_NAME.match(p.stem))

    # -- cache ---------------------------------------------------------------

    def get(self, tenant: str) -> TenantEntry:
        """The hot entry for ``tenant`` — loading, reloading or evicting.

        A hot tenant costs one ``stat`` of its bundle: its name was
        validated and its path joined when it was loaded.
        """
        with self._lock:
            entry = self._entries.get(tenant)
            metrics = _METRICS.current()
            if entry is not None:
                path = entry.path
                try:
                    stat = os.stat(path)
                except OSError:
                    # bundle deleted out from under us: drop and report
                    self._remember_rng(entry)
                    del self._entries[tenant]
                    self._publish_gauges(metrics)
                    raise ArtifactError(f"no artifact file at {path}") from None
                if _signature(stat) == (entry.inode, entry.mtime_ns,
                                        entry.size):
                    return self._hit(entry, metrics)
                # stat changed: sha256-validated reload through load_artifact
                self._remember_rng(entry)
                del self._entries[tenant]
                self.reloads += 1
                if metrics is not None:
                    metrics.counter("daemon.cache_reloads_total").inc()
                t0 = time.perf_counter()
                entry = self._load(tenant, path)
                seconds = time.perf_counter() - t0
                self.reload_seconds_last = seconds
                self.reload_seconds_total += seconds
                if metrics is not None:
                    metrics.histogram("daemon.cache_reload_seconds").observe(
                        seconds
                    )
            else:
                path = self.path_for(tenant)
                self.misses += 1
                if metrics is not None:
                    metrics.counter("daemon.cache_misses_total").inc()
                entry = self._load(tenant, path)
            self._entries[tenant] = entry
            self._entries.move_to_end(tenant)
            while len(self._entries) > self.capacity:
                _, evicted = self._entries.popitem(last=False)
                self._remember_rng(evicted)
                self.evictions += 1
                if metrics is not None:
                    metrics.counter("daemon.cache_evictions_total").inc()
            self._publish_gauges(metrics)
            return entry

    def hot(self, tenant: str) -> TenantEntry:
        """The entry :meth:`get` last returned for ``tenant``, without a stat.

        The micro-batcher scores a batch on it: each request's
        :meth:`get` at admission already looked for a new bundle, so a hot
        reload is seen by the next request admitted.  A hot entry counts
        as a hit; one dropped since (eviction, invalidation) is resolved
        through :meth:`get`.
        """
        with self._lock:
            entry = self._entries.get(tenant)
            if entry is None:
                return self.get(tenant)
            return self._hit(entry, _METRICS.current())

    def _hit(self, entry: TenantEntry, metrics) -> TenantEntry:
        entry.hits += 1
        self.hits += 1
        self._entries.move_to_end(entry.tenant)
        if metrics is not None:
            metrics.counter("daemon.cache_hits_total").inc()
        return entry

    def _remember_rng(self, entry: TenantEntry) -> None:
        """Record a dropped entry's noise-stream position for resumption."""
        self._rng_positions[entry.tenant] = (
            entry.content_hash, int(getattr(entry.plan, "rng_draws", 0))
        )

    def _load(self, tenant: str, path: Path, *,
              resume_rng: bool = True) -> TenantEntry:
        from repro.serve.runtime import load_plan

        plan, loaded = load_plan(path, n_draws=self.n_draws)
        if resume_rng:
            stored = self._rng_positions.get(tenant)
            if stored is not None:
                stored_hash, draws = stored
                if (stored_hash is not None
                        and stored_hash == loaded.manifest.get("content_hash")):
                    if draws > 0:
                        # same bundle back in the cache: resume its noise
                        # stream where the dropped entry left off
                        fast_forward_rng(plan, draws)
                        self.rng_fast_forwards += 1
                        metrics = _METRICS.current()
                        if metrics is not None:
                            metrics.counter(
                                "daemon.rng_fast_forwards_total"
                            ).inc()
                else:
                    # a different artifact version: its stream starts fresh
                    del self._rng_positions[tenant]
        stat = path.stat()
        return TenantEntry(
            tenant=tenant,
            path=path,
            plan=plan,
            manifest=loaded.manifest,
            inode=stat.st_ino,
            mtime_ns=stat.st_mtime_ns,
            size=stat.st_size,
            loaded_at=time.time(),
        )

    def _publish_gauges(self, metrics) -> None:
        if metrics is not None:
            metrics.gauge("daemon.tenants_loaded").set(len(self._entries))

    def invalidate(self, tenant: str | None = None) -> None:
        """Drop one tenant (or all) from the cache; next access reloads.

        The dropped entries' noise-stream positions are remembered, so
        reloading an unchanged bundle resumes its stream (see module docs).
        """
        with self._lock:
            if tenant is None:
                for entry in self._entries.values():
                    self._remember_rng(entry)
                self._entries.clear()
            else:
                entry = self._entries.pop(tenant, None)
                if entry is not None:
                    self._remember_rng(entry)
            self._publish_gauges(_METRICS.current())

    # -- shadow mode ---------------------------------------------------------

    def start_shadow(self, tenant: str, path, content_hash: str, *,
                     evaluator, on_verdict=None) -> ShadowState:
        """Load a candidate bundle for concurrent shadow scoring.

        The micro-batcher scores every ``tenant`` batch through the shadow
        entry's plan after the incumbent's and folds both outputs into
        ``evaluator`` (a :class:`~repro.adapt.shadow.ShadowEvaluator`).
        ``on_verdict(state)`` fires once, from the scorer thread, when the
        evaluator reaches a verdict.
        """
        self.path_for(tenant)  # validates the tenant name
        path = Path(path)
        with self._lock:
            if tenant in self._shadows:
                raise ArtifactError(
                    f"tenant {tenant!r} already has a shadow candidate"
                )
            entry = self._load(tenant, path, resume_rng=False)
            if content_hash and entry.content_hash != content_hash:
                raise ArtifactError(
                    f"shadow candidate hash mismatch for {tenant!r}: "
                    f"expected {content_hash}, loaded {entry.content_hash}"
                )
            state = ShadowState(
                tenant=tenant,
                content_hash=entry.content_hash,
                entry=entry,
                evaluator=evaluator,
                on_verdict=on_verdict,
            )
            self._shadows[tenant] = state
            return state

    def shadow_for(self, tenant: str) -> ShadowState | None:
        with self._lock:
            return self._shadows.get(tenant)

    def stop_shadow(self, tenant: str) -> ShadowState | None:
        """Detach (and return) a tenant's shadow state, if any."""
        with self._lock:
            return self._shadows.pop(tenant, None)

    def loaded_tenants(self) -> list[str]:
        """Hot tenants in LRU order (least recently used first)."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        with self._lock:
            loaded = {
                name: {
                    "hits": entry.hits,
                    "content_hash": entry.content_hash,
                    "loaded_at": entry.loaded_at,
                    "schema_version": entry.manifest.get("schema_version"),
                    "rng_draws": int(getattr(entry.plan, "rng_draws", 0)),
                }
                for name, entry in self._entries.items()
            }
            rng_positions = {
                tenant: {"content_hash": stored[0], "rng_draws": stored[1]}
                for tenant, stored in self._rng_positions.items()
            }
            shadows = {
                tenant: {
                    "content_hash": state.content_hash,
                    "verdict": state.verdict,
                    "errors": state.errors,
                    **(state.evaluator.stats()
                       if hasattr(state.evaluator, "stats") else {}),
                }
                for tenant, state in self._shadows.items()
            }
        return {
            "capacity": self.capacity,
            "micro_batch_rows": self.micro_batch_rows,
            "n_draws": self.n_draws,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "reloads": self.reloads,
            "reload_seconds_last": self.reload_seconds_last,
            "reload_seconds_total": self.reload_seconds_total,
            "rng_fast_forwards": self.rng_fast_forwards,
            "rng_positions": rng_positions,
            "loaded": loaded,
            "shadows": shadows,
        }
