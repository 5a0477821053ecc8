"""Micro-batching: coalesce same-tenant requests into one padded execution.

:class:`MicroBatcher` is a thread-safe admission queue plus a single scorer
thread.  Requests enqueue per tenant in FIFO order; the scorer coalesces
the head of one tenant's queue into a micro-batch of at most
``micro_batch_rows`` rows, optionally lingering ``max_wait`` seconds when
it is otherwise idle, and scores it with
``plan.execute(segments, capacity=micro_batch_rows)`` on the tenant's
cached :class:`~repro.serve.plan.InferencePlan`.  ``micro_batch_rows`` is
the admission and coalescing bound, not the executed row count.

Two choices exist for one reason: **bit-identity across coalescing
patterns**.  Every execution — a single request or a coalesced
micro-batch — runs the plan's stages on its live rows zero-padded to the
next multiple of ``ROW_TILE`` (16) rows, results sliced back per request,
and noise is drawn with one RNG call per request in admission order.  BLAS
GEMM row results are *not* stable across batch sizes (an M=1 call can
differ from the same row inside an M=64 call in the last ULP), so the
inference ``Dense`` forward runs every GEMM on fixed 16-row slices; the
remaining ops are elementwise or row-wise, so a padded row can never
perturb another row.  Scoring requests ``[A, B]`` coalesced is therefore
bit-identical to scoring ``[A]`` then ``[B]``, whatever the sizes.  The
executed row count is ``stats()["padded_rows"]``; ``rows / padded_rows``
is the live share.  A single scorer keeps
each tenant's RNG consumption deterministic: per-tenant scoring order
equals per-tenant admission order (the ``seq`` number on every request),
so a run can be replayed request-by-request bit for bit.

Requests are validated by the plan at :meth:`MicroBatcher.submit`, before
a ``seq`` is assigned, so a malformed request (wrong width, too many
rows, NaN or infinite values) fails alone and never enters a batch.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.obs.metrics import get_metrics
from repro.serve.plan import padded_rows
from repro.utils.errors import ValidationError

__all__ = ["MicroBatcher", "PendingRequest"]


class PendingRequest:
    """One enqueued request: waitable handle returned by ``submit``.

    ``seq`` is the tenant-local admission number — per-tenant scoring
    order always equals ``seq`` order, whatever the coalescing pattern.
    ``plan`` is the plan that produced ``proba``; labels come from it
    (``plan.labels(proba)``), so a hot reload between scoring and
    labelling cannot mix two plans in one answer.
    """

    __slots__ = ("tenant", "X", "seq", "enqueued", "proba", "plan",
                 "error", "_event")

    def __init__(self, tenant: str, X: np.ndarray, seq: int) -> None:
        self.tenant = tenant
        self.X = X
        self.seq = seq
        self.enqueued = time.perf_counter()
        self.proba: np.ndarray | None = None
        self.plan = None
        self.error: Exception | None = None
        self._event = threading.Event()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until scored; returns probabilities or re-raises the error."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request seq={self.seq} for tenant {self.tenant!r} "
                f"not scored within {timeout}s"
            )
        if self.error is not None:
            raise self.error
        return self.proba


class MicroBatcher:
    """Per-tenant FIFO queues drained by one coalescing scorer thread.

    Parameters
    ----------
    cache:
        A :class:`~repro.serve.registry.PlanCache`; tenants resolve to
        compiled plans through it (LRU + hot reload); its
        ``micro_batch_rows`` bounds the rows of every request and
        micro-batch.
    max_wait:
        Linger budget in seconds: when the scorer picks up a lone request
        and no other tenant has work queued, it waits up to this long for
        same-tenant arrivals to coalesce with.  0 disables lingering.
    coalesce:
        False scores every request in its own (still padded) execution —
        the daemon's per-request baseline mode, used by the sustained
        benchmark as the "before" side.
    """

    def __init__(self, cache, *, max_wait: float = 0.002,
                 coalesce: bool = True) -> None:
        if max_wait < 0:
            raise ValidationError("max_wait must be >= 0")
        self.cache = cache
        self.max_wait = float(max_wait)
        self.coalesce = bool(coalesce)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queues: dict[str, deque[PendingRequest]] = {}
        self._order: deque[str] = deque()
        self._seq: dict[str, int] = {}
        self._depth = 0
        self._stop = False
        self._thread: threading.Thread | None = None
        self.batches = 0
        self.requests = 0
        self.rows = 0
        self.padded_rows = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MicroBatcher":
        if self._thread is not None:
            raise ValidationError("batcher already started")
        self._stop = False
        self._thread = threading.Thread(
            target=self._loop, name="repro-micro-batcher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain every queued request, then stop the scorer thread."""
        if self._thread is None:
            return
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- admission -----------------------------------------------------------

    def submit(self, tenant: str, X) -> PendingRequest:
        """Enqueue one request; returns a waitable :class:`PendingRequest`."""
        # validate rows, width and finiteness against the tenant's plan up
        # front, so the caller gets the error synchronously and a bad
        # request never takes a seq or joins a batch (also loads the plan
        # on the first request for a tenant)
        entry = self.cache.get(tenant)
        X = entry.plan.check_request(X, capacity=self.cache.micro_batch_rows)
        with self._cond:
            if self._stop:
                raise ValidationError("batcher is stopped")
            seq = self._seq.get(tenant, 0)
            self._seq[tenant] = seq + 1
            pending = PendingRequest(tenant, X, seq)
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = deque()
            if not queue:
                self._order.append(tenant)
            queue.append(pending)
            self._depth += 1
            registry = get_metrics()
            if registry.enabled:
                registry.counter("daemon.requests_total", tenant=tenant).inc()
                registry.counter("daemon.rows_total", tenant=tenant).inc(
                    X.shape[0]
                )
                registry.gauge("daemon.queue_depth").set(self._depth)
            self._cond.notify()
        return pending

    def score(self, tenant: str, X, *, timeout: float | None = 30.0):
        """Convenience: submit and block for the probabilities."""
        return self.submit(tenant, X).result(timeout)

    # -- scorer loop ---------------------------------------------------------

    def _take_batch(self) -> list[PendingRequest] | None:
        """Pop the next micro-batch under the lock (None = stopped & drained)."""
        with self._cond:
            while True:
                while not self._order and not self._stop:
                    self._cond.wait()
                if not self._order:
                    return None  # stopping with nothing queued
                tenant = self._order.popleft()
                queue = self._queues[tenant]
                if queue:
                    break
                # stale entry: a submit during the idle linger re-added the
                # tenant, but the post-linger drain already took its work
            capacity = self.cache.micro_batch_rows
            batch = [queue.popleft()]
            rows = batch[0].X.shape[0]
            if self.coalesce:
                while queue and rows + queue[0].X.shape[0] <= capacity:
                    pending = queue.popleft()
                    rows += pending.X.shape[0]
                    batch.append(pending)
                if (len(self._order) == 0 and not queue and not self._stop
                        and self.max_wait > 0.0 and rows < capacity):
                    # idle linger: give same-tenant arrivals one chance to
                    # coalesce before paying an execution of its own
                    self._cond.wait(self.max_wait)
                    while queue and rows + queue[0].X.shape[0] <= capacity:
                        pending = queue.popleft()
                        rows += pending.X.shape[0]
                        batch.append(pending)
            if queue:
                self._order.append(tenant)
            self._depth -= len(batch)
            registry = get_metrics()
            if registry.enabled:
                registry.gauge("daemon.queue_depth").set(self._depth)
            return batch

    def _loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            tenant = batch[0].tenant
            t0 = time.perf_counter()
            registry = get_metrics()
            try:
                entry = self.cache.get(tenant)
                probas = entry.plan.execute(
                    [p.X for p in batch], capacity=self.cache.micro_batch_rows
                )
            except Exception as exc:  # noqa: BLE001 — scorer must not die
                registry.counter("daemon.errors_total").inc(len(batch))
                for pending in batch:
                    pending.error = exc
                    pending._event.set()
                continue
            shadow = self.cache.shadow_for(tenant) if hasattr(
                self.cache, "shadow_for") else None
            if shadow is not None and shadow.verdict is None:
                self._shadow_score(shadow, batch, probas, entry)
            now = time.perf_counter()
            rows = sum(p.X.shape[0] for p in batch)
            executed = padded_rows(rows)
            self.batches += 1
            self.requests += len(batch)
            self.rows += rows
            self.padded_rows += executed
            if registry.enabled:
                registry.counter("daemon.batches_total").inc()
                registry.counter("daemon.padded_rows_total").inc(executed)
                registry.histogram("daemon.batch_rows").observe(rows)
                registry.histogram("daemon.batch_requests").observe(len(batch))
                registry.histogram("daemon.batch_seconds").observe(now - t0)
                for pending in batch:
                    registry.histogram("daemon.queue_seconds").observe(
                        t0 - pending.enqueued
                    )
                    registry.histogram("daemon.request_seconds").observe(
                        now - pending.enqueued
                    )
            for pending, proba in zip(batch, probas):
                pending.proba = proba
                pending.plan = entry.plan
                pending._event.set()

    def _shadow_score(self, shadow, batch, probas, entry) -> None:
        """Score the same micro-batch on the shadow candidate and compare.

        Runs after the incumbent's answers are computed but before they are
        delivered to waiters; the candidate's probabilities never leave
        this method — only divergence statistics do.  A shadow failure is
        contained: it counts as an error (three strikes aborts the shadow)
        and the incumbent's results flow on untouched.
        """
        try:
            cand_plan = shadow.entry.plan
            cand_probas = cand_plan.execute(
                [p.X for p in batch], capacity=self.cache.micro_batch_rows
            )
            verdict = shadow.evaluator.observe(
                np.vstack(probas), np.vstack(cand_probas),
                entry.plan.last_variant(), cand_plan.last_variant(),
            )
        except Exception:  # noqa: BLE001 — shadow must not break serving
            shadow.errors += 1
            get_metrics().counter("adapt.shadow.errors_total").inc()
            verdict = "abort" if shadow.errors >= 3 else None
        if verdict is not None:
            shadow.verdict = verdict
            if shadow.on_verdict is not None:
                try:
                    shadow.on_verdict(shadow)
                except Exception:  # noqa: BLE001
                    get_metrics().counter("adapt.shadow.errors_total").inc()

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            depth = self._depth
        return {
            "batches": self.batches,
            "requests": self.requests,
            "rows": self.rows,
            "padded_rows": self.padded_rows,
            "queue_depth": depth,
            "mean_batch_rows": self.rows / self.batches if self.batches else 0.0,
            "mean_batch_requests": (
                self.requests / self.batches if self.batches else 0.0
            ),
            "coalesce": self.coalesce,
        }
