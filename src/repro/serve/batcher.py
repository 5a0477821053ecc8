"""Micro-batching: coalesce same-tenant requests into one padded execution.

:class:`MicroBatcher` is a thread-safe admission queue that is drained
inline by the serving event loop (:class:`~repro.serve.server.DaemonHTTPServer`),
the batcher's only executor.  Requests enqueue per tenant in FIFO order;
on every wake-up the loop calls :meth:`MicroBatcher.drain`, which
coalesces the head of each tenant's queue into micro-batches of at most
``micro_batch_rows`` rows and scores each with
``plan.execute(segments, capacity=micro_batch_rows)`` on the tenant's
cached :class:`~repro.serve.plan.InferencePlan`.  Nothing lingers: requests
coalesce when they arrive together, between two wake-ups of the loop.
``micro_batch_rows`` is the admission and coalescing bound, not the
executed row count.  Used on its own, :meth:`MicroBatcher.start` runs the
loop with only its wake-up socket.

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
is the live share.  A single executor keeps
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

from repro.obs.metrics import MetricHandles, get_metrics
from repro.serve.plan import padded_rows
from repro.serve.server import DaemonHTTPServer
from repro.utils.errors import ValidationError

__all__ = ["MicroBatcher", "PendingRequest"]

_METRICS = MetricHandles()


class PendingRequest:
    """One enqueued request: waitable handle returned by ``submit``.

    ``seq`` is the tenant-local admission number — per-tenant scoring
    order always equals ``seq`` order, whatever the coalescing pattern.
    ``plan`` is the plan that produced ``proba``; labels come from it
    (``plan.labels(proba)``), so a hot reload between scoring and
    labelling cannot mix two plans in one answer.
    """

    __slots__ = ("tenant", "X", "seq", "enqueued", "proba", "plan",
                 "error", "_event", "_batcher")

    def __init__(self, tenant: str, X: np.ndarray, seq: int,
                 batcher: "MicroBatcher") -> None:
        self.tenant = tenant
        self.X = X
        self.seq = seq
        self.enqueued = time.perf_counter()
        self.proba: np.ndarray | None = None
        self.plan = None
        self.error: Exception | None = None
        self._event = threading.Event()
        self._batcher = batcher

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until scored; returns probabilities or re-raises the error.

        Called on the executor thread itself (code that the event loop runs
        inline), it scores the queued work instead of waiting for it.
        """
        batcher = self._batcher
        if batcher.on_executor():
            while not self._event.is_set() and batcher.has_work:
                batcher.drain()
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request seq={self.seq} for tenant {self.tenant!r} "
                f"not scored within {timeout}s"
            )
        if self.error is not None:
            raise self.error
        return self.proba


class MicroBatcher:
    """Per-tenant FIFO queues drained inline by one executor thread.

    Parameters
    ----------
    cache:
        A :class:`~repro.serve.registry.PlanCache`; tenants resolve to
        compiled plans through it (LRU + hot reload); its
        ``micro_batch_rows`` bounds the rows of every request and
        micro-batch.
    """

    def __init__(self, cache) -> None:
        self.cache = cache
        self._lock = threading.Lock()
        self._queues: dict[str, deque[PendingRequest]] = {}
        self._order: deque[str] = deque()
        self._seq: dict[str, int] = {}
        self._depth = 0
        self._stop = False
        self._executor: int | None = None
        self._wakeup = None
        self._loop = None
        self.batches = 0
        self.requests = 0
        self.rows = 0
        self.padded_rows = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MicroBatcher":
        """Run this batcher on an event loop of its own (no HTTP front)."""
        if self._loop is not None:
            raise ValidationError("batcher already started")
        self._stop = False
        self._loop = DaemonHTTPServer(self, port=None).start()
        return self

    def stop(self) -> None:
        """Drain every queued request, then stop the loop started here."""
        if self._loop is None:
            return
        self._loop.stop()
        self._loop = None

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def bind(self, wakeup) -> None:
        """Make the calling thread the executor (``wakeup=None`` unbinds).

        ``wakeup()`` is called after every submit, so the executor notices
        work enqueued from other threads.
        """
        self._executor = threading.get_ident() if wakeup is not None else None
        self._wakeup = wakeup

    def on_executor(self) -> bool:
        return self._executor == threading.get_ident()

    def close(self) -> None:
        """Refuse further submits; what is queued can still be drained."""
        with self._lock:
            self._stop = True

    @property
    def has_work(self) -> bool:
        return self._depth > 0

    # -- admission -----------------------------------------------------------

    def submit(self, tenant: str, X) -> PendingRequest:
        """Enqueue one request; returns a waitable :class:`PendingRequest`."""
        # validate rows, width and finiteness against the tenant's plan up
        # front, so the caller gets the error synchronously and a bad
        # request never takes a seq or joins a batch (also loads the plan
        # on the first request for a tenant)
        entry = self.cache.get(tenant)
        X = entry.plan.check_request(X, capacity=self.cache.micro_batch_rows)
        with self._lock:
            if self._stop:
                raise ValidationError("batcher is stopped")
            seq = self._seq.get(tenant, 0)
            self._seq[tenant] = seq + 1
            pending = PendingRequest(tenant, X, seq, self)
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = deque()
            if not queue:
                self._order.append(tenant)
            queue.append(pending)
            self._depth += 1
            metrics = _METRICS.current()
            if metrics is not None:
                metrics.counter("daemon.requests_total", tenant=tenant).inc()
                metrics.counter("daemon.rows_total", tenant=tenant).inc(
                    X.shape[0]
                )
                metrics.gauge("daemon.queue_depth").set(self._depth)
        wakeup = self._wakeup
        if wakeup is not None:
            wakeup()
        return pending

    def score(self, tenant: str, X, *, timeout: float | None = 30.0):
        """Convenience: submit and block for the probabilities."""
        return self.submit(tenant, X).result(timeout)

    # -- execution -----------------------------------------------------------

    def _take_batch(self) -> list[PendingRequest] | None:
        """Pop the next micro-batch under the lock (None = nothing queued)."""
        with self._lock:
            if not self._order:
                return None
            tenant = self._order.popleft()
            queue = self._queues[tenant]
            capacity = self.cache.micro_batch_rows
            batch = [queue.popleft()]
            rows = batch[0].X.shape[0]
            while queue and rows + queue[0].X.shape[0] <= capacity:
                pending = queue.popleft()
                rows += pending.X.shape[0]
                batch.append(pending)
            if queue:
                self._order.append(tenant)
            self._depth -= len(batch)
            metrics = _METRICS.current()
            if metrics is not None:
                metrics.gauge("daemon.queue_depth").set(self._depth)
            return batch

    def drain(self) -> None:
        """Score the requests queued now, tenant by tenant (executor only).

        Requests submitted while this runs may wait for the next call, so
        one wake-up of the loop takes a bounded amount of work.
        """
        budget = self._depth
        while budget > 0:
            batch = self._take_batch()
            if batch is None:
                return
            budget -= len(batch)
            self._execute(batch)

    def _execute(self, batch: list[PendingRequest]) -> None:
        tenant = batch[0].tenant
        t0 = time.perf_counter()
        metrics = _METRICS.current()
        try:
            # the entry this tenant's last admitted request found: its
            # submit already looked for a new bundle
            entry = self.cache.hot(tenant)
            probas = entry.plan.execute(
                [p.X for p in batch], capacity=self.cache.micro_batch_rows
            )
        except Exception as exc:  # noqa: BLE001 — the executor must not die
            if metrics is not None:
                metrics.counter("daemon.errors_total").inc(len(batch))
            for pending in batch:
                pending.error = exc
                pending._event.set()
            return
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
        if metrics is not None:
            metrics.counter("daemon.batches_total").inc()
            metrics.counter("daemon.padded_rows_total").inc(executed)
            metrics.histogram("daemon.batch_rows").observe(rows)
            metrics.histogram("daemon.batch_requests").observe(len(batch))
            metrics.histogram("daemon.batch_seconds").observe(now - t0)
            queue_seconds = metrics.histogram("daemon.queue_seconds")
            request_seconds = metrics.histogram("daemon.request_seconds")
            for pending in batch:
                queue_seconds.observe(t0 - pending.enqueued)
                request_seconds.observe(now - pending.enqueued)
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
        }
