"""Load generator for the serving daemon.

Drives mixed-tenant request traffic against a :class:`ServeDaemon` —
either in-process (``daemon.submit``) or over its HTTP front — and
records client-observed latency in bounded quantile sketches.

Two modes:

``open``
    Open-loop Poisson arrivals: inter-arrival gaps are exponential draws
    from a seeded RNG at the offered ``rate`` (requests/sec), fired on a
    wall-clock schedule by a pool of client threads regardless of
    completion — the load that exposes queueing delay.  The schedule,
    tenant mix and request sizes are all pre-generated from the seed, so
    two runs offer byte-identical traffic.

``closed``
    Closed-loop saturation: ``clients`` threads each submit back-to-back
    (next request only after the previous completes) until the duration
    elapses — the load that measures peak sustained throughput.

Every request slices its feature rows cyclically from the caller's input
matrix; with ``capture=True`` the (tenant, seq, rows, proba) of every
successful request is kept so :func:`replay_capture` can re-score the
whole run request-by-request against a fresh cache and prove the
micro-batched results bit-identical (``max_abs_diff == 0.0``).
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
import urllib.parse

import numpy as np

from repro.obs.sketch import QuantileSketch
from repro.utils.errors import ValidationError

__all__ = ["build_requests", "replay_capture", "run_loadgen"]


class _InProcessTarget:
    """Scores through a live :class:`ServeDaemon` object."""

    def __init__(self, daemon, *, timeout: float) -> None:
        self.daemon = daemon
        self.timeout = timeout

    def score(self, tenant: str, X: np.ndarray):
        pending = self.daemon.submit(tenant, X)
        proba = pending.result(self.timeout)
        return pending.seq, proba


class _HTTPTarget:
    """Scores through a daemon's HTTP front (JSON wire format).

    Every client thread keeps one persistent HTTP/1.1 keep-alive
    connection (``http.client`` sets ``TCP_NODELAY`` on connect).  A
    request that fails in flight is never resent -- it may already have
    been admitted and consumed a ``seq`` -- so it counts as an error, the
    connection is dropped, and that thread's next request reconnects.
    """

    def __init__(self, url: str, *, timeout: float) -> None:
        parts = urllib.parse.urlsplit(url)
        self._connection_class = (http.client.HTTPSConnection
                                  if parts.scheme == "https"
                                  else http.client.HTTPConnection)
        self.netloc = parts.netloc
        self.prefix = parts.path.rstrip("/")
        self.timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connection_class(self.netloc, timeout=self.timeout)
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    def score(self, tenant: str, X: np.ndarray):
        body = json.dumps({"x": X.tolist()}).encode("utf-8")
        conn = self._connection()
        try:
            conn.request("POST", f"{self.prefix}/v1/score/{tenant}", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
        except Exception:
            conn.close()
            self._local.conn = None
            raise
        if resp.status != 200:
            raise RuntimeError(f"HTTP {resp.status} {resp.reason}: "
                               f"{data[:200].decode('utf-8', 'replace')}")
        payload = json.loads(data)
        return payload["seq"], np.asarray(payload["proba"], dtype=np.float64)

    def close(self) -> None:
        with self._lock:
            for conn in self._connections:
                conn.close()
            self._connections.clear()


def build_requests(
    X: np.ndarray,
    tenants: list[str],
    *,
    count: int,
    rows_per_request: tuple[int, int] = (1, 8),
    seed: int = 0,
) -> list[tuple[str, np.ndarray]]:
    """Pre-generate a deterministic mixed-tenant request list.

    Each request draws a tenant (uniform) and a row count (uniform in
    ``rows_per_request`` inclusive) from the seeded RNG, slicing rows
    cyclically from ``X`` so the traffic content is reproducible.
    """
    if not tenants:
        raise ValidationError("loadgen needs at least one tenant")
    lo, hi = rows_per_request
    if not (1 <= lo <= hi):
        raise ValidationError(
            f"rows_per_request must satisfy 1 <= lo <= hi, got {lo, hi}"
        )
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < hi:
        raise ValidationError(
            f"input matrix must be 2-D with >= {hi} rows, got shape {X.shape}"
        )
    rng = np.random.default_rng(seed)
    requests = []
    cursor = 0
    n_rows = X.shape[0]
    for _ in range(count):
        tenant = tenants[int(rng.integers(len(tenants)))]
        n = int(rng.integers(lo, hi + 1))
        if cursor + n > n_rows:
            cursor = 0
        requests.append((tenant, X[cursor:cursor + n]))
        cursor += n
    return requests


def _poisson_schedule(rate: float, duration: float, seed: int) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process at ``rate`` req/s."""
    rng = np.random.default_rng(seed)
    offsets = []
    t = float(rng.exponential(1.0 / rate))
    while t < duration:
        offsets.append(t)
        t += float(rng.exponential(1.0 / rate))
    return offsets


def run_loadgen(
    target,
    X: np.ndarray,
    tenants: list[str],
    *,
    mode: str = "open",
    duration: float = 2.0,
    rate: float = 200.0,
    clients: int = 4,
    rows_per_request: tuple[int, int] = (1, 8),
    seed: int = 0,
    capture: bool = False,
    timeout: float = 30.0,
) -> dict:
    """Drive mixed-tenant load at a daemon; returns the traffic summary.

    ``target`` is a live :class:`~repro.serve.daemon.ServeDaemon` or an
    HTTP base URL string (``http://host:port``).  See the module
    docstring for the two modes.  The result dict carries request/row
    counts, achieved rows/sec, client-observed latency percentiles
    (overall and per tenant), and — with ``capture=True`` — the per-
    request ``(tenant, seq, X, proba)`` capture list for
    :func:`replay_capture`.
    """
    if mode not in ("open", "closed"):
        raise ValidationError(f"unknown loadgen mode {mode!r} (open/closed)")
    if duration <= 0:
        raise ValidationError("duration must be > 0")
    if clients < 1:
        raise ValidationError("clients must be >= 1")
    if isinstance(target, str):
        target = _HTTPTarget(target, timeout=timeout)
    elif hasattr(target, "submit"):
        # a live ServeDaemon (its own .score() hides the seq we need)
        target = _InProcessTarget(target, timeout=timeout)

    if mode == "open":
        if rate <= 0:
            raise ValidationError("open-loop mode needs a rate > 0")
        schedule = _poisson_schedule(rate, duration, seed)
        count = len(schedule)
    else:
        schedule = None
        # closed-loop request pool is cycled through; size it generously
        count = max(4096, clients * 64)
    requests = build_requests(
        X, tenants, count=count, rows_per_request=rows_per_request, seed=seed
    )

    lock = threading.Lock()
    latency = QuantileSketch()
    per_tenant: dict[str, dict] = {
        t: {"requests": 0, "rows": 0, "latency": QuantileSketch()}
        for t in tenants
    }
    captured: list[tuple[str, int, np.ndarray, np.ndarray]] = []
    errors = [0]
    counter = itertools.count()
    start = time.perf_counter()
    deadline = start + duration

    def fire(index: int) -> None:
        tenant, rows = requests[index]
        t0 = time.perf_counter()
        try:
            seq, proba = target.score(tenant, rows)
        except Exception as exc:  # noqa: BLE001 — a failed request is a
            # counted error, never a dead client thread
            with lock:
                errors[0] += 1
                if errors[0] == 1:
                    summary["first_error"] = f"{type(exc).__name__}: {exc}"
            return
        elapsed = time.perf_counter() - t0
        with lock:
            latency.add(elapsed)
            stats = per_tenant[tenant]
            stats["requests"] += 1
            stats["rows"] += rows.shape[0]
            stats["latency"].add(elapsed)
            if capture:
                captured.append((tenant, seq, rows, proba))

    def open_worker() -> None:
        while True:
            i = next(counter)
            if i >= len(schedule):
                return
            wait = start + schedule[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            fire(i)

    def closed_worker() -> None:
        while time.perf_counter() < deadline:
            fire(next(counter) % len(requests))

    summary: dict = {}
    worker = open_worker if mode == "open" else closed_worker
    threads = [
        threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if isinstance(target, _HTTPTarget):
        target.close()

    ok = latency.count
    rows_ok = sum(stats["rows"] for stats in per_tenant.values())
    lat = latency.summary() if ok else {}
    summary.update({
        "mode": mode,
        "duration": duration,
        "elapsed_seconds": elapsed,
        "clients": clients,
        "seed": seed,
        "rows_per_request": list(rows_per_request),
        "requests": ok,
        "rows": rows_ok,
        "errors": errors[0],
        "achieved_rps": ok / elapsed if elapsed > 0 else 0.0,
        "rows_per_sec": rows_ok / elapsed if elapsed > 0 else 0.0,
        "latency": {
            key: lat.get(key) for key in
            ("count", "mean", "p50", "p90", "p99", "max")
        } if ok else {},
        "per_tenant": {
            tenant: {
                "requests": stats["requests"],
                "rows": stats["rows"],
                "p50": stats["latency"].percentile(50)
                if stats["latency"].count else None,
                "p99": stats["latency"].percentile(99)
                if stats["latency"].count else None,
            }
            for tenant, stats in per_tenant.items()
        },
    })
    if mode == "open":
        summary["offered_rate"] = rate
        summary["offered_requests"] = len(schedule)
    if capture:
        summary["capture"] = captured
    return summary


def replay_capture(root, capture, *, micro_batch_rows: int,
                   n_draws: int = 1) -> float:
    """Re-score a captured run request-by-request; returns max abs diff.

    Loads every tenant fresh from ``root`` (restoring the artifact's
    saved RNG state, exactly like the daemon's first load) and replays
    each tenant's captured requests one at a time in ``seq`` order.  The
    padded capacity must match the live run's ``micro_batch_rows`` —
    padded execution is bit-stable only at a fixed capacity.  A return of
    exactly ``0.0`` proves the micro-batched daemon results equal
    per-request scoring bit for bit.
    """
    from repro.serve.registry import PlanCache

    cache = PlanCache(
        root, capacity=1 + len({c[0] for c in capture}) if capture else 1,
        n_draws=n_draws, micro_batch_rows=micro_batch_rows,
    )
    by_tenant: dict[str, list] = {}
    for tenant, seq, rows, proba in capture:
        by_tenant.setdefault(tenant, []).append((seq, rows, proba))
    max_abs_diff = 0.0
    for tenant, items in by_tenant.items():
        items.sort(key=lambda item: item[0])
        seqs = [seq for seq, _, _ in items]
        if seqs != list(range(len(seqs))):
            raise ValidationError(
                f"capture for tenant {tenant!r} is not a complete seq "
                f"prefix (got {seqs[:5]}...); replay needs every request "
                f"from a fresh daemon"
            )
        plan = cache.get(tenant).plan
        for _seq, rows, proba in items:
            ref = plan.execute([rows], capacity=micro_batch_rows)[0]
            if proba.shape != ref.shape:
                raise ValidationError(
                    f"capture shape mismatch for tenant {tenant!r}: "
                    f"{proba.shape} vs {ref.shape}"
                )
            diff = float(np.max(np.abs(ref - proba))) if ref.size else 0.0
            max_abs_diff = max(max_abs_diff, diff)
    return max_abs_diff
