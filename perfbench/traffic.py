"""Keep-alive HTTP load for the serving daemon: open and closed loops.

Open loop (independent telemetry agents): requests follow a seeded Poisson
schedule and each is timed from when it was *due*, not from when it was
sent, so a stall on one connection shows up in the latency of every request
queued behind it.  How late the generator ran (send time minus due time) is
recorded per request.  Closed loop (batch jobs waiting for replies): each
client sends its next request as soon as the previous reply arrives, and
requests are timed from the send.

Every client owns one persistent HTTP/1.1 connection.  Request bodies are
encoded before the clock starts; the clock stops when the response body has
been read.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: share of a step's requests that must finish within the latency limit
PASS_SHARE = 0.99


def poisson_schedule(rate: float, duration: float, seed: int) -> list[float]:
    """Arrival offsets (s) of a Poisson process at ``rate`` per second."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    offsets = []
    t = float(rng.exponential(1.0 / rate))
    while t < duration:
        offsets.append(t)
        t += float(rng.exponential(1.0 / rate))
    return offsets


def poisson_count(rate: float, count: int, seed: int) -> list[float]:
    """Offsets (s) of the first ``count`` arrivals of a Poisson process."""
    if rate <= 0 or count < 1:
        raise ValueError("rate and count must be positive")
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, size=count)
    return np.cumsum(gaps).tolist()


def request_plan(count: int, tenants: list[str], rows: tuple[int, int],
                 pool_rows: int, seed: int) -> list[tuple[str, int, int]]:
    """``count`` seeded ``(tenant, first_row, n_rows)`` requests.

    Tenants are drawn uniformly, row counts uniformly in ``rows``
    (inclusive), and rows are sliced cyclically from a pool of
    ``pool_rows`` rows.
    """
    lo, hi = rows
    if not 1 <= lo <= hi <= pool_rows:
        raise ValueError(f"bad row range {rows} for a pool of {pool_rows}")
    rng = np.random.default_rng(seed)
    plan = []
    cursor = 0
    for _ in range(count):
        tenant = tenants[int(rng.integers(len(tenants)))]
        n = int(rng.integers(lo, hi + 1))
        if cursor + n > pool_rows:
            cursor = 0
        plan.append((tenant, cursor, n))
        cursor += n
    return plan


def encode_body(X: np.ndarray) -> bytes:
    return json.dumps({"x": X.tolist()}).encode("utf-8")


class KeepAliveClient:
    """One persistent HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int, *, timeout: float) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=timeout)

    def _connect(self) -> None:
        # like common HTTP clients (curl, urllib3, Go net/http), send
        # without Nagle's delay; the daemon's side of the socket is untouched
        if self.conn.sock is None:
            self.conn.connect()
            self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY,
                                      1)

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        """Send one request; returns ``(status, raw body)``."""
        self._connect()
        self.conn.request("POST", path, body=body,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            raise OSError(f"GET {path} returned {resp.status}")
        return json.loads(data)

    def get_text(self, path: str) -> str:
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            raise OSError(f"GET {path} returned {resp.status}")
        return data.decode("utf-8")

    def close(self) -> None:
        self.conn.close()


@dataclass
class Outcome:
    """One request: what was sent, when, and what came back."""

    index: int
    tenant: str
    due: float
    sent: float
    done: float
    ok: bool
    seq: int | None = None
    proba: np.ndarray | None = None
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from due (open loop) or send (closed loop) to reply."""
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class StepResult:
    rate: float
    outcomes: list[Outcome] = field(default_factory=list)
    stopped_early: bool = False
    planned: int = 0
    elapsed: float = 0.0


def send(client: KeepAliveClient, index: int, tenant: str, body: bytes,
          due: float) -> Outcome:
    sent = time.perf_counter()
    try:
        status, raw = client.post(f"/v1/score/{tenant}", body)
    except (OSError, http.client.HTTPException) as exc:
        done = time.perf_counter()
        client.conn.close()  # reconnects on the next request
        return Outcome(index, tenant, due, sent, done, False,
                       error=f"{type(exc).__name__}: {exc}")
    done = time.perf_counter()
    if status != 200:
        return Outcome(index, tenant, due, sent, done, False,
                       error=f"HTTP {status}: {raw[:200]!r}")
    payload = json.loads(raw)
    return Outcome(index, tenant, due, sent, done, True, seq=payload["seq"],
                   proba=np.asarray(payload["proba"], dtype=np.float64))


def run_open_loop(clients: list[KeepAliveClient], offsets: list[float],
                  requests: list[tuple[str, bytes]], *, rate: float,
                  stop_late: float | None) -> StepResult:
    """Fire ``requests[i]`` at ``offsets[i]`` over the given connections.

    A free connection takes the next request in schedule order and sends it
    when due (or at once, if already late).  With ``stop_late`` set, the
    step ends early as soon as a request is sent more than ``stop_late``
    seconds after it was due: the generator has fallen behind, so the
    offered rate is not being sustained.
    """
    result = StepResult(rate=rate, planned=len(offsets))
    lock = threading.Lock()
    cursor = [0]
    stop = threading.Event()
    start = time.perf_counter() + 0.005

    def worker(client: KeepAliveClient) -> None:
        while not stop.is_set():
            with lock:
                i = cursor[0]
                if i >= len(offsets):
                    return
                cursor[0] += 1
            due = start + offsets[i]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            if stop_late is not None and time.perf_counter() - due > stop_late:
                result.stopped_early = True
                stop.set()
                return
            tenant, body = requests[i]
            outcome = send(client, i, tenant, body, due)
            with lock:
                result.outcomes.append(outcome)

    threads = [threading.Thread(target=worker, args=(c,), daemon=True)
               for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.elapsed = time.perf_counter() - start
    result.outcomes.sort(key=lambda o: o.index)
    return result


def run_closed_loop(clients: list[KeepAliveClient],
                    requests: list[tuple[str, bytes]], *,
                    duration: float) -> StepResult:
    """Each client sends back-to-back until ``duration`` has elapsed.

    Clients take requests from ``requests`` in order (shared cursor, no
    wrap-around); the list must be long enough for the duration.
    """
    result = StepResult(rate=0.0)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()
    deadline = start + duration

    def worker(client: KeepAliveClient) -> None:
        while time.perf_counter() < deadline:
            with lock:
                i = cursor[0]
                if i >= len(requests):
                    return
                cursor[0] += 1
            tenant, body = requests[i]
            outcome = send(client, i, tenant, body, time.perf_counter())
            with lock:
                result.outcomes.append(outcome)

    threads = [threading.Thread(target=worker, args=(c,), daemon=True)
               for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.elapsed = time.perf_counter() - start
    result.planned = len(result.outcomes)
    result.outcomes.sort(key=lambda o: o.index)
    return result


def step_passes(step: StepResult, limit: float) -> bool:
    """True when the step sustained its rate within the latency limit.

    At least :data:`PASS_SHARE` of the planned requests must have succeeded
    within ``limit`` seconds of being due; a failed request, or one never
    sent because the step stopped early, counts as a miss.  A step that
    stopped early (growing backlog) never passes.
    """
    if step.stopped_early or step.planned == 0:
        return False
    hits = sum(1 for o in step.outcomes if o.ok and o.latency <= limit)
    return hits >= PASS_SHARE * step.planned


def max_rate(steps: list[StepResult], limit: float) -> float:
    """Highest rate of an unbroken run of passing steps from the base.

    ``steps`` are in ladder order (ascending rate); the first failing step
    ends the ladder, so a pass above a failure does not count.  Returns 0.0
    when even the base step fails.
    """
    best = 0.0
    for step in steps:
        if not step_passes(step, limit):
            break
        best = step.rate
    return best
