"""Serving event loop: the daemon's HTTP front and its only scorer.

Wire format (JSON over HTTP/1.1, documented in DESIGN.md):

``POST /v1/score/<tenant>``
    Request body ``{"x": [[...row...], ...]}`` (one or more feature rows).
    Response ``200`` with ``{"tenant", "seq", "rows", "proba", "labels"}``
    — ``seq`` is the tenant-local admission number (per-tenant scoring
    order), ``proba`` the class-probability rows, ``labels`` the argmax
    class labels.  Errors: ``404`` unknown tenant, ``400`` malformed body
    or bad shape (including a request larger than the micro-batch
    capacity), ``503`` while shutting down, ``500`` anything else.

``POST /v1/admin/rollback/<tenant>`` / ``POST /v1/admin/promote/<tenant>``
    One-command lifecycle admin over the daemon's artifact lineage:
    rollback flips the active pointer back to the previous version,
    promote activates the latest candidate/shadow version.  Response
    ``200`` with ``{"tenant", "action", "active", "generation", "file"}``.
    Errors: ``409`` nothing to roll back / no candidate, ``400`` other
    lineage errors (including ``manage_lineage=False``).

``GET /v1/tenants``
    ``{"root", "known": [...], "loaded": {...}}`` — every bundle under
    the artifact root plus per-entry cache stats for hot tenants.

``GET /v1/stats``
    Daemon counters: batcher (batches, coalescing fill) and cache
    (hits/misses/evictions/reloads) statistics.

``GET /healthz``
    ``{"status": "ok"}`` liveness probe.

``GET /metrics``
    Prometheus text-format 0.0.4 exposition of the live registry (same
    rendering as ``repro.obs.exporters``).

One thread runs a :mod:`selectors` loop that is both the HTTP front and
the :class:`~repro.serve.batcher.MicroBatcher`'s executor.  On each
wake-up it accepts new connections, reads every readable socket and frames
every complete request, routes each one (a score request is submitted to
the batcher's queues), drains the queues inline — same-tenant requests
that arrived together share one ``plan.execute`` — and writes the
responses.  Nothing waits for a linger, and TCP backpressure bounds what
one wake-up can take in.  Sockets are non-blocking: each connection keeps
an input buffer (partial and pipelined requests, answered in order) and an
output buffer that waits for ``EVENT_WRITE`` while the kernel buffer is
full, and a connection with unsent output is not read, so a slow or
stalled client never blocks the loop.  Admin promote/rollback, hot reloads
and ``/metrics`` rendering run inline on the loop.  In-process callers
submit from their own threads and wake the loop through a socket pair;
with ``port=None`` the loop has only that socket.  Every response leaves in
one send on a ``TCP_NODELAY`` socket, and every POST body is consumed or
its connection closed.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import threading
import time
from collections import deque
from email.utils import formatdate
from http import HTTPStatus

import numpy as np

from repro.obs.exporters.prometheus import CONTENT_TYPE, render_prometheus
from repro.obs.logging import get_logger
from repro.utils.errors import ArtifactError, ValidationError

__all__ = ["DaemonHTTPServer"]

#: refuse request bodies larger than this many bytes (64 MiB)
MAX_BODY_BYTES = 64 * 1024 * 1024
#: refuse a request line plus headers longer than this many bytes
MAX_HEAD_BYTES = 64 * 1024
#: bytes taken from a readable socket per wake-up
RECV_BYTES = 256 * 1024
SERVER_VERSION = f"repro-serve/1 Python/{sys.version.split()[0]}"
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE
#: selector data of the wake-up socket and of the listening socket
_WAKE = "wake"
_ACCEPT = "accept"

logger = get_logger("repro.serve.server")


class _Connection:
    """One accepted client socket and its buffers."""

    __slots__ = ("sock", "inbuf", "replies", "outbuf", "close_after",
                 "continued", "events")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        #: responses in request order: bytes, or ``(tenant, pending)`` for a
        #: score request that the batcher has not answered yet
        self.replies: deque = deque()
        self.outbuf = bytearray()
        #: read no further requests; close once every reply is sent
        self.close_after = False
        #: "100 Continue" was sent for the request at the head of ``inbuf``
        self.continued = False
        self.events = _READ

    def send(self, data) -> int:
        """One non-blocking write; returns the bytes the kernel took."""
        return self.sock.send(data)


def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]]:
    """``(method, target, version, headers)`` of one request head."""
    lines = head.decode("latin-1").split("\r\n")
    words = lines[0].split()
    if len(words) != 3 or not words[2].startswith("HTTP/"):
        raise ValueError(f"bad request line {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon:
            raise ValueError(f"bad header line {line!r}")
        headers.setdefault(name.strip().lower(), value.strip())
    return words[0], words[1], words[2], headers


def _error_status(exc: Exception) -> int:
    """HTTP status of a failed score request."""
    if isinstance(exc, ArtifactError):
        return 404 if "no artifact file" in str(exc) else 400
    if isinstance(exc, ValidationError):
        return 503 if "stopped" in str(exc) else 400
    return 500


class DaemonHTTPServer:
    """The serving event loop, with an HTTP front bound to a daemon.

    ``batcher`` is the :class:`~repro.serve.batcher.MicroBatcher` this
    loop drains; ``daemon`` (a :class:`~repro.serve.daemon.ServeDaemon`)
    answers the HTTP routes.  ``port=0`` binds an ephemeral port (read
    :attr:`port` / :attr:`url` after :meth:`start`); ``port=None`` serves
    in-process submitters only.
    """

    def __init__(self, batcher, *, daemon=None, host: str = "127.0.0.1",
                 port: int | None = None) -> None:
        self._batcher = batcher
        self._daemon = daemon
        self.host = host
        self._requested_port = None if port is None else int(port)
        self._thread: threading.Thread | None = None
        self._listener: socket.socket | None = None
        self._stopping = False
        self._woken = False
        self._date_second = -1
        self._date = ""

    @property
    def running(self) -> bool:
        return self._thread is not None

    @property
    def port(self) -> int | None:
        if self._listener is None:
            return self._requested_port
        return self._listener.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "DaemonHTTPServer":
        if self._thread is not None:
            raise ValidationError("daemon HTTP server already started")
        self._sel = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        for sock in (self._wake_r, self._wake_w):
            sock.setblocking(False)
        self._sel.register(self._wake_r, _READ, _WAKE)
        if self._requested_port is not None:
            try:
                listener = socket.create_server(
                    (self.host, self._requested_port), backlog=128)
            except OSError:
                self._close_selector()
                raise
            listener.setblocking(False)
            self._sel.register(listener, _READ, _ACCEPT)
            self._listener = listener
        self._conns: set[_Connection] = set()
        #: connections with replies to send after the next drain
        self._busy: set[_Connection] = set()
        self._rbuf = bytearray(RECV_BYTES)
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, answer and drain what is queued, close everything."""
        if self._thread is None:
            return
        self._stopping = True
        self._wakeup_socket()
        self._thread.join(timeout=30.0)
        self._thread = None
        self._listener = None

    def __enter__(self) -> "DaemonHTTPServer":
        return self.start() if not self.running else self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _wakeup_socket(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # buffer full: a wake-up is pending; closed: stopped
            pass

    def _wake(self) -> None:
        """Batcher hook after every submit: wake the loop from other threads."""
        if self._woken or self._batcher.on_executor():
            return
        self._woken = True
        self._wakeup_socket()

    # -- the loop ------------------------------------------------------------

    def _run(self) -> None:
        batcher = self._batcher
        batcher.bind(self._wake)
        try:
            while True:
                ready = self._sel.select(0.0 if batcher.has_work else None)
                for key, mask in ready:
                    if key.data is _WAKE:
                        try:
                            self._wake_r.recv(4096)
                        except BlockingIOError:
                            pass
                        self._woken = False
                    elif key.data is _ACCEPT:
                        self._accept()
                    elif mask & _READ:
                        self._guarded(self._read, key.data)
                    else:
                        self._busy.add(key.data)
                if self._stopping:
                    break
                batcher.drain()
                self._flush_busy()
        except Exception:  # noqa: BLE001 — log, then drain in the finally
            logger.exception("serving loop failed")
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        """Loop thread, on the way out: drain, answer what is ready, close."""
        batcher = self._batcher
        if self._listener is not None:
            self._sel.unregister(self._listener)
            self._listener.close()
        batcher.close()
        try:
            while batcher.has_work:
                batcher.drain()
            self._flush_busy()
        finally:
            batcher.bind(None)
            for conn in list(self._conns):
                self._close(conn)
            self._close_selector()

    def _close_selector(self) -> None:
        self._sel.close()
        self._wake_r.close()
        self._wake_w.close()

    def _guarded(self, handler, conn: _Connection) -> None:
        """Run one connection's handler; a failure closes that connection."""
        try:
            handler(conn)
        except Exception:  # noqa: BLE001 — one client must not stop the loop
            logger.exception("connection failed")
            self._close(conn)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:  # e.g. out of file descriptors
                logger.warning("accept failed: %s", exc)
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            self._conns.add(conn)
            self._sel.register(sock, _READ, conn)

    def _close(self, conn: _Connection) -> None:
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        self._busy.discard(conn)
        self._sel.unregister(conn.sock)
        conn.sock.close()

    def _read(self, conn: _Connection) -> None:
        try:
            n = conn.sock.recv_into(self._rbuf)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:  # reset by the peer
            self._close(conn)
            return
        if n == 0:  # the peer sent all it will: answer what is framed, close
            conn.close_after = True
            conn.inbuf.clear()
            self._busy.add(conn)
            return
        if conn.close_after:
            return  # no further request is read on this connection
        conn.inbuf += memoryview(self._rbuf)[:n]
        self._frame(conn)
        if conn.replies:
            self._busy.add(conn)

    def _frame(self, conn: _Connection) -> None:
        """Route every complete request in ``conn.inbuf``, in order."""
        buf = conn.inbuf
        pos = 0
        while not conn.close_after:
            while buf.startswith(b"\r\n", pos):
                pos += 2
            end = buf.find(b"\r\n\r\n", pos)
            if end < 0:
                if len(buf) - pos > MAX_HEAD_BYTES:
                    self._refuse(conn, 431, "request head too large")
                break
            try:
                method, target, version, headers = _parse_head(buf[pos:end])
            except ValueError as exc:
                self._refuse(conn, 400, str(exc))
                break
            # read the body on every route before routing, so keep-alive
            # stays framed; GET without a Content-Length has no body
            declared = headers.get("content-length",
                                   "" if method == "POST" else "0")
            length = int(declared) if declared.isdecimal() else -1
            start = end + 4
            if 0 <= length <= MAX_BODY_BYTES:
                if len(buf) < start + length:
                    if (not conn.continued and headers.get("expect", "")
                            .lower() == "100-continue"):
                        conn.continued = True
                        conn.replies.append(CONTINUE)
                    break
                body = buf[start:start + length]
                pos = start + length
                connection = headers.get("connection", "").lower()
                conn.close_after = connection == "close" or (
                    version < "HTTP/1.1" and connection != "keep-alive")
            else:  # unusable Content-Length: answer, then close
                body = None
                pos = len(buf)
                conn.close_after = True
            conn.continued = False
            conn.replies.append(self._route(
                method, target.split("?", 1)[0], body,
                headers.get("content-length")))
        del buf[:pos]

    def _refuse(self, conn: _Connection, status: int, message: str) -> None:
        conn.replies.append(self._json(status, {"error": message},
                                       closing=True))
        conn.close_after = True
        conn.inbuf.clear()

    def _flush_busy(self) -> None:
        for conn in list(self._busy):
            self._guarded(self._flush, conn)

    def _flush(self, conn: _Connection) -> None:
        """Send every answered reply, in request order, in one write."""
        replies = conn.replies
        while replies:
            reply = replies[0]
            if type(reply) is not bytes:
                tenant, pending = reply
                if not pending.done():
                    break
                reply = self._scored(tenant, pending)
            replies.popleft()
            conn.outbuf += reply
        if conn.outbuf:
            try:
                sent = conn.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:  # the peer went away
                self._close(conn)
                return
            del conn.outbuf[:sent]
        if not replies:
            self._busy.discard(conn)
            if conn.close_after and not conn.outbuf:
                self._close(conn)
                return
        events = _WRITE if conn.outbuf else _READ
        if events != conn.events:
            conn.events = events
            self._sel.modify(conn.sock, events, conn)

    # -- responses -----------------------------------------------------------

    def _response(self, status: int, content_type: str, body: bytes, *,
                  closing: bool = False) -> bytes:
        """Status line, headers, blank line and body as one buffer."""
        now = int(time.time())
        if now != self._date_second:
            self._date_second = now
            self._date = formatdate(now, usegmt=True)
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {SERVER_VERSION}\r\n"
            f"Date: {self._date}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n" if closing else "") + "\r\n"
        )
        return head.encode("latin-1") + body

    def _json(self, status: int, payload: dict, *,
              closing: bool = False) -> bytes:
        return self._response(status, "application/json",
                              json.dumps(payload).encode(), closing=closing)

    def _error(self, status: int, exc: Exception, request: str, *,
               closing: bool = False) -> bytes:
        """JSON error reply; an unexpected failure (500) is logged."""
        message = str(exc)
        if status == 500:
            logger.error("%s failed: %s", request, exc)
            message = f"{type(exc).__name__}: {exc}"
        return self._json(status, {"error": message}, closing=closing)

    # -- routes --------------------------------------------------------------

    def _route(self, method: str, path: str, body: bytearray | None,
               declared: str | None):
        """One request's reply: bytes, or ``(tenant, pending)`` to score."""
        closing = body is None
        if method == "GET":
            return self._get(path, closing)
        if method != "POST":
            return self._json(501, {"error": f"unsupported method {method}"},
                              closing=True)
        for action in ("rollback", "promote"):
            prefix = f"/v1/admin/{action}/"
            if path.startswith(prefix):
                return self._admin(action, path[len(prefix):], closing)
        if not path.startswith("/v1/score/"):
            return self._json(404, {"error": f"no route for POST {path}"},
                              closing=closing)
        tenant = path[len("/v1/score/"):]
        try:
            if body is None:
                raise ValidationError(
                    f"request needs a Content-Length of 0 to {MAX_BODY_BYTES}"
                    f" bytes, got {declared!r}")
            if not body:
                raise ValidationError("empty request body")
            try:
                payload = json.loads(body)
            except (ValueError, UnicodeDecodeError) as exc:
                raise ValidationError(f"request body is not JSON: {exc}")
            if not isinstance(payload, dict) or "x" not in payload:
                raise ValidationError('request JSON must carry an "x" key')
            try:
                X = np.asarray(payload["x"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f'"x" is not a numeric matrix: {exc}')
            return tenant, self._daemon.submit(tenant, X)
        except Exception as exc:  # noqa: BLE001 — every request is answered
            return self._error(_error_status(exc), exc, f"POST {path}",
                               closing=closing)

    def _scored(self, tenant: str, pending) -> bytes:
        """The reply to a score request the batcher has answered."""
        try:
            if pending.error is not None:
                raise pending.error
            proba = pending.proba
            # labels come from the plan that scored the rows
            labels = pending.plan.labels(proba)
            return self._json(200, {
                "tenant": tenant,
                "seq": pending.seq,
                "rows": int(proba.shape[0]),
                "proba": proba.tolist(),
                "labels": np.asarray(labels).tolist(),
            })
        except Exception as exc:  # noqa: BLE001 — every request is answered
            return self._error(_error_status(exc), exc,
                               f"POST /v1/score/{tenant}")

    def _get(self, path: str, closing: bool) -> bytes:
        daemon = self._daemon
        try:
            if path == "/healthz":
                return self._json(200, {"status": "ok"}, closing=closing)
            if path == "/v1/tenants":
                cache = daemon.cache
                return self._json(200, {
                    "root": str(cache.root),
                    "known": cache.known_tenants(),
                    "loaded": cache.stats()["loaded"],
                }, closing=closing)
            if path == "/v1/stats":
                return self._json(200, daemon.stats(), closing=closing)
            if path in ("/metrics", "/"):
                return self._response(200, CONTENT_TYPE,
                                      render_prometheus().encode("utf-8"),
                                      closing=closing)
            return self._json(404, {"error": f"no route for GET {path}"},
                              closing=closing)
        except Exception as exc:  # noqa: BLE001 — every request is answered
            return self._error(500, exc, f"GET {path}", closing=closing)

    def _admin(self, action: str, tenant: str, closing: bool) -> bytes:
        """Lifecycle admin: promote / rollback via the daemon's lineage."""
        try:
            version = getattr(self._daemon, action)(tenant)
        except (ArtifactError, ValidationError) as exc:
            message = str(exc)
            conflict = "no previous" in message or "no candidate" in message
            return self._error(409 if conflict else 400, exc,
                               f"POST /v1/admin/{action}/{tenant}",
                               closing=closing)
        except Exception as exc:  # noqa: BLE001 — every request is answered
            return self._error(500, exc, f"POST /v1/admin/{action}/{tenant}",
                               closing=closing)
        return self._json(200, {
            "tenant": tenant,
            "action": action,
            "active": version.content_hash,
            "generation": version.generation,
            "file": version.file,
        }, closing=closing)
