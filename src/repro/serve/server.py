"""Stdlib HTTP front for the serving daemon.

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

The server is a daemon-threaded ``ThreadingHTTPServer``: request handler
threads block on the micro-batcher's :class:`PendingRequest` events while
the single scorer thread does the numpy work, so concurrent clients
coalesce naturally.  Every response leaves in one send on a ``TCP_NODELAY``
socket, and every POST body is consumed or its connection closed.
"""

from __future__ import annotations

import json
import threading
from http.server import ThreadingHTTPServer

import numpy as np

from repro.obs.exporters.prometheus import (
    CONTENT_TYPE,
    SingleSendHandler,
    render_prometheus,
)
from repro.obs.logging import get_logger
from repro.utils.errors import ArtifactError, ValidationError

__all__ = ["DaemonHTTPServer"]

#: refuse request bodies larger than this many bytes (64 MiB)
MAX_BODY_BYTES = 64 * 1024 * 1024

logger = get_logger("repro.serve.server")


class _Handler(SingleSendHandler):
    """Routes requests to the owning daemon's batcher/cache."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def daemon(self):
        return self.server.serve_daemon

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, "application/json", json.dumps(payload).encode())

    def _send_error(self, status: int, exc: Exception) -> None:
        """JSON error reply; an unexpected failure (500) is logged."""
        message = str(exc)
        if status == 500:
            logger.error("%s %s failed: %s", self.command, self.path, exc)
            message = f"{type(exc).__name__}: {exc}"
        self._send_json(status, {"error": message})

    def _read_body(self) -> bytes | None:
        """Read the body on every route; None if Content-Length is unusable."""
        declared = self.headers.get("Content-Length", "")
        length = int(declared) if declared.isdecimal() else -1
        if 0 <= length <= MAX_BODY_BYTES:
            return self.rfile.read(length)
        self._closing = self.close_connection = True
        return None

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif path == "/v1/tenants":
            cache = self.daemon.cache
            self._send_json(200, {
                "root": str(cache.root),
                "known": cache.known_tenants(),
                "loaded": cache.stats()["loaded"],
            })
        elif path == "/v1/stats":
            self._send_json(200, self.daemon.stats())
        elif path in ("/metrics", "/"):
            self._send(200, CONTENT_TYPE, render_prometheus().encode("utf-8"))
        else:
            self._send_json(404, {"error": f"no route for GET {path}"})

    def _do_admin(self, action: str, tenant: str) -> None:
        """Lifecycle admin: promote / rollback via the daemon's lineage."""
        try:
            version = getattr(self.daemon, action)(tenant)
        except (ArtifactError, ValidationError) as exc:
            message = str(exc)
            conflict = "no previous" in message or "no candidate" in message
            self._send_error(409 if conflict else 400, exc)
        except Exception as exc:  # noqa: BLE001 — handler must answer
            self._send_error(500, exc)
        else:
            self._send_json(200, {
                "tenant": tenant,
                "action": action,
                "active": version.content_hash,
                "generation": version.generation,
                "file": version.file,
            })

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        body = self._read_body()  # before routing: keep-alive stays framed
        for action in ("rollback", "promote"):
            prefix = f"/v1/admin/{action}/"
            if path.startswith(prefix):
                self._do_admin(action, path[len(prefix):])
                return
        if not path.startswith("/v1/score/"):
            self._send_json(404, {"error": f"no route for POST {path}"})
            return
        tenant = path[len("/v1/score/"):]
        try:
            if body is None:
                raise ValidationError(
                    f"request needs a Content-Length of 0 to {MAX_BODY_BYTES}"
                    f" bytes, got {self.headers.get('Content-Length')!r}")
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
            pending = self.daemon.submit(tenant, X)
            proba = pending.result(timeout=self.daemon.config.request_timeout)
        except ArtifactError as exc:
            missing = "no artifact file" in str(exc)
            self._send_error(404 if missing else 400, exc)
        except ValidationError as exc:
            self._send_error(503 if "stopped" in str(exc) else 400, exc)
        except TimeoutError as exc:
            self._send_error(504, exc)
        except Exception as exc:  # noqa: BLE001 — handler must answer
            self._send_error(500, exc)
        else:
            # labels come from the plan that scored the rows
            labels = pending.plan.labels(proba)
            self._send_json(200, {
                "tenant": tenant,
                "seq": pending.seq,
                "rows": int(proba.shape[0]),
                "proba": proba.tolist(),
                "labels": np.asarray(labels).tolist(),
            })

    def log_message(self, fmt: str, *args) -> None:  # keep requests off stderr
        logger.debug("http %s", fmt % args)


class DaemonHTTPServer:
    """Background HTTP endpoint bound to a :class:`ServeDaemon`.

    ``port=0`` (the default) binds an ephemeral port; read :attr:`port` /
    :attr:`url` after :meth:`start`.
    """

    def __init__(self, daemon, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self._daemon = daemon
        self.host = host
        self._requested_port = int(port)
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "DaemonHTTPServer":
        if self._server is not None:
            raise ValidationError("daemon HTTP server already started")
        server = ThreadingHTTPServer((self.host, self._requested_port),
                                     _Handler)
        server.daemon_threads = True
        server.serve_daemon = self._daemon
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "DaemonHTTPServer":
        return self.start() if not self.running else self

    def __exit__(self, *exc) -> None:
        self.stop()
