"""Prometheus text-format exposition over stdlib ``http.server``.

:func:`render_prometheus` turns a :class:`~repro.obs.metrics.MetricsRegistry`
snapshot into text-format 0.0.4 exposition: counters and gauges map
directly, histograms export as *summaries* (``{quantile="0.5|0.9|0.99"}``
series plus ``_sum`` / ``_count``), and dotted repro metric names
(``serve.latency``) sanitize to Prometheus names (``serve_latency``).

:class:`PrometheusExporter` serves that rendering from a daemon-thread
``ThreadingHTTPServer`` — zero dependencies, opt-in, and scrape-safe
against a live registry (rendering works off snapshots, and the bounded
histogram sketches copy their sample buffer before quantiling).

    from repro.obs.exporters import PrometheusExporter

    with PrometheusExporter(port=9464) as exp:
        ...                      # curl http://127.0.0.1:9464/metrics
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.metrics import Counter, Gauge, Histogram, get_metrics
from repro.utils.errors import ValidationError

__all__ = [
    "PrometheusExporter",
    "SingleSendHandler",
    "render_prometheus",
    "sanitize_metric_name",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_QUANTILES = ((0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"))


def sanitize_metric_name(name: str) -> str:
    """Coerce a repro metric name into a legal Prometheus metric name."""
    name = _NAME_BAD_CHARS.sub("_", name)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def _escape_label_value(value) -> str:
    return (str(value)
            .replace("\\", r"\\")
            .replace("\n", r"\n")
            .replace('"', r'\"'))


def _render_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{sanitize_metric_name(str(k))}="{_escape_label_value(labels[k])}"'
        for k in sorted(labels)
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus(registry=None) -> str:
    """Text-format 0.0.4 exposition of a registry snapshot."""
    registry = registry if registry is not None else get_metrics()
    lines: list[str] = []
    for family, type_name, series in registry.collect():
        name = sanitize_metric_name(family)
        prom_type = {"counter": "counter", "gauge": "gauge",
                     "histogram": "summary"}[type_name]
        lines.append(f"# TYPE {name} {prom_type}")
        for labels, metric in series:
            if isinstance(metric, Counter):
                lines.append(f"{name}{_render_labels(labels)} {metric.value}")
            elif isinstance(metric, Gauge):
                if metric.value is None:
                    continue
                lines.append(
                    f"{name}{_render_labels(labels)} {_fmt(metric.value)}"
                )
            elif isinstance(metric, Histogram):
                summary = metric.summary()
                for q, q_label in _QUANTILES:
                    key = f"p{int(q * 100)}"
                    if key not in summary:
                        continue
                    q_labels = dict(labels, quantile=q_label)
                    lines.append(
                        f"{name}{_render_labels(q_labels)} {_fmt(summary[key])}"
                    )
                suffix = _render_labels(labels)
                lines.append(f"{name}_sum{suffix} {_fmt(summary.get('sum', 0.0))}")
                lines.append(f"{name}_count{suffix} {summary['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


class SingleSendHandler(BaseHTTPRequestHandler):
    """Request handler whose responses each leave in one ``sendall``.

    Status line, headers and body are joined before the write, and
    ``TCP_NODELAY`` is set on the accepted socket.  A header write followed
    by a small body write would otherwise sit behind Nagle until the
    client's delayed ACK (~40 ms) on a keep-alive connection.  Shared by
    this exporter and the serving daemon's HTTP front.
    """

    disable_nagle_algorithm = True
    #: set when the connection must close after the reply (sends the header)
    _closing = False

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        """Write status line, headers, blank line and body in one send."""
        self.log_request(status)
        reason = self.responses[status][0]
        head = (
            f"{self.protocol_version} {status} {reason}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n" if self._closing else "") + "\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)


class _Handler(SingleSendHandler):
    """Serves /metrics (and /) from the exporter's registry source."""

    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path.split("?", 1)[0] not in ("/", "/metrics"):
            self._send(404, "text/plain", b"only /metrics is served\n")
            return
        try:
            body = render_prometheus(self.server.registry_source()).encode()
        except Exception as exc:  # registry raced or misbehaved: report, not die
            self._send(500, "text/plain", f"render failed: {exc}\n".encode())
            return
        self._send(200, CONTENT_TYPE, body)

    def log_message(self, *args) -> None:  # keep scrapes off stderr
        return None


class PrometheusExporter:
    """Background exposition endpoint for a metrics registry.

    Parameters
    ----------
    registry:
        Registry to expose.  None (default) re-reads the process-global
        registry on every scrape, so a later ``set_metrics`` is picked up.
    host / port:
        Bind address; ``port=0`` picks a free ephemeral port (see
        :attr:`port` after :meth:`start`).
    """

    def __init__(self, registry=None, *, host: str = "127.0.0.1",
                 port: int = 9464) -> None:
        self._registry = registry
        self.host = host
        self._requested_port = int(port)
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def registry_source(self):
        return self._registry if self._registry is not None else get_metrics()

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
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "PrometheusExporter":
        if self._server is not None:
            raise ValidationError("exporter already started")
        server = ThreadingHTTPServer((self.host, self._requested_port), _Handler)
        server.daemon_threads = True
        server.registry_source = self.registry_source
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-prometheus", daemon=True
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

    def __enter__(self) -> "PrometheusExporter":
        return self.start() if not self.running else self

    def __exit__(self, *exc) -> None:
        self.stop()
