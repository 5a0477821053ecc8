"""ServeDaemon lifecycle and the HTTP wire format."""

import gc
import http.client
import json
import os
import shutil
import statistics
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.artifacts import load_artifact, save_artifact
from repro.obs.metrics import get_metrics
from repro.serve import DaemonConfig, PlanCache, ServeDaemon
from repro.serve import server as server_mod
from repro.serve.daemon import format_daemon_summary
from repro.utils.errors import ValidationError


def _config(root, **overrides):
    defaults = dict(root=str(root), port=0, micro_batch_rows=64,
                    cache_size=8, max_wait=0.0)
    defaults.update(overrides)
    return DaemonConfig(**defaults)


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return json.loads(resp.read())


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.headers.get("Content-Type"), resp.read()


class TestLifecycle:
    def test_in_process_scoring(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root, port=None)) as daemon:
            assert daemon.url is None
            proba = daemon.score(names[0], X_test[:5])
            assert proba.shape[0] == 5
            np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_double_start_rejected(self, tenant_root):
        root, _, _ = tenant_root
        daemon = ServeDaemon(_config(root, port=None)).start()
        try:
            with pytest.raises(ValidationError, match="already started"):
                daemon.start()
        finally:
            daemon.stop()

    def test_stop_returns_stats_and_is_idempotent(self, tenant_root):
        root, names, X_test = tenant_root
        daemon = ServeDaemon(_config(root, port=None)).start()
        daemon.score(names[0], X_test[:3])
        stats = daemon.stop()
        assert stats["batcher"]["requests"] == 1
        assert stats["batcher"]["rows"] == 3
        assert names[0] in stats["cache"]["loaded"]
        assert "daemon.request_seconds" in stats["latency"]
        assert daemon.stop() == {}

    def test_submit_when_stopped_raises(self, tenant_root):
        root, names, X_test = tenant_root
        daemon = ServeDaemon(_config(root, port=None))
        with pytest.raises(ValidationError, match="not running"):
            daemon.submit(names[0], X_test[:1])

    def test_config_overrides_shortcut(self, tenant_root):
        root, _, _ = tenant_root
        daemon = ServeDaemon(root=str(root), port=None)
        assert daemon.config.root == str(root)
        with pytest.raises(ValidationError):
            ServeDaemon(DaemonConfig(), port=None)

    def test_summary_formats(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root, port=None)) as daemon:
            daemon.score(names[0], X_test[:2])
            stats = daemon.stats()
        text = format_daemon_summary(stats)
        assert "1 requests" in text and "cache:" in text
        assert format_daemon_summary({}) == "daemon served no requests"


class TestHTTP:
    def test_score_round_trip(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            payload = _post(f"{daemon.url}/v1/score/{names[0]}",
                            {"x": X_test[:4].tolist()})
            direct = ServeDaemon(_config(root, port=None))
            with direct:
                expected = direct.score(names[0], X_test[:4])
        assert payload["tenant"] == names[0]
        assert payload["rows"] == 4 and payload["seq"] == 0
        np.testing.assert_array_equal(
            np.asarray(payload["proba"]), expected)
        assert len(payload["labels"]) == 4

    def test_health_tenants_stats_metrics(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            daemon.score(names[0], X_test[:2])
            ctype, body = _get(f"{daemon.url}/healthz")
            assert json.loads(body) == {"status": "ok"}
            _, body = _get(f"{daemon.url}/v1/tenants")
            tenants = json.loads(body)
            assert tenants["known"] == names
            assert names[0] in tenants["loaded"]
            _, body = _get(f"{daemon.url}/v1/stats")
            assert json.loads(body)["batcher"]["requests"] == 1
            ctype, body = _get(f"{daemon.url}/metrics")
            assert ctype.startswith("text/plain")
            assert b"daemon_requests_total" in body

    def test_error_mapping(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            cases = [
                (f"/v1/score/ghost", {"x": X_test[:1].tolist()}, 404),
                (f"/v1/score/{names[0]}", {"x": [[1.0, 2.0]]}, 400),
                (f"/v1/score/{names[0]}", {"y": 1}, 400),
                (f"/v1/score/{names[0]}", {"x": "not a matrix"}, 400),
                (f"/nope", {"x": []}, 404),
            ]
            for path, payload, expected in cases:
                with pytest.raises(urllib.error.HTTPError) as err:
                    _post(daemon.url + path, payload)
                assert err.value.code == expected, path
                assert "error" in json.loads(err.value.read())

    def test_get_unknown_route_404(self, tenant_root):
        root, _, _ = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{daemon.url}/v1/unknown")
            assert err.value.code == 404

    def test_http_matches_in_process_bitwise(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            via_http = np.asarray(_post(
                f"{daemon.url}/v1/score/{names[1]}",
                {"x": X_test[:6].tolist()})["proba"])
        cache = PlanCache(root, capacity=8, micro_batch_rows=64)
        plan = cache.get(names[1]).plan
        expected = plan.execute([X_test[:6]], capacity=64)[0]
        np.testing.assert_array_equal(via_http, expected)


def _connect(daemon):
    """A keep-alive client connection (``http.client`` sets TCP_NODELAY)."""
    conn = http.client.HTTPConnection("127.0.0.1", daemon.http.port,
                                      timeout=10)
    conn.connect()
    return conn


def _raw_post(conn, path, body=b"", headers=()):
    """POST with exactly the given headers (no implicit Content-Length)."""
    conn.putrequest("POST", path)
    for name, value in headers:
        conn.putheader(name, value)
    conn.endheaders(body or None)
    resp = conn.getresponse()
    return resp, resp.read()


class TestKeepAliveFraming:
    """A POST answered early must not leave bytes that desync the next
    request on the same HTTP/1.1 connection."""

    @pytest.mark.parametrize("path, status", [
        ("/nope", 404),
        ("/v1/admin/promote/tenant-00", 409),
        ("/v1/admin/rollback/tenant-00", 409),
    ])
    def test_unread_body_is_drained(self, tenant_root, path, status):
        root, _, _ = tenant_root
        body = json.dumps({"x": [[1.0, 2.0, 3.0]]}).encode()
        with ServeDaemon(_config(root)) as daemon:
            conn = _connect(daemon)
            sock = conn.sock
            resp, _ = _raw_post(conn, path, body, [
                ("Content-Length", str(len(body)))])
            assert resp.status == status
            assert resp.getheader("Connection") is None
            conn.request("GET", "/healthz")
            health = conn.getresponse()
            assert health.status == 200
            assert json.loads(health.read()) == {"status": "ok"}
            assert conn.sock is sock  # same connection, still in step
            conn.close()

    @pytest.mark.parametrize("headers", [
        [("Content-Length", str(server_mod.MAX_BODY_BYTES + 1))],
        [("Content-Length", "twelve")],
        [],
    ], ids=["oversized", "non-numeric", "missing"])
    def test_unframed_body_closes_connection(self, tenant_root, headers):
        root, names, _ = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            conn = _connect(daemon)
            resp, raw = _raw_post(conn, f"/v1/score/{names[0]}",
                                  headers=headers)
            assert resp.status == 400
            assert resp.getheader("Connection") == "close"
            assert "Content-Length" in json.loads(raw)["error"]
            conn.request("GET", "/healthz")  # reconnects transparently
            assert conn.getresponse().status == 200
            conn.close()


class TestNonFiniteBody:
    def test_nan_token_is_400_and_the_connection_serves_on(self,
                                                           tenant_root):
        root, names, X_test = tenant_root
        rows = X_test[:2].tolist()
        rows[1][0] = float("nan")
        bad = json.dumps({"x": rows}).encode()
        assert b"NaN" in bad  # json.loads accepts the bare token
        good = json.dumps({"x": X_test[:2].tolist()}).encode()
        path = f"/v1/score/{names[0]}"
        with ServeDaemon(_config(root)) as daemon:
            conn = _connect(daemon)
            sock = conn.sock
            resp, raw = _raw_post(conn, path, bad, [
                ("Content-Length", str(len(bad)))])
            assert resp.status == 400
            assert "NaN" in json.loads(raw)["error"]
            resp, raw = _raw_post(conn, path, good, [
                ("Content-Length", str(len(good)))])
            assert resp.status == 200
            assert json.loads(raw)["seq"] == 0  # the NaN request got none
            assert conn.sock is sock
            conn.close()


class TestStageMetrics:
    def test_metrics_expose_every_serve_stage(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            _post(f"{daemon.url}/v1/score/{names[0]}",
                  {"x": X_test[:2].tolist()})
            _, body = _get(f"{daemon.url}/metrics")
        for stage in ("scale", "split", "generate", "merge", "predict"):
            line = f'serve_stage_seconds_count{{stage="{stage}"}} 1\n'
            assert line.encode() in body, stage

    def test_padded_rows_count_executed_rows(self, tenant_root):
        root, names, X_test = tenant_root
        with ServeDaemon(_config(root)) as daemon:
            daemon.score(names[0], X_test[:2])    # runs 16 rows
            daemon.score(names[0], X_test[:17])   # runs 32 rows
            batcher = daemon.stats()["batcher"]
            _, body = _get(f"{daemon.url}/metrics")
        assert batcher["rows"] == 19
        assert batcher["padded_rows"] == 48
        assert b"daemon_padded_rows_total 48" in body

    def test_full_collections_are_timed_while_running(self, tenant_root):
        root, _, _ = tenant_root
        callbacks = list(gc.callbacks)
        with ServeDaemon(_config(root)) as daemon:
            pauses = get_metrics().histogram("daemon.gc_pause_seconds")
            before = pauses.count
            gc.collect()
            assert pauses.count >= before + 1
            summary = daemon.stats()["latency"]["daemon.gc_pause_seconds"]
            _, body = _get(f"{daemon.url}/metrics")
        assert summary["count"] >= 1
        assert 0.0 < summary["max"] < 60.0
        count_line = [line for line in body.decode().splitlines()
                      if line.startswith("daemon_gc_pause_seconds_count ")]
        assert count_line and float(count_line[0].split()[1]) >= 1
        assert gc.callbacks == callbacks


class _CountingWriter:
    """Socket-writer proxy recording every write a handler makes."""

    def __init__(self, raw, log):
        self._raw = raw
        self._log = log

    def write(self, data):
        self._log.append(len(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


class _CountingHandler(server_mod._Handler):
    writes: list = []

    def setup(self):
        super().setup()
        self.wfile = _CountingWriter(self.wfile, type(self).writes)


class TestSingleSend:
    def test_one_write_per_response(self, tenant_root, monkeypatch):
        root, names, X_test = tenant_root
        monkeypatch.setattr(server_mod, "_Handler", _CountingHandler)
        monkeypatch.setattr(_CountingHandler, "writes", [])
        json_headers = {"Content-Type": "application/json"}
        calls = [
            ("POST", f"/v1/score/{names[0]}",
             json.dumps({"x": X_test[:3].tolist()}), 200),
            ("POST", f"/v1/score/{names[0]}",
             json.dumps({"x": [[1.0, 2.0]]}), 400),
            ("POST", "/nope", "{}", 404),
            ("GET", "/healthz", None, 200),
            ("GET", "/metrics", None, 200),
        ]
        with ServeDaemon(_config(root)) as daemon:
            conn = _connect(daemon)
            for method, path, body, status in calls:
                before = len(_CountingHandler.writes)
                conn.request(method, path, body, json_headers)
                resp = conn.getresponse()
                raw = resp.read()
                assert resp.status == status, path
                assert len(_CountingHandler.writes) == before + 1, path
                # the single write carried the whole response
                assert _CountingHandler.writes[-1] > len(raw) > 0
            conn.close()

    def test_keep_alive_requests_do_not_stall(self, tenant_root):
        # a header/body split write waits ~40 ms for the client's delayed
        # ACK; a healthy small request takes a few milliseconds
        root, names, X_test = tenant_root
        body = json.dumps({"x": X_test[:4].tolist()})
        headers = {"Content-Type": "application/json"}
        with ServeDaemon(_config(root)) as daemon:
            conn = _connect(daemon)
            timings = []
            for i in range(31):
                t0 = time.perf_counter()
                conn.request("POST", f"/v1/score/{names[0]}", body, headers)
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
                if i:  # the first request loads the plan
                    timings.append(time.perf_counter() - t0)
            conn.close()
        assert statistics.median(timings) < 0.020, timings


class TestMalformedBundle:
    def test_is_a_typed_400_not_a_500(self, tenant_root, tmp_path,
                                      malformation):
        corrupt, message = malformation
        src, names, X_test = tenant_root
        bundle = tmp_path / f"{names[0]}.npz"
        data = dict(np.load(src / bundle.name, allow_pickle=False))
        corrupt(data)
        np.savez_compressed(bundle, **data)
        with ServeDaemon(_config(tmp_path)) as daemon:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(f"{daemon.url}/v1/score/{names[0]}",
                      {"x": X_test[:2].tolist()})
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        assert message in error and str(bundle) in error


class TestLabels:
    def test_labels_come_from_the_plan_that_scored(self, tenant_root,
                                                   tmp_path, monkeypatch):
        src, names, X_test = tenant_root
        root = tmp_path / "tenants"
        shutil.copytree(src, root)
        tenant = names[0]
        bundle = root / f"{tenant}.npz"
        pipe = load_artifact(bundle).estimator
        old_classes = np.asarray(pipe.model_.classes_).copy()
        pipe.model_.classes_ = old_classes + 100
        relabelled = save_artifact(pipe, tmp_path / "relabelled.npz")
        with ServeDaemon(_config(root)) as daemon:
            submit = daemon.submit

            def submit_then_replace(name, X):
                pending = submit(name, X)
                pending.result(10)  # scored by the original plan
                if relabelled.exists():
                    stat = bundle.stat()
                    os.replace(relabelled, bundle)
                    os.utime(bundle, ns=(stat.st_atime_ns,
                                         stat.st_mtime_ns + 10**9))
                return pending

            monkeypatch.setattr(daemon, "submit", submit_then_replace)
            url = f"{daemon.url}/v1/score/{tenant}"
            first = _post(url, {"x": X_test[:8].tolist()})
            second = _post(url, {"x": X_test[:8].tolist()})
        assert set(first["labels"]) <= set(old_classes.tolist())
        # the replacement did land: the next request sees its classes
        assert set(second["labels"]) <= set((old_classes + 100).tolist())
