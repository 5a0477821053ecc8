"""Load generator: deterministic traffic, both loops, capture replay."""

import socket

import numpy as np
import pytest

from repro.experiments.loadgen import (
    _HTTPTarget,
    _poisson_schedule,
    build_requests,
    replay_capture,
    run_loadgen,
)
from repro.serve import DaemonConfig, ServeDaemon
from repro.utils.errors import ValidationError

CAP = 64


def _daemon(root, **overrides):
    defaults = dict(root=str(root), port=None, micro_batch_rows=CAP)
    defaults.update(overrides)
    return ServeDaemon(DaemonConfig(**defaults))


class TestTrafficGeneration:
    def test_schedule_is_seeded(self):
        a = _poisson_schedule(100.0, 1.0, seed=7)
        b = _poisson_schedule(100.0, 1.0, seed=7)
        c = _poisson_schedule(100.0, 1.0, seed=8)
        assert a == b and a != c
        assert all(0 < t < 1.0 for t in a)
        # a 100 req/s process over 1 s lands near 100 arrivals
        assert 50 < len(a) < 200

    def test_requests_are_seeded_and_cyclic(self, rng):
        X = rng.standard_normal((20, 4))
        reqs = build_requests(X, ["a", "b"], count=50,
                              rows_per_request=(1, 6), seed=3)
        again = build_requests(X, ["a", "b"], count=50,
                               rows_per_request=(1, 6), seed=3)
        assert len(reqs) == 50
        for (ta, xa), (tb, xb) in zip(reqs, again):
            assert ta == tb
            np.testing.assert_array_equal(xa, xb)
        assert {t for t, _ in reqs} == {"a", "b"}
        assert all(1 <= x.shape[0] <= 6 for _, x in reqs)

    def test_validation(self, rng):
        X = rng.standard_normal((20, 4))
        with pytest.raises(ValidationError, match="tenant"):
            build_requests(X, [], count=5)
        with pytest.raises(ValidationError, match="rows_per_request"):
            build_requests(X, ["a"], count=5, rows_per_request=(3, 2))
        with pytest.raises(ValidationError, match="mode"):
            run_loadgen(object(), X, ["a"], mode="sideways")


class TestRunLoadgen:
    def test_open_loop_with_capture_replays_exactly(self, tenant_root):
        root, names, X_test = tenant_root
        with _daemon(root) as daemon:
            result = run_loadgen(
                daemon, X_test, names, mode="open", duration=0.8,
                rate=150.0, clients=6, seed=0, capture=True,
            )
        assert result["errors"] == 0
        assert result["requests"] == result["offered_requests"]
        latency = result["latency"]
        assert latency["p50"] <= latency["p90"] <= latency["p99"]
        assert sum(s["requests"] for s in result["per_tenant"].values()) \
            == result["requests"]
        diff = replay_capture(root, result["capture"], micro_batch_rows=CAP)
        assert diff == 0.0

    def test_closed_loop_saturates(self, tenant_root):
        root, names, X_test = tenant_root
        with _daemon(root) as daemon:
            result = run_loadgen(
                daemon, X_test, names[:1], mode="closed", duration=0.5,
                clients=3, seed=1,
            )
        assert result["errors"] == 0
        assert result["requests"] > 0
        assert result["rows_per_sec"] > 0
        assert "offered_rate" not in result

    def test_http_target(self, tenant_root):
        root, names, X_test = tenant_root
        with _daemon(root, port=0) as daemon:
            result = run_loadgen(
                daemon.url, X_test, names, mode="open", duration=0.5,
                rate=60.0, clients=4, seed=2, capture=True,
            )
            assert result["errors"] == 0
            diff = replay_capture(root, result["capture"],
                                  micro_batch_rows=CAP)
        assert diff == 0.0

    def test_closed_loop_over_http_keep_alive(self, tenant_root):
        root, names, X_test = tenant_root
        with _daemon(root, port=0) as daemon:
            result = run_loadgen(
                daemon.url, X_test, names, mode="closed", duration=0.5,
                clients=2, seed=3, capture=True,
            )
        assert result["errors"] == 0
        assert result["requests"] > 0
        assert replay_capture(root, result["capture"],
                              micro_batch_rows=CAP) == 0.0

    def test_http_target_reuses_one_connection_per_thread(self, tenant_root):
        root, names, X_test = tenant_root
        with _daemon(root, port=0) as daemon:
            target = _HTTPTarget(daemon.url + "/", timeout=10.0)
            assert target.score(names[0], X_test[:2])[0] == 0
            sock = target._local.conn.sock
            assert target.score(names[0], X_test[:2])[0] == 1
            assert target._local.conn.sock is sock
            with pytest.raises(RuntimeError, match="HTTP 404"):
                target.score("ghost-tenant", X_test[:2])
            assert target._local.conn.sock is sock  # framed error: kept
            # a transport failure raises (it is never resent) and drops the
            # connection; the thread's next request reconnects
            sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(OSError):
                target.score(names[0], X_test[:2])
            assert target._local.conn is None
            assert target.score(names[0], X_test[:2])[0] == 2
            assert target._local.conn.sock is not sock
            target.close()

    def test_errors_are_counted_not_raised(self, tenant_root):
        root, _, X_test = tenant_root
        with _daemon(root) as daemon:
            result = run_loadgen(
                daemon, X_test, ["ghost-tenant"], mode="open",
                duration=0.3, rate=30.0, clients=2, seed=0,
            )
        assert result["requests"] == 0
        assert result["errors"] > 0
        assert "first_error" in result


class TestReplayCapture:
    def test_rejects_gappy_capture(self, tenant_root):
        root, names, X_test = tenant_root
        with _daemon(root) as daemon:
            result = run_loadgen(
                daemon, X_test, names[:1], mode="open", duration=0.4,
                rate=60.0, clients=2, seed=0, capture=True,
            )
        capture = [c for c in result["capture"] if c[1] != 0]  # drop seq 0
        if not capture:
            pytest.skip("tiny run produced a single request")
        with pytest.raises(ValidationError, match="seq"):
            replay_capture(root, capture, micro_batch_rows=CAP)

    def test_detects_tampered_proba(self, tenant_root):
        root, names, X_test = tenant_root
        with _daemon(root) as daemon:
            result = run_loadgen(
                daemon, X_test, names[:1], mode="open", duration=0.4,
                rate=60.0, clients=2, seed=0, capture=True,
            )
        capture = result["capture"]
        tenant, seq, rows, proba = capture[0]
        capture[0] = (tenant, seq, rows, proba + 1e-9)
        diff = replay_capture(root, capture, micro_batch_rows=CAP)
        assert diff > 0.0
