"""Suite registry: hook resolution, shared record shape, per-suite oracles."""

import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

from repro.experiments.bench_registry import (
    SUITES,
    BenchRecord,
    check_record_shape,
    get_suite,
    suite_for_schema,
    write_bench_record,
    _resolve,
)


def _record(**overrides):
    base = BenchRecord(
        suite="serve", dataset="5gc", preset="smoke", seed=0,
        before={"serve_seconds": 2.0, "rows_per_sec": 100.0},
        after={"serve_seconds": 1.0, "rows_per_sec": 200.0},
        speedup=2.0, equivalent=True,
        extras={"max_abs_diff": 0.0},
    ).to_dict()
    base.update(overrides)
    return base


class TestRegistry:
    def test_every_suite_declares_hooks(self):
        for suite in SUITES.values():
            assert suite.cli and suite.oracle
            assert callable(_resolve(suite.cli))
            assert callable(_resolve(suite.oracle))

    def test_unknown_suite_and_bad_hook(self):
        with pytest.raises(KeyError, match="unknown bench suite"):
            get_suite("nope")
        with pytest.raises(ValueError, match="module:function"):
            _resolve("no-colon")

    def test_suite_for_schema_round_trips(self):
        for suite in SUITES.values():
            assert suite_for_schema(suite.schema) is suite
        assert suite_for_schema("other/v9") is None

    def test_write_creates_the_output_directory(self, tmp_path):
        path = tmp_path / "fresh" / "BENCH_serve.json"
        write_bench_record(_record(), str(path), schema="repro.bench.serve/v1")
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert list(doc["records"]) == ["5gc/smoke/seed0"]


class TestSharedShape:
    def test_sound_record_passes(self):
        assert check_record_shape(_record()) == []

    def test_missing_fields_reported(self):
        record = _record()
        record.pop("before")
        record.pop("speedup")
        problems = check_record_shape(record)
        assert any("before" in p for p in problems)
        assert any("speedup" in p for p in problems)

    def test_bad_speedup_and_equivalence(self):
        assert check_record_shape(_record(speedup=0.0))
        assert check_record_shape(_record(equivalent=False))


class TestServeOracle:
    def test_accepts_committed_records(self):
        suite = get_suite("serve")
        with open(REPO / "BENCH_serve.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema"] == suite.schema
        assert "5gc/sustained/seed0" in doc["records"]
        for key, record in doc["records"].items():
            assert suite.check_record(record) == [], key

    def test_rejects_nonzero_diff(self):
        suite = get_suite("serve")
        problems = suite.check_record(_record(max_abs_diff=1e-12))
        assert any("max_abs_diff" in p for p in problems)

    def test_rejects_negative_telemetry(self):
        suite = get_suite("serve")
        record = _record(telemetry={"metrics_overhead": -0.01})
        assert any("telemetry" in p for p in suite.check_record(record))

    def test_sustained_needs_latency_trio(self):
        suite = get_suite("serve")
        record = _record(
            preset="sustained",
            before={"rows_per_sec": 100.0, "errors": 0},
            after={"rows_per_sec": 200.0, "errors": 0},
            open_loop={"latency": {"p50": 0.002, "p90": 0.001, "p99": 0.004}},
        )
        assert any("out of order" in p for p in suite.check_record(record))
        record["open_loop"]["latency"] = {}
        assert any("incomplete" in p for p in suite.check_record(record))
        record["open_loop"]["latency"] = {
            "p50": 0.001, "p90": 0.002, "p99": 0.004,
        }
        assert suite.check_record(record) == []

    def test_sustained_rejects_errors_and_zero_throughput(self):
        suite = get_suite("serve")
        record = _record(
            preset="sustained",
            before={"rows_per_sec": 0.0, "errors": 2},
            after={"rows_per_sec": 200.0, "errors": 0},
            open_loop={"latency": {"p50": 1e-3, "p90": 2e-3, "p99": 3e-3}},
        )
        problems = suite.check_record(record)
        assert any("rows_per_sec" in p for p in problems)
        assert any("errors" in p for p in problems)


class TestOtherOracles:
    def test_fs_oracle_on_committed_records(self):
        suite = get_suite("fs")
        with open(REPO / "BENCH_fs.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        for key, record in doc["records"].items():
            assert suite.check_record(record) == [], key

    def test_nn_oracle_on_committed_records(self):
        suite = get_suite("nn")
        with open(REPO / "BENCH_nn.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        for key, record in doc["records"].items():
            assert suite.check_record(record) == [], key

    def test_fs_oracle_flags_test_count_divergence(self):
        suite = get_suite("fs")
        record = _record(
            before={"fs_seconds": 2.0, "n_ci_tests": 100},
            after={"fs_seconds": 1.0, "n_ci_tests": 90},
        )
        assert any("CI test counts" in p for p in suite.check_record(record))
        record["after_mode"] = "per_feature+shm+prune_k=2+float32"
        assert suite.check_record(record) == []

    def test_adapt_oracle_on_committed_records(self):
        suite = get_suite("adapt")
        with open(REPO / "BENCH_adapt.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema"] == suite.schema
        for key, record in doc["records"].items():
            assert suite.check_record(record) == [], key

    def test_adapt_oracle_flags_inconsistencies(self):
        suite = get_suite("adapt")
        with open(REPO / "BENCH_adapt.json", encoding="utf-8") as fh:
            sound = next(iter(json.load(fh)["records"].values()))
        # a pre-onset alarm is a false positive, not a detection
        record = dict(sound, alarm_batch=sound["onset_batch"] - 1)
        assert any("precedes onset" in p for p in suite.check_record(record))
        record = dict(sound, before=dict(sound["before"], mode="confirm"))
        assert any("cold" in p for p in suite.check_record(record))
        # the warm side must be the one (exact) re-discovery, not a fallback
        for mode in ("confirm", "cold"):
            record = dict(sound, after=dict(sound["after"], mode=mode))
            assert any("after.mode" in p for p in suite.check_record(record))
        record = dict(sound, detection_latency_batches=-2)
        assert any(
            "detection_latency" in p for p in suite.check_record(record)
        )
