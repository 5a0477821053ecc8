"""Tests for the metrics registry (repro.obs.metrics)."""

import json
import math

import pytest

from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricHandles,
    MetricsRegistry,
    NullRegistry,
    get_metrics,
    set_metrics,
)
from repro.utils.errors import ValidationError


class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_inc_rejected(self):
        with pytest.raises(ValidationError):
            Counter().inc(-1)


class TestGauge:
    def test_set_keeps_last_value(self):
        g = Gauge()
        assert g.value is None
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_percentiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(v)
        assert h.count == 100
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_percentile_bounds_validated(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValidationError):
            h.percentile(101)

    def test_empty_percentile_is_nan(self):
        assert math.isnan(Histogram().percentile(50))

    def test_summary_keys(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["sum"] == 10.0
        assert s["mean"] == 2.5
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert set(s) == {"count", "sum", "mean", "min", "max", "p50", "p90", "p99"}
        assert s["p50"] <= s["p90"] <= s["p99"]

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0}


class TestRegistry:
    def test_lazy_creation_and_reuse(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        assert reg.counter("hits") is c
        assert reg.counter("hits").value == 1
        assert reg.names() == ["hits"]

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValidationError):
            reg.histogram("x")

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        reg.gauge("g").set(0.5)
        reg.histogram("h").observe(1.0)
        data = json.loads(reg.to_json())
        assert data["n"] == {"type": "counter", "value": 3}
        assert data["g"] == {"type": "gauge", "value": 0.5}
        assert data["h"]["type"] == "histogram" and data["h"]["count"] == 1


class TestBoundedHistogram:
    def test_memory_bounded_past_cutoff(self):
        h = Histogram()
        for v in range(10_000):
            h.observe(float(v))
        assert h.count == 10_000
        assert len(h.values) <= 4096
        assert not h.exact

    def test_exact_below_cutoff(self):
        h = Histogram()
        for v in range(100):
            h.observe(float(v))
        assert h.exact
        assert h.values == [float(v) for v in range(100)]

    def test_approx_summary_flags_itself(self):
        h = Histogram()
        for v in range(5000):
            h.observe(float(v))
        d = h.to_dict()
        assert d["type"] == "histogram"
        assert d["approx"] is True
        # exact even in reservoir mode
        assert d["min"] == 0.0 and d["max"] == 4999.0
        assert d["count"] == 5000 and d["sum"] == sum(range(5000))


class TestLabeledFamilies:
    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.histogram("stage_seconds", stage="scale")
        b = reg.histogram("stage_seconds", stage="merge")
        assert a is not b
        assert reg.histogram("stage_seconds", stage="scale") is a

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        assert (reg.counter("hits", a=1, b=2)
                is reg.counter("hits", b=2, a=1))

    def test_type_conflict_across_labels_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", stage="scale")
        with pytest.raises(ValidationError):
            reg.gauge("x", stage="merge")

    def test_collect_groups_series_by_family(self):
        reg = MetricsRegistry()
        reg.counter("hits", path="/a").inc(1)
        reg.counter("hits", path="/b").inc(2)
        reg.gauge("depth").set(3.0)
        collected = reg.collect()
        assert [(family, type_name) for family, type_name, _ in collected] == [
            ("depth", "gauge"), ("hits", "counter")
        ]
        hits = dict(
            (labels["path"], metric.value)
            for labels, metric in collected[1][2]
        )
        assert hits == {"/a": 1, "/b": 2}
        # the gauge's single unlabeled series
        assert collected[0][2][0][0] == {}

    def test_labeled_series_serialize_with_suffix(self):
        reg = MetricsRegistry()
        reg.counter("hits", path="/a").inc()
        data = json.loads(reg.to_json())
        assert data["hits{path=/a}"] == {"type": "counter", "value": 1}


class TestNullRegistry:
    def test_default_global_is_null(self):
        assert get_metrics() is NULL_REGISTRY
        assert not get_metrics().enabled

    def test_null_metrics_discard_everything(self):
        reg = NullRegistry()
        reg.counter("a").inc(5)
        reg.gauge("b").set(1.0)
        reg.histogram("c").observe(2.0)
        assert reg.counter("a").value == 0
        assert reg.gauge("b").value is None
        assert reg.histogram("c").count == 0
        # shared singletons: no allocation per call site, labels included
        assert reg.counter("a") is reg.counter("zzz")
        assert reg.histogram("c", stage="scale") is reg.histogram("c")

    def test_set_metrics_installs_and_restores(self):
        reg = MetricsRegistry()
        previous = set_metrics(reg)
        try:
            assert get_metrics() is reg
        finally:
            set_metrics(previous)
        assert get_metrics() is NULL_REGISTRY

    def test_set_metrics_validates(self):
        with pytest.raises(ValidationError):
            set_metrics(object())


class TestMetricHandles:
    def test_follow_a_set_metrics_swap(self):
        handles = MetricHandles()
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = set_metrics(None)
        try:
            assert handles.current() is None  # the null registry
            set_metrics(first)
            handles.current().counter("hits", tenant="a").inc()
            handles.current().histogram("lat").observe(0.5)
            set_metrics(second)
            handles.current().counter("hits", tenant="a").inc(2)
            assert (handles.current().counter("hits", tenant="a")
                    is second.counter("hits", tenant="a"))
            set_metrics(None)
            assert handles.current() is None
        finally:
            set_metrics(previous)
        assert first.counter("hits", tenant="a").value == 1
        assert first.histogram("lat").count == 1
        assert second.counter("hits", tenant="a").value == 2
        assert "lat" not in second.names()

    def test_metrics_are_created_on_first_use(self):
        handles, registry = MetricHandles(), MetricsRegistry()
        previous = set_metrics(registry)
        try:
            metrics = handles.current()
            assert registry.names() == []
            metrics.gauge("depth").set(3)
            assert registry.names() == ["depth"]
            with pytest.raises(ValidationError, match="already registered"):
                metrics.counter("depth")
        finally:
            set_metrics(previous)
