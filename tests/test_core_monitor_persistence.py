"""Tests for the drift monitor extension."""

import numpy as np
import pytest

from repro.core import DriftMonitor, FSGANPipeline, ReconstructionConfig
from repro.ml import MLPClassifier
from repro.utils.errors import ValidationError


def fast_mlp():
    return MLPClassifier(hidden_sizes=(32,), epochs=15, random_state=0)


@pytest.fixture(scope="module")
def fitted_pipeline(tiny_5gc):
    X_few, _, _, _ = tiny_5gc.few_shot_split(5, random_state=0)
    pipe = FSGANPipeline(
        fast_mlp,
        reconstruction_config=ReconstructionConfig(epochs=40, hidden_size=32,
                                                    noise_dim=4),
        random_state=0,
    )
    pipe.fit(tiny_5gc.X_source, tiny_5gc.y_source, X_few)
    return pipe


class TestDriftMonitor:
    def test_requires_fitted_pipeline(self):
        with pytest.raises(ValidationError):
            DriftMonitor(FSGANPipeline(fast_mlp))

    def test_same_drift_reports_stable(self, fitted_pipeline, tiny_5gc):
        monitor = DriftMonitor(fitted_pipeline, jaccard_threshold=0.3,
                               min_new_variants=5)
        X_few, _, _, _ = tiny_5gc.few_shot_split(5, random_state=11)
        report = monitor.observe(X_few)
        assert report.jaccard > 0.5
        assert not report.drifted

    def test_source_like_batch_reports_no_drift_targets(self, fitted_pipeline, tiny_5gc):
        monitor = DriftMonitor(fitted_pipeline)
        report = monitor.observe(tiny_5gc.X_source[:50])
        # a source batch has (near) no variants: no NEW targets appear
        assert len(report.new_variant) <= 1

    def test_history_recorded(self, fitted_pipeline, tiny_5gc):
        monitor = DriftMonitor(fitted_pipeline)
        X_few, _, _, _ = tiny_5gc.few_shot_split(1, random_state=0)
        monitor.observe(X_few)
        monitor.observe(X_few)
        assert len(monitor.history) == 2

    def test_observe_and_refresh_keeps_model(self, fitted_pipeline, tiny_5gc):
        monitor = DriftMonitor(fitted_pipeline, jaccard_threshold=0.99,
                               min_new_variants=1)
        model_before = fitted_pipeline.model_
        X_few, _, _, _ = tiny_5gc.few_shot_split(10, random_state=99)
        report, refreshed = monitor.observe_and_refresh(X_few)
        assert fitted_pipeline.model_ is model_before
        if refreshed:
            assert report.drifted

    def test_feature_mismatch(self, fitted_pipeline):
        monitor = DriftMonitor(fitted_pipeline)
        with pytest.raises(ValidationError):
            monitor.observe(np.zeros((5, 3)))

    def test_threshold_validated(self, fitted_pipeline):
        with pytest.raises(ValidationError):
            DriftMonitor(fitted_pipeline, jaccard_threshold=1.5)
        with pytest.raises(ValidationError):
            DriftMonitor(fitted_pipeline, min_new_variants=0)


class TestMonitorMetricsBridge:
    def test_observe_publishes_gauges_and_pvalue_summary(
        self, fitted_pipeline, tiny_5gc
    ):
        from repro.obs.metrics import MetricsRegistry, set_metrics

        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            monitor = DriftMonitor(fitted_pipeline)
            X_few, _, _, _ = tiny_5gc.few_shot_split(5, random_state=11)
            report = monitor.observe(X_few)
        finally:
            set_metrics(previous)
        assert registry.counter("monitor.observations_total").value == 1
        assert registry.gauge("monitor.jaccard").value == report.jaccard
        assert registry.gauge("monitor.n_variant").value == report.n_variant
        assert (registry.gauge("monitor.new_variants").value
                == len(report.new_variant))
        # per-observation p-value summary
        p_min = registry.gauge("monitor.p_value_min").value
        assert 0.0 <= p_min <= registry.gauge("monitor.p_value_median").value
        assert 0.0 <= registry.gauge("monitor.frac_significant").value <= 1.0
        drifted_total = registry.counter("monitor.drifted_total").value
        assert drifted_total == (1 if report.drifted else 0)

    def test_drifted_observation_emits_alarm_event(
        self, fitted_pipeline, tiny_5gc
    ):
        from repro.obs.export import EventLog, set_event_log

        events = EventLog()
        previous = set_event_log(events)
        try:
            # jaccard_threshold=1.0 is invalid; 0.99 + min_new_variants=1
            # makes almost any batch count as drifted
            monitor = DriftMonitor(fitted_pipeline, jaccard_threshold=0.99,
                                   min_new_variants=1)
            X_few, _, _, _ = tiny_5gc.few_shot_split(10, random_state=99)
            report = monitor.observe(X_few)
        finally:
            set_event_log(previous)
        kinds = [e["kind"] for e in events.events]
        assert "drift.observe" in kinds
        if report.drifted:
            alarm = next(e for e in events.events
                         if e["kind"] == "drift.alarm")
            assert alarm["source"] == "monitor"
            assert alarm["jaccard"] == report.jaccard
