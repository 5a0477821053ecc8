"""Metrics registry: counters, gauges and histograms with percentiles.

The registry backs the §VI-D scaling story with continuously collected
numbers — e.g. ``ci_tests_total`` (counter), ``ci_test_seconds`` and
``gan_epoch_seconds`` (histograms with p50/p90/p99 summaries), or
``fs_n_variant`` (gauge).  As with tracing, the process-global default is
:data:`NULL_REGISTRY`, whose metric objects are shared no-ops, so
instrumentation in hot loops is free when metrics are disabled.

Two properties matter for long-running serve processes:

* **Bounded memory.**  :class:`Histogram` is backed by a
  :class:`~repro.obs.sketch.QuantileSketch`: exact (bit-identical to the
  old list-backed percentiles) below a small-n cutoff, then a fixed-size
  reservoir with exact count/sum/min/max — observing forever never grows
  the process.
* **Labeled families.**  Every accessor takes optional keyword labels
  (``registry.histogram("serve.stage_seconds", stage="scale")``); each
  distinct label set is its own time series within one named family, the
  shape Prometheus exposition expects (see ``repro.obs.exporters``).
"""

from __future__ import annotations

import json

from repro.obs.sketch import QuantileSketch
from repro.utils.errors import ValidationError


def labels_suffix(labels: dict) -> str:
    """Canonical ``{k=v,...}`` rendering of a label set (sorted, stable)."""
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValidationError("counters only go up; use a gauge instead")
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming observations with percentile summaries, in fixed memory.

    Exact below the sketch's small-n cutoff; beyond it, quantiles come
    from a bounded reservoir (documented ~2% rank-error tolerance at the
    default capacity) while count/sum/mean/min/max stay exact.
    """

    __slots__ = ("_sketch",)

    def __init__(self) -> None:
        self._sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        self._sketch.add(value)

    @property
    def count(self) -> int:
        return self._sketch.count

    @property
    def values(self) -> list[float]:
        """The retained sample buffer (every value on the exact path)."""
        return list(self._sketch._values)

    @property
    def exact(self) -> bool:
        """True while percentiles are exact (stream below the cutoff)."""
        return self._sketch.exact

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) of the observations."""
        return self._sketch.percentile(q)

    def summary(self) -> dict:
        """Count, sum, mean, min/max and the standard percentile trio."""
        return self._sketch.summary()

    def to_dict(self) -> dict:
        return {"type": "histogram", **self._sketch.to_dict()}


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


class MetricsRegistry:
    """Named metric store; metrics are created lazily on first access.

    A *family* is every series sharing a metric name; keyword labels
    select one series within it.  ``counter("x")`` and
    ``counter("x", tenant="a")`` are two series of family ``x`` and must
    agree on the metric type.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._families: dict[str, type] = {}
        self._series: dict[str, tuple[str, dict]] = {}

    def _get(self, name: str, cls, labels: dict):
        family_cls = self._families.get(name)
        if family_cls is None:
            self._families[name] = cls
        elif family_cls is not cls:
            raise ValidationError(
                f"metric {name!r} already registered as {family_cls.__name__}"
            )
        key = name + labels_suffix(labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
            self._series[key] = (name, dict(labels))
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, Counter, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, Gauge, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(name, Histogram, labels)

    def names(self) -> list[str]:
        """Sorted series keys (``family{label=value,...}`` for labeled ones)."""
        return sorted(self._metrics)

    def collect(self) -> list[tuple[str, str, list[tuple[dict, object]]]]:
        """Family-grouped snapshot: ``(name, type, [(labels, metric), ...])``.

        The shape exporters consume; series within a family keep their
        registration-independent sorted order.
        """
        families: dict[str, list[tuple[dict, object]]] = {}
        for key in self.names():
            name, labels = self._series[key]
            families.setdefault(name, []).append((labels, self._metrics[key]))
        type_names = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}
        return [
            (name, type_names[self._families[name]], series)
            for name, series in sorted(families.items())
        ]

    def to_dict(self) -> dict:
        return {name: self._metrics[name].to_dict() for name in self.names()}

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class _Resolved:
    """One registry's metric objects, each resolved on its first use."""

    __slots__ = ("registry", "_memo")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._memo: dict[tuple, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, labels: dict):
        key = (cls, name, *labels.items())
        metric = self._memo.get(key)
        if metric is None:
            metric = self._memo[key] = self.registry._get(name, cls, labels)
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)


class MetricHandles:
    """Metric objects of the installed registry, resolved once and kept.

    A hot path keeps one of these and calls :meth:`current` where it
    would call :func:`get_metrics`.  ``current`` returns ``None`` under a
    disabled registry, else an object with the registry's ``counter`` /
    ``gauge`` / ``histogram`` accessors that find a metric by one dict
    look-up instead of building its name+label key.  An ``is`` test
    against the installed registry resolves afresh after
    :func:`set_metrics`.  Each metric is still created in the registry on
    its first use, so families appear exactly when they would otherwise.
    """

    __slots__ = ("_resolved",)

    def __init__(self) -> None:
        self._resolved: _Resolved | None = None

    def current(self) -> _Resolved | None:
        resolved = self._resolved
        if resolved is None or resolved.registry is not _registry:
            resolved = self._resolved = _Resolved(_registry)
        return resolved if resolved.registry.enabled else None


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """No-op registry handing out shared inert metric objects."""

    enabled = False

    def counter(self, name: str, **labels) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str, **labels) -> Histogram:
        return _NULL_HISTOGRAM


NULL_REGISTRY = NullRegistry()
_registry: MetricsRegistry = NULL_REGISTRY


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry (no-op unless one is installed)."""
    return _registry


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` globally (None resets); returns the previous one."""
    global _registry
    if registry is not None and not isinstance(registry, MetricsRegistry):
        raise ValidationError("set_metrics expects a MetricsRegistry or None")
    previous = _registry
    _registry = registry if registry is not None else NULL_REGISTRY
    return previous
