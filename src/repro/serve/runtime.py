"""Serve runtime: load an artifact, compile its plan, score batches.

Backs the ``repro serve`` CLI subcommand: a saved
:class:`~repro.core.pipeline.FSGANPipeline` artifact is restored (no
training configuration needed), compiled into an
:class:`~repro.serve.plan.InferencePlan`, and run over an input batch read
from ``.npy`` / ``.npz`` / ``.csv``.

The runtime always serves under a live metrics registry (installing a
private one when the caller hasn't), so the summary carries per-stage
(``scale/split/generate/merge/predict``) latency percentiles from the
plan's bounded histograms.  Opt-in extras: a Prometheus exposition
endpoint (``prom_port``), periodic metric snapshots (``snapshot_path``),
and streaming drift scores against the artifact's training reference
(``track_drift``).
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from repro.core.artifacts import load_artifact
from repro.core.pipeline import FSGANPipeline
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.trace import get_tracer
from repro.utils.errors import ArtifactError

__all__ = ["load_plan", "read_input", "run_serve", "stage_summaries",
           "write_output"]

#: the compiled plan's stage order, as exposed in summaries
STAGES = ("scale", "split", "generate", "merge", "predict")


def load_plan(artifact_path, *, n_draws: int = 1, track_drift: bool = False,
              drift_options: dict | None = None):
    """Load a pipeline artifact and compile its inference plan."""
    loaded = load_artifact(artifact_path)
    pipeline = loaded.estimator
    if not isinstance(pipeline, FSGANPipeline):
        raise ArtifactError(
            f"serving requires an {FSGANPipeline._estimator_kind!r} artifact; "
            f"{artifact_path} holds {loaded.kind or type(pipeline).__name__!r}"
        )
    plan = pipeline.compile(
        n_draws=n_draws, track_drift=track_drift, drift_options=drift_options
    )
    return plan, loaded


def read_input(path) -> np.ndarray:
    """Read a feature batch from ``.npy``, ``.npz`` (key ``X``) or ``.csv``."""
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"no input file at {path}")
    suffix = path.suffix.lower()
    if suffix == ".npy":
        X = np.load(path, allow_pickle=False)
    elif suffix == ".npz":
        data = np.load(path, allow_pickle=False)
        if "X" not in data.files:
            raise ArtifactError(f"{path} has no array named 'X' (found {data.files})")
        X = data["X"]
    elif suffix == ".csv":
        X = _read_csv(path)
    else:
        raise ArtifactError(f"unsupported input format {suffix!r} (npy/npz/csv)")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ArtifactError(f"input batch must be 2-D, got shape {X.shape}")
    return X


def _read_csv(path: Path) -> np.ndarray:
    """Load a numeric CSV, tolerating one header row.

    A non-numeric first row is treated as a header and skipped (with a
    log message naming the columns); a non-numeric cell anywhere else is
    a data error and raises :class:`ArtifactError` with its location.
    """
    from repro.obs.logging import get_logger

    skiprows = 0
    with path.open() as handle:
        first = handle.readline()
    cells = [cell.strip() for cell in first.strip().split(",")] if first else []

    def _numeric(cell: str) -> bool:
        try:
            float(cell)
        except ValueError:
            return False
        return True

    if cells and not all(_numeric(cell) for cell in cells):
        skiprows = 1
        get_logger("repro.serve.runtime").info(
            "skipping header row in %s (columns: %s)", path, ", ".join(cells)
        )
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skiprows)
    except ValueError as exc:
        raise ArtifactError(
            f"non-numeric cell in {path}: {exc}"
        ) from exc


def write_output(path, *, proba: np.ndarray, labels: np.ndarray) -> Path:
    """Write scores to ``.npz`` (arrays) or ``.json`` (row-major lists)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix.lower() == ".json":
        import json

        path.write_text(
            json.dumps(
                {"proba": proba.tolist(), "labels": labels.tolist()}, indent=2
            )
            + "\n"
        )
    else:
        np.savez(path, proba=proba, labels=np.asarray(labels))
    return path


def stage_summaries(registry) -> dict:
    """Per-stage latency summaries from a registry's ``serve.stage_seconds``.

    Returns ``{stage: {count, p50, p90, p99}}`` for stages that observed
    at least one batch.
    """
    stages: dict[str, dict] = {}
    for stage in STAGES:
        hist = registry.histogram("serve.stage_seconds", stage=stage)
        if hist.count == 0:
            continue
        summary = hist.summary()
        stages[stage] = {key: summary[key]
                         for key in ("count", "p50", "p90", "p99")}
    return stages


def run_serve(
    artifact_path,
    input_path,
    *,
    output_path=None,
    n_draws: int = 1,
    repeat: int = 1,
    track_drift: bool = False,
    prom_port: int | None = None,
    snapshot_path=None,
    snapshot_interval: float | None = None,
) -> dict:
    """Score a batch through a compiled plan; returns a summary dict.

    ``repeat`` re-scores the batch that many times (the RNG advances, so
    draws differ per pass) — useful for soak-testing the serve path under
    a scraping Prometheus endpoint.  Written scores come from the first
    pass.
    """
    if repeat < 1:
        raise ArtifactError("repeat must be >= 1")
    with get_tracer().span("serve.load", artifact=str(artifact_path)):
        plan, loaded = load_plan(
            artifact_path, n_draws=n_draws, track_drift=track_drift
        )
    X = read_input(input_path)

    registry = get_metrics()
    with ExitStack() as stack:
        if not registry.enabled:
            # a private registry so stage percentiles exist even without
            # --trace/--metrics-out; restored on exit
            registry = MetricsRegistry()
            previous = set_metrics(registry)
            stack.callback(set_metrics, previous)
        if prom_port is not None:
            from repro.obs.exporters import PrometheusExporter

            exporter = stack.enter_context(
                PrometheusExporter(registry, port=prom_port)
            )
        else:
            exporter = None
        if snapshot_path is not None:
            from repro.obs.exporters import SnapshotWriter

            stack.enter_context(SnapshotWriter(
                snapshot_path, registry=registry, interval=snapshot_interval
            ))

        t0 = time.perf_counter()
        proba = plan.predict_proba(X)
        for _ in range(repeat - 1):
            plan.predict_proba(X)
        seconds = time.perf_counter() - t0

        labels = plan.labels(proba)
        rows_scored = X.shape[0] * repeat
        summary = {
            "artifact": str(artifact_path),
            "kind": loaded.kind,
            "n_samples": int(X.shape[0]),
            "n_features": int(X.shape[1]),
            "n_draws": int(n_draws),
            "repeat": int(repeat),
            "seconds": seconds,
            "rows_per_second": (
                float(rows_scored / seconds) if seconds > 0 else float("inf")
            ),
            "schema_version": loaded.manifest.get("schema_version"),
            "stages": stage_summaries(registry),
            "latency": registry.histogram("serve.latency").summary(),
        }
        if exporter is not None:
            summary["prometheus"] = exporter.url
        if plan.drift_tracker is not None and plan.drift_tracker.last_scores:
            scores = plan.drift_tracker.last_scores
            summary["drift"] = {
                "psi_max": scores["psi_max"],
                "ks_max": scores["ks_max"],
                "drifted_features": list(scores["drifted_features"]),
                "alarmed": scores["alarmed"],
            }
    if output_path is not None:
        summary["output"] = str(write_output(output_path, proba=proba, labels=labels))
    return summary
