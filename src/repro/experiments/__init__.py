"""Experiment harness: presets, runner and formatters regenerating every
table and figure of the paper's evaluation section (see DESIGN.md §4)."""

from repro.experiments.drift_schedule import (
    make_drift_schedule,
    run_adapt_scenario,
)
from repro.experiments.loadgen import build_requests, replay_capture, run_loadgen
from repro.experiments.models import MODEL_NAMES, model_factories
from repro.experiments.multitarget import run_multitarget
from repro.experiments.presets import PRESETS, ExperimentPreset, get_preset
from repro.experiments.reporting import (
    format_ablation,
    format_loadgen,
    format_multitarget,
    format_runtime,
    format_table1,
    format_variant_counts,
    summarize_improvement,
)
from repro.experiments.runner import (
    CellResult,
    SharedArtifacts,
    make_benchmark,
    run_ablation,
    run_table1,
)
from repro.experiments.runtime import measure_runtime
from repro.experiments.sensitivity import selection_variance, variant_counts

__all__ = [
    "CellResult",
    "ExperimentPreset",
    "MODEL_NAMES",
    "PRESETS",
    "SharedArtifacts",
    "build_requests",
    "format_ablation",
    "format_loadgen",
    "format_multitarget",
    "format_runtime",
    "format_table1",
    "format_variant_counts",
    "get_preset",
    "make_benchmark",
    "make_drift_schedule",
    "measure_runtime",
    "model_factories",
    "replay_capture",
    "run_ablation",
    "run_adapt_scenario",
    "run_loadgen",
    "run_multitarget",
    "run_table1",
    "selection_variance",
    "summarize_improvement",
    "variant_counts",
]
