"""Formatting helpers rendering results in the paper's table layouts."""

from __future__ import annotations

import numpy as np

from repro.experiments.models import MODEL_NAMES
from repro.experiments.runner import CellResult

#: display names and grouping, in Table I row order
_TABLE1_ROWS = (
    ("Causal Learning", "fs+gan", "FS+GAN (ours)"),
    ("Causal Learning", "fs", "FS (ours)"),
    ("Causal Learning", "cmt", "CMT"),
    ("Causal Learning", "icd", "ICD"),
    ("Naive Baselines", "srconly", "SrcOnly"),
    ("Naive Baselines", "taronly", "TarOnly"),
    ("Naive Baselines", "s&t", "S&T"),
    ("Naive Baselines", "fine-tune", "Fine-tune"),
    ("Domain Independent", "coral", "CORAL"),
    ("Domain Independent", "dann", "DANN"),
    ("Domain Independent", "scl", "SCL"),
    ("Few-shot Learning", "matchnet", "MatchNet"),
    ("Few-shot Learning", "protonet", "ProtoNet"),
)


def _lookup(results: list[CellResult], method: str, model: str, shots: int):
    for cell in results:
        if cell.method == method and cell.model == model and cell.shots == shots:
            return cell
    return None


def format_table1(results: list[CellResult], *, dataset: str = "") -> str:
    """Render Table I: methods × (shots × models), F1 × 100."""
    shots_values = sorted({cell.shots for cell in results})
    models = [m for m in MODEL_NAMES if any(c.model == m for c in results)]
    header1 = f"{'Group':<20}{'Method':<16}"
    header2 = f"{'':<20}{'':<16}"
    for shots in shots_values:
        span = max(1, len(models)) * 7
        header1 += f"| {'#shots=' + str(shots):<{span - 2}} "
        for model in models:
            header2 += f"| {model:>5}" if model == models[0] else f"{model:>7}"
        header2 += " "
    lines = [f"Table I — F1-scores on the {dataset} target test data",
             header1, header2, "-" * len(header1)]
    for group, key, label in _TABLE1_ROWS:
        row_cells = [c for c in results if c.method == key]
        if not row_cells:
            continue
        line = f"{group:<20}{label:<16}"
        for shots in shots_values:
            if any(c.model == "-" for c in row_cells):
                cell = _lookup(results, key, "-", shots)
                value = f"{100 * cell.f1_mean:5.1f}" if cell else "    -"
                line += f"| {value:<{max(1, len(models)) * 7 - 2}} "
            else:
                line += "| "
                for i, model in enumerate(models):
                    cell = _lookup(results, key, model, shots)
                    value = f"{100 * cell.f1_mean:5.1f}" if cell else "    -"
                    line += value if i == 0 else f"  {value}"
                line += " "
        lines.append(line)
    return "\n".join(lines)


def format_ablation(results: list[CellResult], *, dataset: str = "") -> str:
    """Render Table II: reconstruction strategies × shots."""
    shots_values = sorted({cell.shots for cell in results})
    methods = []
    for cell in results:
        if cell.method not in methods:
            methods.append(cell.method)
    lines = [
        f"Table II — reconstruction-strategy ablation ({dataset}, TNet)",
        f"{'Method':<16}" + "".join(f"{'#shots=' + str(s):>12}" for s in shots_values),
    ]
    for method in methods:
        line = f"{method:<16}"
        for shots in shots_values:
            cell = next(
                (c for c in results if c.method == method and c.shots == shots), None
            )
            line += f"{100 * cell.f1_mean:>12.1f}" if cell else f"{'-':>12}"
        lines.append(line)
    return "\n".join(lines)


def format_multitarget(result: dict) -> str:
    """Render Table III: adapters × targets × shots."""
    scores = result["scores"]
    shots_values = sorted({key[2] for key in scores})
    lines = [
        "Table III — F1 of the source-trained TNet under cross-adapter DA",
        f"{'DA Method':<12}"
        + "".join(f"{'T1 s=' + str(s):>10}" for s in shots_values)
        + "".join(f"{'T2 s=' + str(s):>10}" for s in shots_values),
    ]
    for adapter in (1, 2):
        line = f"FS+GAN_{adapter:<5}"
        for target in (1, 2):
            for shots in shots_values:
                line += f"{100 * scores[(adapter, target, shots)]:>10.1f}"
        lines.append(line)
    lines.append(f"variant-set Jaccard overlap: {result['overlap']:.2f}")
    return "\n".join(lines)


def format_variant_counts(result: dict) -> str:
    """Render the §VI-C variant-count progression."""
    lines = [
        f"FS-identified domain-variant features ({result['dataset']}, "
        f"{result['n_true_variant']} ground-truth targets)",
        f"{'shots':>6}{'#variant':>10}{'recall':>9}{'precision':>11}",
    ]
    for row in result["rows"]:
        lines.append(
            f"{row['shots']:>6}{row['n_variant_mean']:>10.1f}"
            f"{row['recall']:>9.2f}{row['precision']:>11.2f}"
        )
    return "\n".join(lines)


def format_runtime(result: dict) -> str:
    """Render the §VI-D running-time summary."""
    return "\n".join(
        [
            f"Running time ({result['dataset']}, preset={result['preset']}, "
            f"{result['n_features']} features, {result['n_variant']} variant)",
            f"  FS discovery:   {result['fs_seconds']:8.2f} s "
            f"({result['n_ci_tests']} CI tests)",
            f"  GAN training:   {result['gan_train_seconds']:8.2f} s",
            f"  inference:      {1000 * result['inference_seconds_per_sample']:8.2f} ms/sample",
        ]
    )


def summarize_improvement(results: list[CellResult]) -> dict:
    """The paper's headline metric: drift-mitigation improvement over SrcOnly.

    Improvement is measured as (F1_method − F1_SrcOnly), compared between
    FS+GAN and the best non-ours method (§VI-B's 52% claim).
    """
    def mean_f1(method: str) -> float:
        vals = [c.f1_mean for c in results if c.method == method]
        return float(np.mean(vals)) if vals else float("nan")

    src = mean_f1("srconly")
    ours = mean_f1("fs+gan")
    others = {
        c.method for c in results
        if c.method not in ("fs+gan", "fs", "srconly")
    }
    best_other = max(others, key=mean_f1) if others else None
    other = mean_f1(best_other) if best_other else float("nan")
    gain_ours = ours - src
    gain_other = other - src
    return {
        "srconly_f1": src,
        "fsgan_f1": ours,
        "best_other": best_other,
        "best_other_f1": other,
        "fsgan_gain": gain_ours,
        "best_other_gain": gain_other,
        "relative_improvement": (
            (gain_ours - gain_other) / gain_other if gain_other > 0 else float("nan")
        ),
    }


def format_loadgen(result: dict) -> str:
    """Render a ``repro loadgen`` traffic summary."""
    lines = [
        f"Loadgen ({result['mode']} loop, {result['clients']} clients, "
        f"{result['elapsed_seconds']:.2f}s elapsed, seed={result['seed']})",
        f"  requests: {result['requests']} ({result['rows']} rows, "
        f"{result['errors']} errors)",
        f"  throughput: {result['achieved_rps']:.0f} req/s, "
        f"{result['rows_per_sec']:.0f} rows/s"
        + (
            f" (offered {result['offered_rate']:.0f} req/s)"
            if "offered_rate" in result else ""
        ),
    ]
    latency = result.get("latency") or {}
    if latency.get("count"):
        lines.append(
            f"  latency: p50={1e3 * latency['p50']:7.2f} ms  "
            f"p90={1e3 * latency['p90']:7.2f} ms  "
            f"p99={1e3 * latency['p99']:7.2f} ms  "
            f"max={1e3 * latency['max']:7.2f} ms"
        )
    for tenant in sorted(result.get("per_tenant", {})):
        stats = result["per_tenant"][tenant]
        if not stats["requests"]:
            continue
        lines.append(
            f"    {tenant:<12} {stats['requests']:6d} req "
            f"{stats['rows']:7d} rows  p50={1e3 * stats['p50']:7.2f} ms  "
            f"p99={1e3 * stats['p99']:7.2f} ms"
        )
    if "first_error" in result:
        lines.append(f"  first error: {result['first_error']}")
    return "\n".join(lines)
