"""drift-hop-442: one independent closed-loop adaptation hop per operation.

Set-up fits generation 0 on a ``make_drift_schedule(442, "abrupt")``
scenario and publishes it as the active version of a template lineage root.
Each operation then takes a fresh copy of that root and of the fitted
pipeline, draws its own known-onset traffic stream (an independent seed of
the same schedule) and feeds an in-process ``AdaptationController`` batch by
batch until it reports ``PROMOTED``.  The FS configuration is the existing
adapt suite's (442-feature warm-bench engine settings), run serially.
"""

from __future__ import annotations

import copy
import gc
import shutil
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from stats import median
from spans import SpanRecorder, call_durations, instrument, self_times

WIDTH = 442
TENANT = "hop"
#: 0-based index of the first drifted batch (make_drift_schedule default)
ONSET = 10

#: wrapped public calls -> layer names (traced run only)
LAYERS = (
    ("repro.adapt.controller", "AdaptationController", "observe",
     "adapt.controller"),
    ("repro.core.pipeline", "FSGANPipeline", "rediscover_fs",
     "causal.rediscover"),
    ("repro.core.pipeline", "FSGANPipeline", "refit_reconstruction",
     "gan.refit"),
    ("repro.core.pipeline", "FSGANPipeline", "compile", "serve.plan.compile"),
    ("repro.adapt.lineage", "ArtifactLineage", "publish",
     "adapt.lineage.publish"),
    ("repro.adapt.lineage", "ArtifactLineage", "promote",
     "adapt.lineage.promote"),
    ("repro.adapt.shadow", "ShadowEvaluator", "observe", "adapt.shadow"),
    ("repro.obs.drift", "FeatureDriftTracker", "update", "obs.drift"),
)


def _fs_config():
    from repro.core.config import FSConfig

    return FSConfig(
        max_parents=6, max_cond_size=3, min_correlation=0.1, prune_k=3,
        prune_exact=True, stats_dtype="float32", use_shared_memory=True,
        warm_mode="exact", n_jobs=1,
    )


def _adapt_config():
    from repro.adapt import AdaptationConfig, ShadowPolicy

    return AdaptationConfig(
        min_shots=64,
        shot_capacity=256,
        drift_options={"min_rows": 192, "window_rows": 256, "n_bins": 8,
                       "psi_threshold": 1.5, "name": "hop"},
        # the shadow window always scores two batches, then promotes: the
        # hop times the shadow scoring, not the policy's verdict.  The adapt
        # suite's max_disagreement=0.35 rejects whole streams on some seeds
        # (max |dp| 0.29-0.56 per 64-row batch at seed 307), which would
        # make the hop count and its time depend on the seed's verdicts
        policy=ShadowPolicy(agreement_batches=2, max_disagreement=1.0,
                            abort_disagreement=1.0, max_batches=16),
        subscribe_alarms=False,
    )


def setup(ctx) -> dict:
    from repro.adapt.lineage import ArtifactLineage
    from repro.core import FSGANPipeline, ReconstructionConfig
    from repro.core.feature_separation import FeatureSeparator
    from repro.experiments.drift_schedule import make_drift_schedule
    from repro.ml import MLPClassifier

    seed = ctx.seed
    data = make_drift_schedule(WIDTH, schedule="abrupt", random_state=seed)
    pipeline = FSGANPipeline(
        lambda: MLPClassifier(hidden_sizes=(16,), epochs=8,
                              random_state=seed),
        fs_config=_fs_config(),
        reconstruction_config=ReconstructionConfig(
            strategy="gan", epochs=2, noise_dim=2, hidden_size=8),
        random_state=seed,
    )
    recorder = SpanRecorder()
    recorder.wrap(FeatureSeparator, "fit", "causal.cold_fit")
    try:
        pipeline.fit(data["X_source"], data["y_source"],
                     data["X_target_prior"])
    finally:
        recorder.restore()
    template = ctx.tmp / "hop-template"
    template.mkdir()
    ArtifactLineage(template).publish(TENANT, pipeline, parent=None,
                                      state="active")
    return {"pipeline": pipeline, "template": template,
            "X_source": data["X_source"],
            "cold_fit_s": sum(s.duration for s in recorder.spans)}


def _hop(state: dict, batches, root: Path, recorder) -> dict:
    """One hop from a fresh copy of generation 0; returns its outcome."""
    from repro.adapt import AdaptationController
    from repro.adapt.lineage import ArtifactLineage

    pipeline = copy.deepcopy(state["pipeline"])
    shutil.copytree(state["template"], root)
    lineage = ArtifactLineage(root)
    final = None
    with recorder.span("op") if recorder else nullcontext():
        with AdaptationController(pipeline, lineage, TENANT,
                                  _adapt_config()) as controller:
            for batch in batches:
                final = controller.observe(batch)
                if final == "PROMOTED":
                    break
    return {
        "promoted": final == "PROMOTED",
        "generation": controller.generation,
        "active_generation": lineage.active(TENANT).generation,
        "alarm_batch": controller.alarm_batch,
        "hop_s": controller.timings.get("alarm_to_promotion_seconds"),
        "shots": controller.last_shots_,
        "pipeline": pipeline,
    }


def _check(state: dict, op: dict) -> str | None:
    """What is wrong with a hop's outputs, or None when they are correct."""
    from repro.core.feature_separation import FeatureSeparator

    if op["promoted"] and (op["generation"] != 1
                           or op["active_generation"] != 1):
        return (f"promoted generation {op['generation']} "
                f"(active {op['active_generation']}), expected 1")
    if op["shots"] is None:  # never re-discovered
        return None
    pipeline = op["pipeline"]
    cold = FeatureSeparator(replace(pipeline.fs_config, warm_mode="off"))
    cold.fit(pipeline.scaler_.transform(state["X_source"]),
             pipeline.scaler_.transform(op["shots"]))
    warm_set = set(pipeline.separator_.variant_indices_.tolist())
    if warm_set != set(cold.variant_indices_.tolist()):
        return "warm variant set differs from a cold FS on the same shots"
    return None


def measure(state: dict, ctx) -> dict:
    from repro.experiments.drift_schedule import make_drift_schedule

    hop_times, detect = [], []
    attempted = failed = wrong = 0
    traced = []
    start = time.perf_counter()
    min_ops = 2 if ctx.trace else 1
    while (attempted < min_ops
           or time.perf_counter() - start < ctx.seconds):
        k = attempted
        attempted += 1
        hop_seed = 1_000_003 * (ctx.seed + 1) + k
        batches = make_drift_schedule(WIDTH, schedule="abrupt",
                                      random_state=hop_seed)["batches"]
        root = ctx.tmp / f"hop-{k}"
        # traced runs alternate untraced and traced hops
        recorder = instrument(LAYERS) if ctx.trace and k % 2 == 1 else None
        gc.collect()  # no hop pays for the garbage of the one before
        try:
            op = _hop(state, batches, root, recorder)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            ctx.log(f"hop {k} failed: {type(exc).__name__}: {exc}")
            shutil.rmtree(root, ignore_errors=True)
            failed += 1
            continue
        finally:
            if recorder is not None:
                recorder.restore()
        problem = _check(state, op)
        shutil.rmtree(root, ignore_errors=True)
        if problem is not None:
            ctx.log(f"hop {k}: {problem}")
            failed += 1
            wrong += 1
            continue
        if not op["promoted"]:
            # a failed operation, not a wrong output: the candidate did not
            # win its shadow window before the stream ended
            ctx.log(f"hop {k}: not promoted")
            failed += 1
            continue
        if recorder is not None:
            traced.append((recorder, op))
        else:
            hop_times.append(op["hop_s"])
            detect.append(op["alarm_batch"] - (ONSET + 1))
    if not hop_times:
        return {"attempted": attempted, "failed": failed, "wrong": wrong}
    out = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "op_latencies": hop_times,
        "figures": {
            "hop_s": (median(hop_times), "s"),
            "detect_batches": (median(detect), "batches"),
        },
    }
    if ctx.trace:
        out["layers"] = _layers(traced, median(hop_times),
                                state["cold_fit_s"])
    return out


def _layers(traced, untraced_hop: float, cold_fit_s: float) -> dict:
    rows: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        rows.setdefault(name, []).append(value)

    for recorder, op in traced:
        spans = recorder.spans
        root = next(i for i, s in enumerate(spans) if s.name == "op")
        idx = recorder.subtree(root)
        selfs = self_times(spans, idx)
        total = spans[root].duration
        stats = op["pipeline"].separator_.cache_stats_ or {}
        hits = sum(stats.get(f"{c}_hits", 0) for c in ("design", "beta", "warm"))
        misses = sum(stats.get(f"{c}_misses", 0)
                     for c in ("design", "beta", "warm"))
        updates = call_durations(spans, idx, "obs.drift")
        add("causal.rediscover_s", selfs.get("causal.rediscover", 0.0))
        add("causal.rediscover_ci_tests",
            float(op["pipeline"].separator_.result_.n_tests))
        add("causal.cache_hit_ratio",
            hits / (hits + misses) if hits + misses else 0.0)
        add("gan.refit_s", selfs.get("gan.refit", 0.0))
        add("serve.plan.compile_s", selfs.get("serve.plan.compile", 0.0))
        add("adapt.lineage.publish_s", selfs.get("adapt.lineage.publish", 0.0))
        add("adapt.lineage.promote_s", selfs.get("adapt.lineage.promote", 0.0))
        add("adapt.shadow.observe_s", selfs.get("adapt.shadow", 0.0))
        add("adapt.shadow.batches",
            float(len(call_durations(spans, idx, "adapt.shadow"))))
        add("obs.drift.self_s", selfs.get("obs.drift", 0.0))
        add("obs.drift.update_ms",
            1e3 * median(updates) if updates else 0.0)
        add("adapt.controller.self_s", selfs.get("adapt.controller", 0.0))
        add("other_s", selfs.get("op", 0.0))
        add("trace.op_s", total)
        add("trace.residual_s", abs(sum(selfs.values()) - total))
        add("trace.hop_s", op["hop_s"])
    layers = {name: median(values) for name, values in rows.items()}
    layers["trace.residual_s"] = max(rows.get("trace.residual_s", [0.0]))
    layers["causal.cold_fit_s"] = cold_fit_s
    if "trace.hop_s" in layers:
        layers["trace.overhead_s"] = layers.pop("trace.hop_s") - untraced_hop
    return layers
