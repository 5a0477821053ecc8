"""fit-5gc: one offline adaptation (the paper's Fig. 1 pipeline) per operation.

``FSGANPipeline.fit`` on the 5GC SCM at the ``fast`` preset shape (111
features, 800 source rows, 10 target shots per fault type) with the MLP
downstream and the preset's cGAN, then ``compile()``, then scoring of the
target test set through the compiled plan.  Every operation of a run
repeats the same adaptation on the same inputs.
"""

from __future__ import annotations

import time

import numpy as np

from stats import median
from spans import call_durations, instrument, self_times

SHOTS = 10

#: wrapped public calls -> layer names (traced run only)
LAYERS = (
    ("repro.core.feature_separation", "FeatureSeparator", "fit",
     "causal.discover"),
    ("repro.core.reconstruction", "VariantReconstructor", "fit", "gan.train"),
    ("repro.ml.mlp", "MLPClassifier", "fit", "ml.model_fit"),
    ("repro.core.pipeline", "FSGANPipeline", "compile", "serve.plan.compile"),
    ("repro.serve.plan", "InferencePlan", "predict_proba", "serve.plan.score"),
)


def setup(ctx) -> dict:
    from repro.datasets.fivegc import make_5gc
    from repro.experiments.presets import get_preset

    preset = get_preset("fast")
    bench = make_5gc(preset.fivegc, random_state=ctx.seed)
    X_few, _, X_test, y_test = bench.few_shot_split(SHOTS,
                                                    random_state=ctx.seed)
    return {"preset": preset, "bench": bench, "X_few": X_few,
            "X_test": X_test, "y_test": y_test}


def _adapt(state: dict, seed: int) -> dict:
    """One operation; returns its timings and outputs."""
    from repro.core import FSGANPipeline, ReconstructionConfig
    from repro.ml import MLPClassifier

    preset, bench = state["preset"], state["bench"]
    t0 = time.perf_counter()
    pipeline = FSGANPipeline(
        lambda: MLPClassifier(epochs=preset.models.mlp_epochs,
                              random_state=seed),
        reconstruction_config=ReconstructionConfig(
            epochs=preset.gan_epochs, noise_dim=preset.gan_noise_dim,
            hidden_size=preset.gan_hidden,
        ),
        random_state=seed,
    )
    pipeline.fit(bench.X_source, bench.y_source, state["X_few"])
    plan = pipeline.compile()
    fit_s = time.perf_counter() - t0
    proba = plan.predict_proba(state["X_test"])
    return {"fit_s": fit_s, "pipeline": pipeline, "proba": proba}


def _check(state: dict, op: dict) -> tuple[bool, float]:
    """Plan output must equal the pipeline's own predict_proba exactly."""
    from repro.ml.metrics import macro_f1

    pipeline, proba = op["pipeline"], op["proba"]
    same = np.array_equal(proba, pipeline.predict_proba(state["X_test"]))
    classes = getattr(pipeline.model_, "classes_", None)
    codes = np.argmax(proba, axis=1)
    y_pred = classes[codes] if classes is not None else codes
    return bool(same), float(macro_f1(state["y_test"], y_pred))


def measure(state: dict, ctx) -> dict:
    fit_times, f1s = [], []
    attempted = failed = wrong = 0
    traced = None
    start = time.perf_counter()
    n_ops = 2 if ctx.trace else None
    while True:
        k = attempted
        if n_ops is not None and k >= n_ops:
            break
        if n_ops is None and k > 0 and time.perf_counter() - start >= ctx.seconds:
            break
        attempted += 1
        do_trace = ctx.trace and k == 1
        recorder = instrument(LAYERS) if do_trace else None
        try:
            if recorder is not None:
                with recorder.span("op"):
                    op = _adapt(state, ctx.seed)
            else:
                op = _adapt(state, ctx.seed)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            ctx.log(f"operation {k} failed: {type(exc).__name__}: {exc}")
            failed += 1
            continue
        finally:
            if recorder is not None:
                recorder.restore()
        same, f1 = _check(state, op)
        if not same:
            ctx.log(f"operation {k}: plan predict_proba != pipeline")
            failed += 1
            wrong += 1
            continue
        f1s.append(f1)
        if recorder is not None:
            traced = (recorder, op)
        else:
            fit_times.append(op["fit_s"])
    if not fit_times:
        return {"attempted": attempted, "failed": failed, "wrong": wrong}
    n_test = state["X_test"].shape[0]
    out = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "op_latencies": fit_times,
        "figures": {
            "fit_s": (median(fit_times), "s"),
            "target_f1": (median(f1s), "f1"),
        },
    }
    if traced is not None:
        out["layers"] = _layers(traced, median(fit_times), n_test,
                                state["preset"].gan_epochs)
    return out


def _layers(traced, untraced_fit: float, n_test: int, epochs: int) -> dict:
    recorder, op = traced
    spans = recorder.spans
    root = next(i for i, s in enumerate(spans) if s.name == "op")
    idx = recorder.subtree(root)
    selfs = self_times(spans, idx)
    total = spans[root].duration
    gan_train = sum(call_durations(spans, idx, "gan.train"))
    score = sum(call_durations(spans, idx, "serve.plan.score"))
    separator = op["pipeline"].separator_
    layers = {
        "causal.discover_s": selfs.get("causal.discover", 0.0),
        "causal.ci_tests": float(separator.result_.n_tests),
        "gan.train_s": selfs.get("gan.train", 0.0),
        "gan.epochs_per_s": epochs / gan_train if gan_train > 0 else 0.0,
        "ml.model_fit_s": selfs.get("ml.model_fit", 0.0),
        "serve.plan.compile_s": selfs.get("serve.plan.compile", 0.0),
        "serve.plan.score_rows_per_s": n_test / score if score > 0 else 0.0,
        "serve.plan.score_s": selfs.get("serve.plan.score", 0.0),
        "other_s": selfs.get("op", 0.0),
        "trace.op_s": total,
        "trace.residual_s": abs(sum(selfs.values()) - total),
        "trace.overhead_s": op["fit_s"] - untraced_fit,
    }
    return layers
