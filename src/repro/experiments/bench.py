"""Performance benchmark harness behind ``repro bench`` (§VI-D).

The paper's running-time table is dominated by the CI tests of FS
discovery.  This module measures exactly that cost, twice:

- **before** — :func:`reference_discover`, a frozen copy of the original
  per-feature scalar loop (one :func:`regression_invariance_test` call per
  subset), kept here so the baseline stays measurable after the hot path
  moved to :class:`repro.causal.engine.CIEngine`;
- **after** — :class:`repro.core.feature_separation.FeatureSeparator` on the
  batched/cached engine path, with optional ``n_jobs`` workers.

Both runs share the same data, candidates and early-break semantics, so the
speedup is apples-to-apples and the record carries an ``equivalent`` flag
checking the results actually agree.  GAN training and per-sample inference
round out the §VI-D decomposition.  Records are merged into a seed-keyed
JSON file (``BENCH_fs.json`` by default) so repeated runs across datasets,
presets and seeds accumulate rather than clobber.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace
from itertools import combinations

import numpy as np

from repro.causal.ci_tests import regression_invariance_test
from repro.causal.fnode import FNodeDiscovery, FNodeResult
from repro.causal.warm import WarmState
from repro.core.config import FSConfig, ReconstructionConfig
from repro.core.feature_separation import FeatureSeparator
from repro.core.reconstruction import VariantReconstructor
from repro.experiments.bench_registry import (
    BenchRecord,
    bench_key,
    get_suite,
    write_bench_record as _registry_write,
)
from repro.experiments.presets import ExperimentPreset, get_preset
from repro.experiments.runner import make_benchmark
from repro.ml.preprocessing import MinMaxScaler
from repro.obs.logging import get_logger
from repro.obs.trace import Stopwatch, get_tracer

#: schema tag stamped into every benchmark file this module writes
#: (owned by the suite registry; kept as a module constant for callers)
BENCH_SCHEMA = get_suite("fs").schema


def reference_discover(
    X_source, X_target, *, config: FSConfig | None = None
) -> FNodeResult:
    """The pre-engine FS discovery loop, frozen as the timing baseline.

    One scalar :func:`regression_invariance_test` per (feature, subset),
    with the same candidate sets and first-clearing-subset early break as
    :class:`FNodeDiscovery` — only the batching/caching differs, so timing
    this against the engine isolates the optimization being benchmarked.
    """
    config = config or FSConfig()
    disc = FNodeDiscovery(config)
    X_source = np.ascontiguousarray(X_source, dtype=np.float64)
    X_target = np.ascontiguousarray(X_target, dtype=np.float64)
    d = X_source.shape[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(X_source, rowvar=False)
    if d == 1:
        corr = np.array([[1.0]])
    p_values = np.zeros(d)
    parent_sets: list[tuple[int, ...]] = []
    n_tests = 0
    for j in range(d):
        candidates = disc._candidates(corr, j)
        best_p, separating = 0.0, ()
        for size in range(0, config.max_cond_size + 1):
            cleared = False
            for subset in combinations(candidates, size):
                cols = list(subset)
                z_s = X_source[:, cols] if cols else None
                z_t = X_target[:, cols] if cols else None
                p = regression_invariance_test(
                    X_source[:, j], X_target[:, j], z_s, z_t
                )
                n_tests += 1
                if p > best_p:
                    best_p, separating = p, subset
                if p >= config.alpha:
                    cleared = True
                    break
            if cleared:
                break
        p_values[j] = best_p
        parent_sets.append(separating)
    variant = np.where(p_values < config.alpha)[0]
    invariant = np.where(p_values >= config.alpha)[0]
    return FNodeResult(
        variant_indices=variant,
        invariant_indices=invariant,
        p_values=p_values,
        parent_sets=parent_sets,
        n_tests=n_tests,
    )


def write_bench_record(record, path: str, *, schema: str = BENCH_SCHEMA) -> None:
    """Merge ``record`` into the JSON file at ``path`` (created if absent).

    Thin wrapper over :func:`repro.experiments.bench_registry.write_bench_record`
    defaulting to the FS suite's schema; kept here because the other bench
    modules historically import the helper from this module.
    """
    _registry_write(record, path, schema=schema)


def run_bench(
    dataset: str = "5gc",
    *,
    preset: str | ExperimentPreset | None = None,
    shots: int = 10,
    n_jobs: int = 1,
    fs_rounds: int = 3,
    include_gan: bool = True,
    n_inference_samples: int = 64,
    random_state: int = 0,
    out: str | None = None,
) -> dict:
    """Benchmark FS discovery (reference vs engine), GAN training, inference.

    FS timings are the best of ``fs_rounds`` runs per side (the standard
    min-of-rounds estimator — one slow round from scheduler noise should not
    move a speedup ratio).  Returns the record; when ``out`` is given, also
    merges it into that benchmark file under its :func:`bench_key`.
    """
    preset = preset if isinstance(preset, ExperimentPreset) else get_preset(preset)
    tracer = get_tracer()
    logger = get_logger("repro.experiments.bench")
    bench = make_benchmark(dataset, preset, random_state=random_state)
    X_few, _, X_test, _ = bench.few_shot_split(shots, random_state=random_state)
    scaler = MinMaxScaler().fit(bench.X_source)
    Xs = scaler.transform(bench.X_source)
    Xt_few = scaler.transform(X_few)
    fs_config = FSConfig(n_jobs=n_jobs)

    fs_rounds = max(1, fs_rounds)
    ref_seconds = float("inf")
    with tracer.span("bench.fs_reference", dataset=dataset, rounds=fs_rounds):
        for _ in range(fs_rounds):
            with Stopwatch() as sw:
                ref = reference_discover(Xs, Xt_few, config=fs_config)
            ref_seconds = min(ref_seconds, sw.seconds)
    logger.info(
        "reference loop: %.2f s (%d CI tests)", ref_seconds, ref.n_tests
    )

    eng_seconds = float("inf")
    with tracer.span("bench.fs_engine", n_jobs=n_jobs, rounds=fs_rounds):
        for _ in range(fs_rounds):
            with Stopwatch() as sw:
                sep = FeatureSeparator(fs_config).fit(Xs, Xt_few)
            eng_seconds = min(eng_seconds, sw.seconds)
    res = sep.result_
    logger.info("batched engine: %.2f s (%d CI tests)", eng_seconds, res.n_tests)

    equivalent = bool(
        np.array_equal(ref.variant_indices, res.variant_indices)
        and np.allclose(ref.p_values, res.p_values, rtol=1e-9, atol=1e-12)
        and ref.parent_sets == res.parent_sets
        and ref.n_tests == res.n_tests
    )

    gan_seconds = None
    per_sample = None
    if include_gan:
        X_inv, X_var = sep.split(Xs)
        rec = VariantReconstructor(
            ReconstructionConfig(
                strategy="gan",
                noise_dim=preset.gan_noise_dim,
                hidden_size=preset.gan_hidden,
                epochs=preset.gan_epochs,
            ),
            random_state=random_state,
        )
        with tracer.span("bench.gan", epochs=preset.gan_epochs), Stopwatch() as sw:
            rec.fit(X_inv, X_var, bench.y_source)
        gan_seconds = sw.seconds
        Xt = scaler.transform(X_test[:n_inference_samples])
        inv_block, _ = sep.split(Xt)
        with tracer.span(
            "bench.inference", n_samples=len(inv_block)
        ), Stopwatch() as sw:
            for row in inv_block:  # one sample at a time, as in online inference
                rec.reconstruct(row[None, :])
        per_sample = sw.seconds / len(inv_block)

    record = BenchRecord(
        suite="fs",
        dataset=dataset,
        preset=preset.name,
        seed=random_state,
        before={
            "fs_seconds": ref_seconds,
            "n_ci_tests": int(ref.n_tests),
            "n_variant": int(ref.n_variant),
        },
        after={
            "fs_seconds": eng_seconds,
            "n_ci_tests": int(res.n_tests),
            "n_variant": int(res.n_variant),
        },
        speedup=ref_seconds / max(eng_seconds, 1e-9),
        equivalent=equivalent,
        extras={
            "shots": shots,
            "n_jobs": n_jobs,
            "fs_rounds": fs_rounds,
            "n_features": bench.n_features,
            "gan_train_seconds": gan_seconds,
            "inference_seconds_per_sample": per_sample,
        },
    ).to_dict()
    if out:
        write_bench_record(record, out)
        logger.info("benchmark record written to %s", out)
    return record


# ---------------------------------------------------------------------------
# wide-scale FS benchmark (ROADMAP item 4): synthetic drift pairs at the
# paper's 442-feature operating point and beyond

#: features per causal group in the wide generator (1 drifted parent,
#: 5 children separated by conditioning on it, 2 independent noise columns)
_WIDE_GROUP = 8


def make_wide_pair(
    n_features: int,
    *,
    n_source: int = 480,
    n_target: int = 120,
    drift: float = 1.2,
    random_state: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic (source, target) matrices of exactly ``n_features`` columns.

    The 5GC generator's width is tied to its infra/KPI group structure, so
    it cannot hit arbitrary widths; this generator exists to measure FS
    *scaling* with exact width control.  Features come in groups of
    :data:`_WIDE_GROUP` with the three causal roles discovery must tell
    apart: a **parent** whose mechanism drifts in the target (an
    intervention target — no conditioning subset clears it), five
    **children** of that parent (marginally drifted, separated by
    conditioning on the parent), and two independent **noise** columns
    (cleared by the marginal sweep).  A trailing partial group is filled
    with noise columns so any width is reachable.
    """
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    rng = np.random.default_rng(random_state)

    def domain(n_rows: int, drifted: bool) -> np.ndarray:
        X = np.empty((n_rows, n_features))
        for start in range(0, n_features, _WIDE_GROUP):
            width = min(_WIDE_GROUP, n_features - start)
            parent = rng.standard_normal(n_rows)
            if drifted:
                parent = parent + drift  # soft intervention: mean shift
            cols = [parent]
            for child in range(1, max(width - 2, 1)):
                # fixed cross-domain mechanism: invariant given the parent.
                # the unit noise keeps siblings from jointly reconstructing
                # the parent, which would spuriously clear the true target
                noise = rng.standard_normal(n_rows)
                weight = 0.75 + 0.05 * (child % 3)
                cols.append(weight * parent + noise)
            while len(cols) < width:
                cols.append(rng.standard_normal(n_rows))
            X[:, start : start + width] = np.column_stack(cols[:width])
        return X

    return domain(n_source, drifted=False), domain(n_target, drifted=True)


def run_bench_wide(
    widths: tuple[int, ...] = (442, 1024),
    *,
    n_jobs: int = -1,
    fs_rounds: int = 2,
    prune_k: int = 3,
    stats_dtype: str = "float32",
    n_source: int = 480,
    n_target: int = 120,
    random_state: int = 0,
    out: str | None = None,
) -> list[dict]:
    """FS scaling curve: the default engine vs the wide-scale fast path.

    For each width, **before** runs the default configuration
    (``FSConfig(n_jobs=n_jobs)``: no pruning, float64 statistics) and
    **after** adds the wide-scale settings (exact-mode pruning at
    ``prune_k``, ``stats_dtype`` statistics with float64 borderline
    verification).  Both sides see the same matrices and ``n_jobs``;
    ``equivalent`` asserts identical variant decisions, which exact-mode
    pruning and verified float32 guarantee by construction.
    Returns one record per width; with ``out``, each is merged under
    ``wide/<width>/seed<seed>``.
    """
    tracer = get_tracer()
    logger = get_logger("repro.experiments.bench")
    fs_rounds = max(1, fs_rounds)
    records: list[dict] = []
    for width in widths:
        Xs, Xt = make_wide_pair(
            int(width),
            n_source=n_source,
            n_target=n_target,
            random_state=random_state,
        )
        before_disc = FNodeDiscovery(FSConfig(n_jobs=n_jobs))
        after_disc = FNodeDiscovery(
            FSConfig(n_jobs=n_jobs, prune_k=prune_k, stats_dtype=stats_dtype)
        )
        before_seconds = after_seconds = float("inf")
        with tracer.span("bench.fs_wide", width=int(width), rounds=fs_rounds):
            for _ in range(fs_rounds):
                with Stopwatch() as sw:
                    before = before_disc.discover(Xs, Xt)
                before_seconds = min(before_seconds, sw.seconds)
                with Stopwatch() as sw:
                    after = after_disc.discover(Xs, Xt)
                after_seconds = min(after_seconds, sw.seconds)
        equivalent = bool(
            np.array_equal(before.variant_indices, after.variant_indices)
            and after.coverage == 1.0
        )
        speedup = before_seconds / max(after_seconds, 1e-9)
        logger.info(
            "wide %d: %.2fs -> %.2fs (%.2fx, equivalent=%s)",
            width, before_seconds, after_seconds, speedup, equivalent,
        )
        record = BenchRecord(
            suite="fs",
            dataset="wide",
            preset=str(int(width)),
            seed=random_state,
            before={
                "fs_seconds": before_seconds,
                "n_ci_tests": int(before.n_tests),
                "n_variant": int(before.n_variant),
            },
            after={
                "fs_seconds": after_seconds,
                "n_ci_tests": int(after.n_tests),
                "n_variant": int(after.n_variant),
            },
            speedup=speedup,
            equivalent=equivalent,
            extras={
                "n_features": int(width),
                "n_jobs": n_jobs,
                "fs_rounds": fs_rounds,
                "n_source": n_source,
                "n_target": n_target,
                "before_mode": "default+float64",
                "after_mode": f"default+prune_k={prune_k}+{stats_dtype}",
                "coverage": float(after.coverage),
            },
        ).to_dict()
        records.append(record)
        if out:
            write_bench_record(record, out)
            logger.info("benchmark record written to %s", out)
    return records


# ---------------------------------------------------------------------------
# warm-start re-discovery benchmark: cold discovery vs rediscover() from the
# previous run's WarmState after a few-shot target update


def _clone_warm(warm: WarmState) -> WarmState:
    """Deep, isolated copy of a warm state (serialization roundtrip).

    Each timing round must start from the *same* warm state; reusing the
    live object would let round N+1 profit from cache entries round N
    added.  Residuals are included so the clone carries everything the
    producing run accumulated.
    """
    return WarmState.from_state(warm.state_dict(include_residuals=True))


def run_bench_warm(
    widths: tuple[int, ...] = (442,),
    *,
    n_jobs: int = -1,
    fs_rounds: int = 2,
    prune_k: int = 3,
    max_parents: int = 6,
    max_cond_size: int = 3,
    min_correlation: float = 0.1,
    stats_dtype: str = "float32",
    n_source: int = 480,
    n_target: int = 120,
    n_prior: int = 96,
    random_state: int = 0,
    out: str | None = None,
) -> list[dict]:
    """Warm-start FS re-discovery benchmark (drift-event refit scenario).

    Models the production loop: a run at ``n_prior`` target rows produces a
    :class:`~repro.causal.warm.WarmState` (decision priors + the persistent
    CI-statistics cache), then new few-shot rows arrive and discovery
    re-runs on ``n_target`` rows.  **before** is a cold :meth:`discover` on
    the updated pool; **after** is :meth:`rediscover` from the prior state.
    Both sides run the identical engine configuration (pruning, dtype,
    fan-out), so the ratio isolates exactly what warm start buys.

    Every record also carries untimed equivalence evidence against the cold
    variant set: the timed warm run (``warm_equal``), serial / process-pool
    / shared-memory fan-outs, and a save→load artifact roundtrip of the
    warm state (the daemon-triggered warm-refit path); ``equivalent`` is
    the conjunction.  With ``out``, records merge under
    ``warm/<width>/seed<seed>``.
    """
    from repro.core.artifacts import load_artifact, save_artifact

    tracer = get_tracer()
    logger = get_logger("repro.experiments.bench")
    fs_rounds = max(1, fs_rounds)
    serial = FSConfig(
        prune_k=prune_k,
        max_parents=max_parents,
        max_cond_size=max_cond_size,
        min_correlation=min_correlation,
        stats_dtype=stats_dtype,
    )
    fanned = replace(serial, n_jobs=n_jobs)
    records: list[dict] = []
    for width in widths:
        Xs, Xt = make_wide_pair(
            int(width),
            n_source=n_source,
            n_target=n_target,
            random_state=random_state,
        )
        if not 0 < n_prior < n_target:
            raise ValueError("n_prior must be in (0, n_target)")
        Xt_prior = Xt[:n_prior]

        # the producing run: discovery at the prior shot budget (untimed).
        # Serial on purpose — pool workers keep their cache entries local,
        # so only a serial run accumulates the complete CI-statistics cache
        # the warm state is supposed to carry.
        prior_disc = FNodeDiscovery(serial)
        prior_disc.discover(Xs, Xt_prior)
        warm0 = prior_disc.warm_state_

        before_seconds = after_seconds = float("inf")
        cold = after = None
        with tracer.span("bench.fs_warm", width=int(width), rounds=fs_rounds):
            for _ in range(fs_rounds):
                cold_disc = FNodeDiscovery(fanned)
                with Stopwatch() as sw:
                    cold = cold_disc.discover(Xs, Xt)
                before_seconds = min(before_seconds, sw.seconds)
                warm_disc = FNodeDiscovery(fanned)
                warm_in = _clone_warm(warm0)
                with Stopwatch() as sw:
                    after = warm_disc.rediscover(Xs, Xt, warm_in)
                after_seconds = min(after_seconds, sw.seconds)

        def variant_equal(result) -> bool:
            return bool(
                np.array_equal(cold.variant_indices, result.variant_indices)
            )

        # untimed equivalence evidence: every fan-out path
        checks = {"warm_equal": variant_equal(after)}
        for name, config in (
            ("serial_equal", serial),
            ("pool_equal", replace(serial, n_jobs=2, use_shared_memory=False)),
            ("shm_equal", replace(serial, n_jobs=2)),
        ):
            res = FNodeDiscovery(config).rediscover(Xs, Xt, _clone_warm(warm0))
            checks[name] = variant_equal(res)

        # artifact roundtrip: the warm state must survive the v2 bundle and
        # still drive an equivalent warm refit (the daemon restart path)
        sep = FeatureSeparator(serial).fit(Xs, Xt_prior)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "separator.npz")
            save_artifact(sep, path)
            restored = load_artifact(path).estimator
        rt = FNodeDiscovery(serial).rediscover(Xs, Xt, restored.warm_state_)
        checks["roundtrip_equal"] = variant_equal(rt)

        equivalent = bool(
            all(checks.values())
            and cold.coverage == 1.0
            and after.coverage == 1.0
        )
        speedup = before_seconds / max(after_seconds, 1e-9)
        logger.info(
            "warm %d: %.2fs -> %.2fs (%.2fx, tests %d -> %d, equivalent=%s)",
            width, before_seconds, after_seconds, speedup,
            cold.n_tests, after.n_tests, equivalent,
        )
        record = BenchRecord(
            suite="fs",
            dataset="warm",
            preset=str(int(width)),
            seed=random_state,
            before={
                "fs_seconds": before_seconds,
                "n_ci_tests": int(cold.n_tests),
                "n_variant": int(cold.n_variant),
            },
            after={
                "fs_seconds": after_seconds,
                "n_ci_tests": int(after.n_tests),
                "n_variant": int(after.n_variant),
            },
            speedup=speedup,
            equivalent=equivalent,
            extras={
                "n_features": int(width),
                "n_jobs": n_jobs,
                "fs_rounds": fs_rounds,
                "n_source": n_source,
                "n_target": n_target,
                "n_prior": n_prior,
                "n_new_rows": int(n_target - n_prior),
                "max_parents": int(max_parents),
                "max_cond_size": int(max_cond_size),
                "min_correlation": float(min_correlation),
                "before_mode": f"cold+prune_k={prune_k}+{stats_dtype}",
                "after_mode": f"warm-exact+prune_k={prune_k}+{stats_dtype}",
                "coverage": float(after.coverage),
                "n_cache_entries": (
                    int(warm0.cache.n_entries) if warm0.cache is not None else 0
                ),
                **checks,
            },
        ).to_dict()
        records.append(record)
        if out:
            write_bench_record(record, out)
            logger.info("benchmark record written to %s", out)
    return records


def cli_bench(args, preset, out: str) -> str:
    """CLI adapter for ``repro bench --suite fs`` (the registry hook)."""
    from repro.experiments.reporting import (
        format_bench,
        format_bench_warm,
        format_bench_wide,
    )

    if getattr(args, "warm", False):
        widths = tuple(int(w) for w in args.widths.split(",") if w.strip())
        records = run_bench_warm(
            widths,
            n_jobs=args.n_jobs,
            fs_rounds=args.rounds,
            random_state=args.seed,
            out=out,
        )
        return format_bench_warm(records)
    if getattr(args, "wide", False):
        widths = tuple(int(w) for w in args.widths.split(",") if w.strip())
        records = run_bench_wide(
            widths,
            n_jobs=args.n_jobs,
            fs_rounds=args.rounds,
            random_state=args.seed,
            out=out,
        )
        return format_bench_wide(records)
    record = run_bench(
        args.dataset,
        preset=preset,
        shots=args.shots,
        n_jobs=args.n_jobs,
        include_gan=not args.skip_gan,
        random_state=args.seed,
        out=out,
    )
    return format_bench(record)


def check_fs_record(record: dict) -> list[str]:
    """FS-suite equivalence oracle (the registry hook).

    Beyond the shared record shape: both sides must carry positive FS
    wall-clock timings and have run the same number of CI tests.  In
    pruned wide mode (flagged by ``after_mode``) the counts may drift a
    little — pruning reshapes the adaptive test schedule, so ties break
    differently — but the pruned engine running *materially more* tests
    than the reference means pruning is not pruning.  Warm records
    (``after_mode`` contains ``warm``) must do strictly no more work than
    the cold side and must carry every equivalence check
    :func:`run_bench_warm` records (the timed warm run, per-fan-out-path
    and the artifact roundtrip) as ``True``.
    """
    problems = []
    for side in ("before", "after"):
        seconds = record[side].get("fs_seconds")
        if not isinstance(seconds, (int, float)) or seconds <= 0:
            problems.append(f"{side}.fs_seconds must be > 0, got {seconds!r}")
    before_tests = record["before"].get("n_ci_tests")
    after_tests = record["after"].get("n_ci_tests")
    after_mode = str(record.get("after_mode", ""))
    pruned = "prune" in after_mode
    warm = "warm" in after_mode
    if warm:
        if (
            before_tests is not None
            and after_tests is not None
            and after_tests > before_tests
        ):
            problems.append(
                f"warm re-discovery ran more tests than cold: "
                f"{after_tests} > {before_tests}"
            )
        for key in (
            "warm_equal",
            "serial_equal",
            "pool_equal",
            "shm_equal",
            "roundtrip_equal",
        ):
            if record.get(key) is not True:
                problems.append(
                    f"warm equivalence check {key} must be true, "
                    f"got {record.get(key)!r}"
                )
    elif before_tests is not None and after_tests is not None:
        if not pruned and before_tests != after_tests:
            problems.append(
                f"CI test counts diverge without pruning: "
                f"{before_tests} vs {after_tests}"
            )
        if pruned and after_tests > before_tests * 1.01 + 2:
            problems.append(
                f"pruned engine ran materially more tests than the "
                f"reference: {after_tests} > {before_tests}"
            )
    return problems
