"""Closed-loop adaptation scenario driver and the ``adapt`` bench suite.

:func:`run_adapt_scenario` replays a synthetic traffic stream with a *known*
drift onset through a live :class:`~repro.adapt.controller.AdaptationController`
and measures the loop's end-to-end figures of merit:

- **detection latency** — batches between the first drifted batch and the
  drift alarm (window-filling lag of the PSI tracker);
- **shots-to-refit** — post-alarm rows accumulated before re-discovery
  fires (the paper's few-shot budget in the loop);
- **warm vs cold re-discovery cost** — the in-loop warm
  :meth:`~repro.core.pipeline.FSGANPipeline.rediscover_fs` wall time
  against a cold :class:`~repro.core.feature_separation.FeatureSeparator`
  fit on exactly the same shot matrix and engine configuration;
- **alarm-to-promotion wall time** — alarm batch to the lineage pointer
  flip, covering re-discovery, cGAN refit and the shadow agreement window.

The traffic generator reuses :func:`~repro.experiments.bench.make_wide_pair`
(the wide-scale FS benchmark's synthetic family), so the 442-feature preset
of ``repro bench --suite fs --warm`` is reachable *inside the loop* and the
warm-vs-cold ratio is directly comparable to the standalone warm benchmark.

Drift-tracker calibration: ``psi_max`` is a max-statistic over all
features, so it inflates with both small windows (a 32-row window shows
up to ~2.7 on same-distribution traffic) and width (442 features reach
~0.95 where 48 stay under ~0.75).  The scenario defaults —
``min_rows=192`` / ``window_rows=256`` / ``n_bins=8`` / 64-row batches /
``psi_threshold=1.5`` — keep same-distribution traffic below ~1.0 at
every tested width while the injected mean shift climbs past 1.8 within
a few window fills, so the threshold has margin on both sides and the
measured detection latency is the tracker's genuine window-filling lag.

``repro bench --suite adapt`` (and ``repro adapt run``) emit one
seed-keyed record per width into ``BENCH_adapt.json`` via the shared
:mod:`~repro.experiments.bench_registry` machinery.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.experiments.bench import make_wide_pair
from repro.experiments.bench_registry import (
    BenchRecord,
    get_suite,
    write_bench_record,
)
from repro.obs.logging import get_logger
from repro.obs.trace import get_tracer
from repro.utils.errors import ValidationError

__all__ = [
    "SCHEDULES",
    "check_adapt_record",
    "cli_bench_adapt",
    "format_bench_adapt",
    "make_drift_schedule",
    "run_adapt_scenario",
    "run_bench_adapt",
]

SCHEDULES = ("abrupt", "gradual")


def make_drift_schedule(
    width: int,
    *,
    schedule: str = "abrupt",
    n_batches: int = 32,
    batch_rows: int = 64,
    onset_batch: int = 10,
    ramp_batches: int = 4,
    n_source: int = 480,
    n_prior: int = 96,
    random_state: int = 0,
) -> dict:
    """Training matrices plus a batch stream with a known drift onset.

    Returns a dict with ``X_source`` / ``y_source`` / ``X_target_prior``
    (the generation-0 training inputs), ``batches`` (the traffic stream:
    ``n_batches`` matrices of ``batch_rows`` rows each) and the schedule
    metadata.  Batches ``0 .. onset_batch-1`` are drawn from the source
    distribution; from ``onset_batch`` on, rows come from the drifted
    target distribution — all of them at once (``abrupt``) or linearly
    ramping over ``ramp_batches`` batches (``gradual``).  Traffic rows are
    generated from an independent seed, so the stream never replays
    training rows.
    """
    if schedule not in SCHEDULES:
        raise ValidationError(
            f"schedule must be one of {SCHEDULES}, got {schedule!r}"
        )
    if not 1 <= onset_batch < n_batches:
        raise ValidationError(
            f"onset_batch must be in [1, n_batches), got {onset_batch}"
        )
    if ramp_batches < 1:
        raise ValidationError("ramp_batches must be >= 1")
    X_source, X_target_prior = make_wide_pair(
        int(width), n_source=n_source, n_target=n_prior,
        random_state=random_state,
    )
    # deterministic binary labels off the first feature: the downstream
    # model's quality is irrelevant here, only its probability stream is
    y_source = (X_source[:, 0] > np.median(X_source[:, 0])).astype(np.int64)
    rows = n_batches * batch_rows
    pre_pool, post_pool = make_wide_pair(
        int(width), n_source=rows, n_target=rows,
        random_state=random_state + 1,
    )
    rng = np.random.default_rng(random_state + 2)
    batches = []
    for t in range(n_batches):
        lo = t * batch_rows
        if t < onset_batch:
            fraction = 0.0
        elif schedule == "abrupt":
            fraction = 1.0
        else:
            fraction = min(1.0, (t - onset_batch + 1) / ramp_batches)
        k = int(round(fraction * batch_rows))
        batch = np.vstack([
            post_pool[lo:lo + k],
            pre_pool[lo + k:lo + batch_rows],
        ])
        batches.append(batch[rng.permutation(batch_rows)])
    return {
        "width": int(width),
        "schedule": schedule,
        "onset_batch": int(onset_batch),
        "batch_rows": int(batch_rows),
        "n_batches": int(n_batches),
        "ramp_batches": int(ramp_batches),
        "X_source": X_source,
        "y_source": y_source,
        "X_target_prior": X_target_prior,
        "batches": batches,
    }


def _scenario_pipeline(n_jobs: int, epochs: int, random_state: int):
    """An FSGANPipeline in the warm-bench 442-preset engine configuration."""
    from repro.core import FSGANPipeline, ReconstructionConfig
    from repro.core.config import FSConfig
    from repro.ml import MLPClassifier

    return FSGANPipeline(
        lambda: MLPClassifier(
            hidden_sizes=(16,), epochs=8, random_state=random_state
        ),
        fs_config=FSConfig(
            max_parents=6,
            max_cond_size=3,
            min_correlation=0.1,
            prune_k=3,
            prune_exact=True,
            stats_dtype="float32",
            use_shared_memory=True,
            n_jobs=n_jobs,
        ),
        reconstruction_config=ReconstructionConfig(
            strategy="gan", epochs=epochs, noise_dim=2, hidden_size=8,
        ),
        random_state=random_state,
    )


def run_adapt_scenario(
    width: int = 48,
    *,
    schedule: str = "abrupt",
    n_batches: int = 32,
    batch_rows: int = 64,
    onset_batch: int = 10,
    ramp_batches: int = 4,
    min_shots: int = 64,
    n_prior: int = 96,
    psi_threshold: float = 1.5,
    epochs: int = 2,
    cold_rounds: int = 1,
    n_jobs: int = 1,
    random_state: int = 0,
    root=None,
) -> dict:
    """One closed-loop lifecycle pass over a known-onset drift stream.

    Fits generation 0 on the schedule's source + prior-shot matrices,
    seeds an :class:`~repro.adapt.lineage.ArtifactLineage` under ``root``
    (a temporary directory when None) and replays the stream through a
    standalone :class:`~repro.adapt.controller.AdaptationController` until
    the candidate is promoted (or the stream ends).  After promotion, cold
    discovery is re-run ``cold_rounds`` times on the identical shot matrix
    to price what warm start bought; variant-set equality between the two
    is asserted into ``variant_equivalent``.
    """
    import tempfile

    from repro.adapt import AdaptationConfig, AdaptationController, ShadowPolicy
    from repro.adapt.lineage import ArtifactLineage
    from repro.core.feature_separation import FeatureSeparator

    logger = get_logger("repro.experiments.drift_schedule")
    data = make_drift_schedule(
        width,
        schedule=schedule,
        n_batches=n_batches,
        batch_rows=batch_rows,
        onset_batch=onset_batch,
        ramp_batches=ramp_batches,
        n_prior=n_prior,
        random_state=random_state,
    )
    with get_tracer().span(
        "adapt.scenario", width=int(width), schedule=schedule
    ):
        pipeline = _scenario_pipeline(n_jobs, epochs, random_state)
        t0 = time.perf_counter()
        pipeline.fit(data["X_source"], data["y_source"],
                     data["X_target_prior"])
        fit_seconds = time.perf_counter() - t0

        tmp = None
        if root is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-adapt-")
            root = tmp.name
        try:
            lineage = ArtifactLineage(root)
            config = AdaptationConfig(
                min_shots=min_shots,
                shot_capacity=max(256, min_shots),
                drift_options={
                    "min_rows": 192,
                    "window_rows": 256,
                    "n_bins": 8,
                    "psi_threshold": psi_threshold,
                    "name": "adapt-scenario",
                },
                # the refit candidate legitimately diverges from the
                # incumbent (that is the point); promote on *bounded*
                # divergence instead of near-identity
                policy=ShadowPolicy(
                    agreement_batches=2,
                    max_disagreement=0.35,
                    abort_disagreement=1.0,
                    max_batches=16,
                ),
                subscribe_alarms=False,
            )
            with AdaptationController(
                pipeline, lineage, "scenario", config
            ) as controller:
                promoted_at = None
                for t, batch in enumerate(data["batches"]):
                    state = controller.observe(batch)
                    if state == "PROMOTED":
                        promoted_at = t + 1
                        break
                status = controller.status()
                timeline = [
                    {"state": e["state"], "batch": e["batch"]}
                    for e in controller.timeline
                ]
                shots = controller.last_shots_
                alarm_batch = controller.alarm_batch
                timings = dict(controller.timings)
                variant_diff = controller.variant_diff
            history = [
                (v.generation, v.lifecycle_state)
                for v in lineage.history("scenario")
            ]
        finally:
            if tmp is not None:
                tmp.cleanup()

    promoted = promoted_at is not None
    result = {
        "width": int(width),
        "schedule": schedule,
        "batch_rows": int(batch_rows),
        "onset_batch": int(onset_batch) + 1,  # 1-based, like alarm_batch
        "alarm_batch": alarm_batch,
        "detection_latency_batches": (
            alarm_batch - (onset_batch + 1) if alarm_batch is not None else None
        ),
        "shots_to_refit": (
            int(shots.shape[0]) if shots is not None else None
        ),
        "fit_seconds": fit_seconds,
        "rediscover_warm_seconds": timings.get("rediscover_seconds"),
        "rediscover_warm": timings.get("rediscover_warm", False),
        "refit_seconds": timings.get("refit_seconds"),
        "alarm_to_promotion_seconds": timings.get("alarm_to_promotion_seconds"),
        "promoted": promoted,
        "promoted_at_batch": promoted_at,
        "final_state": status["state"],
        "generation": status["generation"],
        "variant_diff": variant_diff,
        "timeline": timeline,
        "lineage_history": history,
    }

    if promoted and shots is not None:
        # cold re-discovery on the identical shot matrix prices the warm
        # start; run on the pipeline's cached scaled source so both sides
        # see byte-identical inputs
        Xs_scaled, _ = pipeline._fit_cache
        shots_scaled = pipeline.scaler_.transform(shots)
        cold_config = replace(pipeline.fs_config, warm_mode="off")
        cold_seconds = float("inf")
        cold_sep = None
        for _ in range(max(1, cold_rounds)):
            sep = FeatureSeparator(cold_config)
            t0 = time.perf_counter()
            sep.fit(Xs_scaled, shots_scaled)
            cold_seconds = min(cold_seconds, time.perf_counter() - t0)
            cold_sep = sep
        warm_variant = set(
            int(j) for j in pipeline.separator_.variant_indices_
        )
        cold_variant = set(int(j) for j in cold_sep.variant_indices_)
        result["rediscover_cold_seconds"] = cold_seconds
        result["warm_speedup"] = cold_seconds / max(
            result["rediscover_warm_seconds"] or 0.0, 1e-9
        )
        result["variant_equivalent"] = warm_variant == cold_variant
        result["warm_cache_stats"] = pipeline.separator_.cache_stats_
        logger.info(
            "adapt scenario width=%d: alarm at batch %s (onset %d), "
            "promoted gen %d, warm rediscover %.3fs vs cold %.3fs (%.2fx)",
            width, alarm_batch, onset_batch + 1, result["generation"],
            result["rediscover_warm_seconds"], cold_seconds,
            result["warm_speedup"],
        )
    return result


# ---------------------------------------------------------------------------
# the "adapt" bench suite


def run_bench_adapt(
    widths: tuple[int, ...] = (442,),
    *,
    schedule: str = "abrupt",
    cold_rounds: int = 2,
    min_shots: int = 64,
    epochs: int = 2,
    n_jobs: int = 1,
    random_state: int = 0,
    out: str | None = None,
) -> list[dict]:
    """One adaptation-lifecycle benchmark record per width.

    ``before`` is the cold re-discovery cost on the loop's shot matrix,
    ``after`` the in-loop warm re-discovery; ``speedup`` is their ratio
    and ``equivalent`` asserts the warm variant set matched cold **and**
    the lifecycle actually completed (alarm → promotion).  Records merge
    under ``wide/<width>/seed<seed>`` in ``BENCH_adapt.json``.
    """
    suite = get_suite("adapt")
    records = []
    for width in widths:
        scenario = run_adapt_scenario(
            int(width),
            schedule=schedule,
            min_shots=min_shots,
            cold_rounds=cold_rounds,
            epochs=epochs,
            n_jobs=n_jobs,
            random_state=random_state,
        )
        if not scenario["promoted"]:
            raise ValidationError(
                f"adapt bench at width {width}: lifecycle did not reach "
                f"promotion (final state {scenario['final_state']!r})"
            )
        record = BenchRecord(
            suite="adapt",
            dataset="wide",
            preset=str(int(width)),
            seed=random_state,
            before={
                "rediscover_seconds": scenario["rediscover_cold_seconds"],
                "mode": "cold",
            },
            after={
                "rediscover_seconds": scenario["rediscover_warm_seconds"],
                "mode": scenario["warm_cache_stats"]["mode"],
            },
            speedup=scenario["warm_speedup"],
            equivalent=bool(
                scenario["variant_equivalent"] and scenario["promoted"]
            ),
            extras={
                "n_features": int(width),
                "schedule": scenario["schedule"],
                "onset_batch": scenario["onset_batch"],
                "alarm_batch": scenario["alarm_batch"],
                "detection_latency_batches": (
                    scenario["detection_latency_batches"]
                ),
                "shots_to_refit": scenario["shots_to_refit"],
                "batch_rows": scenario["batch_rows"],
                "alarm_to_promotion_seconds": (
                    scenario["alarm_to_promotion_seconds"]
                ),
                "refit_seconds": scenario["refit_seconds"],
                "promoted_generation": scenario["generation"],
                "variant_added": len(scenario["variant_diff"]["added"]),
                "variant_removed": len(scenario["variant_diff"]["removed"]),
                "cold_rounds": int(max(1, cold_rounds)),
                "n_jobs": n_jobs,
            },
        ).to_dict()
        records.append(record)
        if out:
            write_bench_record(record, out, schema=suite.schema)
    return records


def format_bench_adapt(records: list[dict]) -> str:
    """Human-readable report of :func:`run_bench_adapt` records."""
    lines = [
        "Closed-loop adaptation benchmark (alarm -> rediscover -> refit "
        "-> shadow -> promote)",
        "",
        f"{'width':>6}  {'detect(b)':>9}  {'shots':>5}  {'cold(s)':>8}  "
        f"{'warm(s)':>8}  {'speedup':>7}  {'alarm->promo(s)':>15}  equal",
    ]
    for r in records:
        lines.append(
            f"{r['n_features']:>6}  {r['detection_latency_batches']:>9}  "
            f"{r['shots_to_refit']:>5}  "
            f"{r['before']['rediscover_seconds']:>8.3f}  "
            f"{r['after']['rediscover_seconds']:>8.3f}  "
            f"{r['speedup']:>6.2f}x  "
            f"{r['alarm_to_promotion_seconds']:>15.3f}  "
            f"{'yes' if r['equivalent'] else 'NO'}"
        )
    return "\n".join(lines)


def cli_bench_adapt(args, preset, out: str) -> str:
    """CLI adapter hook: ``repro bench --suite adapt``."""
    widths = tuple(int(w) for w in str(args.widths).split(",") if w)
    records = run_bench_adapt(
        widths,
        cold_rounds=max(1, args.rounds),
        n_jobs=args.n_jobs,
        random_state=args.seed,
        out=out,
    )
    return format_bench_adapt(records)


def check_adapt_record(record: dict) -> list[str]:
    """Suite oracle: internal-consistency problems of one adapt record."""
    problems = []
    for side, label in ((record.get("before", {}), "before"),
                        (record.get("after", {}), "after")):
        seconds = side.get("rediscover_seconds")
        if not isinstance(seconds, (int, float)) or not seconds > 0:
            problems.append(
                f"{label}.rediscover_seconds must be positive, got {seconds!r}"
            )
    if record.get("before", {}).get("mode") != "cold":
        problems.append("before.mode must be 'cold'")
    if record.get("after", {}).get("mode") != "exact":
        problems.append("after.mode must be 'exact' (a warm re-discovery ran)")
    latency = record.get("detection_latency_batches")
    if not isinstance(latency, int) or latency < 0:
        problems.append(
            f"detection_latency_batches must be a non-negative int, "
            f"got {latency!r}"
        )
    onset, alarm = record.get("onset_batch"), record.get("alarm_batch")
    if (isinstance(onset, int) and isinstance(alarm, int)
            and alarm < onset):
        problems.append(
            f"alarm_batch {alarm} precedes onset_batch {onset} "
            f"(false-positive detection)"
        )
    wall = record.get("alarm_to_promotion_seconds")
    if not isinstance(wall, (int, float)) or not wall > 0:
        problems.append(
            f"alarm_to_promotion_seconds must be positive, got {wall!r}"
        )
    shots = record.get("shots_to_refit")
    if not isinstance(shots, int) or shots < 1:
        problems.append(f"shots_to_refit must be a positive int, got {shots!r}")
    generation = record.get("promoted_generation")
    if not isinstance(generation, int) or generation < 1:
        problems.append(
            f"promoted_generation must be >= 1, got {generation!r}"
        )
    return problems
