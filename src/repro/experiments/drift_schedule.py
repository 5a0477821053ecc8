"""Closed-loop adaptation scenario driver behind ``repro adapt run``.

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

The traffic generator reuses :func:`~repro.datasets.wide.make_wide_pair`,
so any width, including the paper's 442 features, is reachable inside the
loop.

Drift-tracker calibration: ``psi_max`` is a max-statistic over all
features, so it inflates with both small windows (a 32-row window shows
up to ~2.7 on same-distribution traffic) and width (442 features reach
~0.95 where 48 stay under ~0.75).  The scenario defaults —
``min_rows=192`` / ``window_rows=256`` / ``n_bins=8`` / 64-row batches /
``psi_threshold=1.5`` — keep same-distribution traffic below ~1.0 at
every tested width while the injected mean shift climbs past 1.8 within
a few window fills, so the threshold has margin on both sides and the
measured detection latency is the tracker's genuine window-filling lag.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.datasets.wide import make_wide_pair
from repro.obs.logging import get_logger
from repro.obs.trace import get_tracer
from repro.utils.errors import ValidationError

__all__ = ["SCHEDULES", "make_drift_schedule", "run_adapt_scenario"]

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
    """An FSGANPipeline in the wide-scale FS engine configuration."""
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
