"""Alarm-driven adaptation controller: the closed loop around the pipeline.

:class:`AdaptationController` automates the paper's §VI-F refresh policy as
a state machine over a fitted :class:`~repro.core.pipeline.FSGANPipeline`::

    WATCHING ──drift.alarm──▶ ACCUMULATING ──min_shots──▶ REDISCOVERING
        ▲                                                      │ warm FS
        │                                                      ▼
    PROMOTED ◀──verdict──── SHADOW ◀──publish candidate── REFITTING

* **WATCHING** — every observed batch feeds a
  :class:`~repro.obs.drift.FeatureDriftTracker` referenced on the
  pipeline's scaled source; the controller also subscribes to
  edge-triggered ``drift.alarm`` events on the process event log, so an
  external detector (a serve-side tracker or a
  :class:`~repro.core.monitor.DriftMonitor`) can trip the loop too.
* **ACCUMULATING** — post-alarm batches are treated as target-domain
  shots and collected into a bounded :class:`ShotBuffer` until
  ``min_shots`` are available (the few-shot budget of the paper).
* **REDISCOVERING** — FS re-runs *warm* through
  :meth:`FSGANPipeline.rediscover_fs`, seeded by the incumbent
  separator's persisted ``warm_state_`` (priors + CI-statistics cache).
* **REFITTING** — the cGAN adapter is retrained for the new variant set
  (:meth:`FSGANPipeline.refit_reconstruction`); the downstream model is
  never touched.
* **SHADOW** — the refit pipeline is published as a *candidate* version
  in the :class:`~repro.adapt.lineage.ArtifactLineage` and scored against
  the incumbent: through the serving daemon's shadow mode when one is
  attached, else in-process on subsequent observed batches.
* **PROMOTED** — the candidate won its agreement window: the lineage
  pointer flips, the drift tracker re-references on the accumulated
  target window (so the *next* hop — the paper's Target_1 → Target_2
  regime — is detected relative to the domain just adapted to), and the
  loop re-arms to WATCHING.  An aborted shadow retires the candidate and
  re-arms without flipping anything.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.adapt.shadow import ShadowEvaluator, ShadowPolicy
from repro.obs.drift import FeatureDriftTracker
from repro.obs.export import get_event_log
from repro.obs.metrics import get_metrics
from repro.utils.errors import ValidationError
from repro.utils.validation import check_array

__all__ = ["AdaptationConfig", "AdaptationController", "ShotBuffer",
           "STATES"]

#: lifecycle states in transition order
STATES = ("WATCHING", "ACCUMULATING", "REDISCOVERING", "REFITTING",
          "SHADOW", "PROMOTED")


class ShotBuffer:
    """Bounded FIFO of target-domain rows (the few-shot accumulation buffer).

    Holds at most ``capacity`` rows; overflowing drops the *oldest* rows so
    the buffer always contains the most recent post-alarm traffic.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValidationError("shot buffer capacity must be >= 1")
        self.capacity = int(capacity)
        self._batches: deque[np.ndarray] = deque()
        self._rows = 0

    @property
    def count(self) -> int:
        return self._rows

    def add(self, X) -> int:
        """Append a batch of rows; returns the buffered row count."""
        X = np.array(np.atleast_2d(np.asarray(X, dtype=np.float64)), copy=True)
        if X.shape[0] == 0:
            return self._rows
        self._batches.append(X)
        self._rows += X.shape[0]
        while self._rows > self.capacity:
            head = self._batches[0]
            excess = self._rows - self.capacity
            if head.shape[0] <= excess:
                self._batches.popleft()
                self._rows -= head.shape[0]
            else:
                self._batches[0] = head[excess:]
                self._rows -= excess
        return self._rows

    def matrix(self) -> np.ndarray:
        """The buffered rows as one matrix (oldest first)."""
        if not self._batches:
            raise ValidationError("shot buffer is empty")
        return np.vstack(list(self._batches))

    def clear(self) -> None:
        self._batches.clear()
        self._rows = 0


@dataclass(frozen=True)
class AdaptationConfig:
    """Tunables of one adaptation loop; defaults suit tests and smoke runs."""

    #: target shots required before the re-discovery/refit fires
    min_shots: int = 32
    #: bound of the shot buffer (rows)
    shot_capacity: int = 256
    #: kwargs of the controller-owned FeatureDriftTracker
    #: (``psi_threshold`` / ``min_rows`` / ``window_rows`` / ``n_bins``)
    drift_options: dict = field(default_factory=dict)
    #: shadow promotion/abort thresholds
    policy: ShadowPolicy = field(default_factory=ShadowPolicy)
    #: MC draws of in-process shadow plans (standalone mode)
    n_draws: int = 1
    #: promote automatically on a winning shadow verdict (False leaves the
    #: candidate in state ``shadow`` for a manual ``repro adapt promote``)
    auto_promote: bool = True
    #: also react to external ``drift.alarm`` events on the event log
    subscribe_alarms: bool = True


class AdaptationController:
    """State machine driving detect → re-discover → refit → roll out.

    Parameters
    ----------
    pipeline:
        A fitted :class:`FSGANPipeline` **with its training cache intact**
        (refitting needs the scaled source matrix).
    lineage:
        The :class:`~repro.adapt.lineage.ArtifactLineage` versions are
        published to.  Generation 0 (the incumbent) is seeded from the
        pipeline on construction when the tenant has no active version.
    tenant:
        Lineage/daemon tenant name.
    config:
        An :class:`AdaptationConfig`; None uses the defaults.
    daemon:
        Optional running :class:`~repro.serve.daemon.ServeDaemon` over the
        same lineage root.  When given, shadow scoring runs inside the
        daemon on live traffic; when None, the controller shadow-scores
        in-process on the batches it observes.
    """

    def __init__(self, pipeline, lineage, tenant: str, config=None, *,
                 daemon=None) -> None:
        if pipeline._fit_cache is None:
            raise ValidationError(
                "AdaptationController needs a pipeline with its training "
                "cache (refit_adapter must be available)"
            )
        self.pipeline = pipeline
        self.lineage = lineage
        self.tenant = str(tenant)
        self.config = config or AdaptationConfig()
        self.daemon = daemon
        self.state = "WATCHING"
        self.batches = 0
        self.generation = 0
        self.shots = ShotBuffer(self.config.shot_capacity)
        self.timeline: list[dict] = []
        self.timings: dict = {}
        self.variant_diff: dict | None = None
        self.last_shots_: np.ndarray | None = None
        self.alarm_batch: int | None = None
        self.alarm_fields: dict | None = None
        self._alarm_time: float | None = None
        self._external_alarm: dict | None = None
        self._candidate_hash: str | None = None
        self._shadow_eval: ShadowEvaluator | None = None
        self._incumbent_plan = None
        self._candidate_plan = None
        self._subscribed_log = None
        self._make_tracker(self._source_reference())
        active = lineage.active(self.tenant)
        if active is None:
            active = lineage.publish(
                self.tenant, pipeline,
                provenance={"adapt": {"seeded_by": "controller"}},
                parent=None, state="active",
            )
        self.generation = active.generation
        if self.config.subscribe_alarms:
            self._subscribed_log = get_event_log()
            self._subscribed_log.subscribe(self._on_event, kinds=("drift.alarm",))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Detach the event-log subscription (idempotent)."""
        if self._subscribed_log is not None:
            self._subscribed_log.unsubscribe(self._on_event)
            self._subscribed_log = None

    def __enter__(self) -> "AdaptationController":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- drift plumbing ------------------------------------------------------

    def _source_reference(self) -> np.ndarray:
        cache = self.pipeline._fit_cache
        if cache is not None:
            return cache[0]
        return self.pipeline.drift_reference_

    def _make_tracker(self, reference) -> None:
        options = {"min_rows": 64, "name": "adapt"}
        options.update(self.config.drift_options)
        self.tracker = FeatureDriftTracker(reference, **options)

    def _on_event(self, kind: str, fields: dict) -> None:
        # edge-triggered external alarm (serve tracker / DriftMonitor);
        # our own tracker's events come back through this subscription too,
        # but those are already handled via its update() return value
        if fields.get("source") != self.tracker.name:
            self._external_alarm = dict(fields)

    # -- state machine -------------------------------------------------------

    def _set_state(self, state: str, **fields) -> None:
        self.state = state
        entry = {"state": state, "batch": self.batches,
                 "time": time.perf_counter(), **fields}
        self.timeline.append(entry)
        registry = get_metrics()
        if registry.enabled:
            registry.gauge("adapt.state", tenant=self.tenant).set(
                STATES.index(state)
            )
        get_event_log().emit(
            "adapt.state", tenant=self.tenant, state=state,
            batch=self.batches, **fields,
        )

    def observe(self, X) -> str:
        """Feed one live batch (raw target-domain rows); returns the state."""
        X = check_array(X)
        self.batches += 1
        scores = self.tracker.update(self.pipeline.scaler_.transform(X))
        if self.state == "PROMOTED":
            # transient: the post-promotion batch re-arms the loop
            self._set_state("WATCHING")
        if self.state == "WATCHING":
            alarmed = bool(scores and scores["alarmed"])
            if alarmed or self._external_alarm is not None:
                self.alarm_batch = self.batches
                self._alarm_time = time.perf_counter()
                self.alarm_fields = (
                    self._external_alarm
                    or {"source": self.tracker.name,
                        "psi_max": scores["psi_max"] if scores else None}
                )
                self._external_alarm = None
                self._set_state("ACCUMULATING", source=self.alarm_fields.get("source"))
                self.shots.add(X)
        elif self.state == "ACCUMULATING":
            self.shots.add(X)
            if self.shots.count >= self.config.min_shots:
                self._adapt()
        elif self.state == "SHADOW":
            self._shadow_step(X)
        return self.state

    # -- re-discovery / refit ------------------------------------------------

    def _adapt(self) -> None:
        pipeline = self.pipeline
        shots = self.shots.matrix()
        # snapshot for post-hoc analysis (the scenario driver's cold
        # re-discovery comparison re-runs discovery on exactly these rows)
        self.last_shots_ = shots
        self._set_state("REDISCOVERING", shots=int(shots.shape[0]))
        if self.daemon is None:
            # in-process shadow mode compares against the incumbent as it
            # was *before* this refit: snapshot its compiled plan now
            self._incumbent_plan = pipeline.compile(n_draws=self.config.n_draws)
        old_variant = set(int(j) for j in pipeline.separator_.variant_indices_)
        t0 = time.perf_counter()
        pipeline.rediscover_fs(shots)
        rediscover_seconds = time.perf_counter() - t0
        # a guard may reject the incumbent's warm state and run cold
        warm = pipeline.separator_.cache_stats_["mode"] == "exact"
        new_variant = set(int(j) for j in pipeline.separator_.variant_indices_)
        self.variant_diff = {
            "added": sorted(new_variant - old_variant),
            "removed": sorted(old_variant - new_variant),
            "kept": sorted(old_variant & new_variant),
        }
        self.timings["rediscover_seconds"] = rediscover_seconds
        self.timings["rediscover_warm"] = warm

        self._set_state(
            "REFITTING",
            variant_added=len(self.variant_diff["added"]),
            variant_removed=len(self.variant_diff["removed"]),
        )
        t0 = time.perf_counter()
        pipeline.refit_reconstruction()
        self.timings["refit_seconds"] = time.perf_counter() - t0

        parent = self.lineage.active(self.tenant)
        version = self.lineage.publish(
            self.tenant, pipeline,
            provenance={
                "adapt": {
                    "alarm_batch": self.alarm_batch,
                    "alarm_source": (self.alarm_fields or {}).get("source"),
                    "shots": int(shots.shape[0]),
                    "warm": warm,
                    "variant_added": self.variant_diff["added"],
                    "variant_removed": self.variant_diff["removed"],
                }
            },
            parent=parent.content_hash if parent is not None else None,
            state="shadow",
        )
        self._candidate_hash = version.content_hash
        self._shadow_eval = ShadowEvaluator(self.tenant, self.config.policy)
        if self.daemon is not None:
            self.daemon.start_shadow(self.tenant, version.content_hash,
                                     policy=self.config.policy)
        else:
            self._candidate_plan = pipeline.compile(n_draws=self.config.n_draws)
        self._set_state("SHADOW", candidate=version.content_hash,
                        generation=version.generation)

    # -- shadow --------------------------------------------------------------

    def _shadow_step(self, X: np.ndarray) -> None:
        if self.daemon is not None:
            verdict = self.daemon.shadow_verdict(self.tenant)
            if verdict is not None:
                self._finish_shadow(verdict, daemon_handled=True)
            return
        inc, cand = self._incumbent_plan, self._candidate_plan
        verdict = self._shadow_eval.observe(
            inc.execute([X])[0], cand.execute([X])[0],
            inc.last_variant(), cand.last_variant(),
        )
        if verdict is not None:
            self._finish_shadow(verdict, daemon_handled=False)

    def _finish_shadow(self, verdict: str, *, daemon_handled: bool) -> None:
        candidate = self._candidate_hash
        if verdict == "promote" and self.config.auto_promote:
            if not daemon_handled:
                self.lineage.promote(self.tenant, candidate)
            active = self.lineage.active(self.tenant)
            self.generation = active.generation if active is not None else 0
            if self._alarm_time is not None:
                self.timings["alarm_to_promotion_seconds"] = (
                    time.perf_counter() - self._alarm_time
                )
            self._set_state("PROMOTED", candidate=candidate,
                            generation=self.generation)
            self._rearm()
        elif verdict == "promote":
            # manual-promotion mode: leave the candidate in state "shadow"
            # for `repro adapt promote`, re-arm the detector
            self._set_state("WATCHING", candidate=candidate,
                            pending="manual_promotion")
            self._rearm(keep_candidate=True)
        else:
            if not daemon_handled:
                self.lineage.mark(self.tenant, candidate, "retired")
            self._set_state("WATCHING", candidate=candidate, aborted=True)
            self._rearm()

    def _rearm(self, *, keep_candidate: bool = False) -> None:
        """Re-reference drift detection on the just-accumulated target window.

        After adapting to Target_1 the loop must detect the *next* domain
        (Target_2) relative to Target_1 — rebuilding the tracker on the
        accumulated shots does exactly that.
        """
        if self.shots.count > 0:
            self._make_tracker(
                self.pipeline.scaler_.transform(self.shots.matrix())
            )
        self.shots.clear()
        self._external_alarm = None
        self._incumbent_plan = None
        self._candidate_plan = None
        self._shadow_eval = None if not keep_candidate else self._shadow_eval
        if not keep_candidate:
            self._candidate_hash = None

    # -- introspection -------------------------------------------------------

    def status(self) -> dict:
        """One JSON-able snapshot of the loop (CLI ``repro adapt status``)."""
        active = self.lineage.active(self.tenant)
        return {
            "tenant": self.tenant,
            "state": self.state,
            "batches": self.batches,
            "generation": self.generation,
            "shots": self.shots.count,
            "alarm_batch": self.alarm_batch,
            "active": active.content_hash if active is not None else None,
            "candidate": self._candidate_hash,
            "variant_diff": self.variant_diff,
            "timings": dict(self.timings),
            "shadow": (self._shadow_eval.stats()
                       if self._shadow_eval is not None else None),
        }
