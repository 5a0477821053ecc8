"""End-to-end FS / FS+GAN pipelines (Fig. 1 of the paper).

Two model-agnostic estimators:

- :class:`FSModel` — step 1 only: separate features, train the downstream
  network-management model **on source data restricted to the invariant
  features** ("FS (ours)" in Table I).
- :class:`FSGANPipeline` — the full method: the downstream model is trained
  on source data **with all features**; at inference each target sample's
  variant block is replaced by the GAN reconstruction (Eqs. 10–12), so the
  model never needs retraining when the domain drifts again ("FS+GAN
  (ours)").

Both accept any classifier with ``fit(X, y)`` / ``predict(X)`` via a
``model_factory`` callable, normalize features to [-1, 1] with statistics
fitted on source (the paper's normalization), and use the few-shot target
data *only* inside the FS step.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FSConfig, ReconstructionConfig
from repro.core.estimator import Estimator, register_estimator
from repro.core.feature_separation import FeatureSeparator
from repro.core.reconstruction import VariantReconstructor
from repro.ml.preprocessing import MinMaxScaler
from repro.obs.trace import get_tracer
from repro.utils.errors import ValidationError
from repro.utils.validation import check_array, check_is_fitted, check_X_y


@register_estimator("fs_model")
class FSModel(Estimator):
    """FS-only domain adaptation: train on source invariant features.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh classifier.
    fs_config:
        Feature-separation settings.
    """

    _param_exclude = ("model_factory",)
    _fitted_attr = "model_"
    _state_estimators = ("scaler_", "separator_", "model_")

    def __init__(self, model_factory, *, fs_config: FSConfig | None = None) -> None:
        if not callable(model_factory):
            raise ValidationError("model_factory must be callable")
        self.model_factory = model_factory
        self.fs_config = fs_config or FSConfig()
        self.scaler_: MinMaxScaler | None = None
        self.separator_: FeatureSeparator | None = None
        self.model_ = None

    def fit(self, X_source, y_source, X_target_few, y_target_few=None) -> "FSModel":
        """Separate features, then fit the downstream model on source-invariant data.

        ``y_target_few`` is accepted for API symmetry; FS does not use target
        labels.
        """
        X_source, y_source = check_X_y(X_source, y_source)
        X_target_few = check_array(X_target_few, name="X_target_few")
        self.scaler_ = MinMaxScaler().fit(X_source)
        Xs = self.scaler_.transform(X_source)
        Xt = self.scaler_.transform(X_target_few)
        self.separator_ = FeatureSeparator(self.fs_config).fit(Xs, Xt)
        X_inv, _ = self.separator_.split(Xs)
        if X_inv.shape[1] == 0:
            raise ValidationError(
                "FS flagged every feature as domain-variant; nothing to train on"
            )
        self.model_ = self.model_factory()
        self.model_.fit(X_inv, y_source)
        return self

    def predict(self, X) -> np.ndarray:
        """Predict target samples using only their invariant features."""
        check_is_fitted(self, "model_")
        X_inv, _ = self.separator_.split(self.scaler_.transform(X))
        return self.model_.predict(X_inv)

    @property
    def n_variant_(self) -> int:
        check_is_fitted(self, "separator_")
        return self.separator_.n_variant_


@register_estimator("fsgan_pipeline")
class FSGANPipeline(Estimator):
    """The full FS+GAN method (Fig. 1): separation, reconstruction, inference.

    Training (source only, besides the FS step):

    1. fit the [-1, 1] scaler on source;
    2. FS between scaled source and scaled few-shot target (step a);
    3. train the downstream model on scaled source with **all** features;
    4. train the reconstruction model (GAN by default) on the source
       invariant/variant blocks, conditioned on the source labels (step b).

    Inference on a target sample (step c): reconstruct the variant block
    from the invariant block, merge in the original column order, and feed
    the source-like sample to the frozen downstream model.
    """

    _param_exclude = ("model_factory", "hooks")
    _fitted_attr = "model_"
    _state_arrays = ("drift_reference_",)
    _state_estimators = ("scaler_", "separator_", "reconstructor_", "model_")

    #: rows retained in the persisted drift reference (strided subsample of
    #: the scaled source, enough for the tracker's per-feature bins)
    _DRIFT_REFERENCE_ROWS = 2048

    def __init__(
        self,
        model_factory,
        *,
        fs_config: FSConfig | None = None,
        reconstruction_config: ReconstructionConfig | None = None,
        random_state=None,
        hooks=None,
    ) -> None:
        if not callable(model_factory):
            raise ValidationError("model_factory must be callable")
        self.model_factory = model_factory
        self.fs_config = fs_config or FSConfig()
        self.reconstruction_config = reconstruction_config or ReconstructionConfig()
        self.random_state = random_state
        self.hooks = hooks
        self.scaler_: MinMaxScaler | None = None
        self.separator_: FeatureSeparator | None = None
        self.reconstructor_: VariantReconstructor | None = None
        self.model_ = None
        self.drift_reference_: np.ndarray | None = None

    def fit(
        self, X_source, y_source, X_target_few, y_target_few=None
    ) -> "FSGANPipeline":
        """Fit the whole pipeline; target labels are never used."""
        X_source, y_source = check_X_y(X_source, y_source)
        X_target_few = check_array(X_target_few, name="X_target_few")
        if X_target_few.shape[1] != X_source.shape[1]:
            raise ValidationError("source and target feature counts differ")
        tracer = get_tracer()
        with tracer.span(
            "pipeline.fit",
            n_source=X_source.shape[0],
            n_target_few=X_target_few.shape[0],
            n_features=X_source.shape[1],
        ):
            with tracer.span("pipeline.scale"):
                self.scaler_ = MinMaxScaler().fit(X_source)
                Xs = self.scaler_.transform(X_source)
                Xt = self.scaler_.transform(X_target_few)
            self._cached_source = (Xs, y_source)
            # a bounded, deterministic (strided — no RNG draw) subsample of
            # the scaled source, persisted with the artifact so serve-side
            # drift tracking works without the full training cache
            stride = max(1, -(-Xs.shape[0] // self._DRIFT_REFERENCE_ROWS))
            self.drift_reference_ = Xs[::stride].copy()

            with tracer.span("pipeline.fs") as span:
                self.separator_ = FeatureSeparator(self.fs_config).fit(Xs, Xt)
                span.tag(n_variant=self.separator_.n_variant_)
            X_inv, X_var = self.separator_.split(Xs)

            with tracer.span("pipeline.model_fit"):
                self.model_ = self.model_factory()
                self.model_.fit(Xs, y_source)  # all features, source only

            self.reconstructor_ = VariantReconstructor(
                self.reconstruction_config, random_state=self.random_state
            )
            self.reconstructor_.fit(X_inv, X_var, y_source, hooks=self.hooks)
        return self

    def refit_adapter(self, X_target_few) -> "FSGANPipeline":
        """Re-run FS + reconstruction for a *new* target domain.

        The downstream model is left untouched — this is the paper's
        "no retraining or fine-tuning required" property (§VI-F): only the
        lightweight adapter (FS + GAN) is refreshed when the domain evolves.
        Requires the training cache; unavailable after
        :meth:`release_training_cache`.

        FS re-runs **warm** when the incumbent separator carries a
        :class:`~repro.causal.warm.WarmState` (persistent CI-statistics
        cache + decision priors, also restored from v2 artifacts): the
        re-discovery reuses the source-side regression state and tests each
        feature's previous separating set first, with the same variant set
        as a cold run, falling back to cold on any guard mismatch.  Set ``warm_mode="off"`` to force cold refits.
        """
        warm = getattr(getattr(self, "separator_", None), "warm_state_", None)
        with get_tracer().span("pipeline.refit_adapter", warm=warm is not None):
            self.rediscover_fs(X_target_few)
            self.refit_reconstruction()
        return self

    def _require_fit_cache(self) -> tuple:
        check_is_fitted(self, "model_")
        if self._fit_cache is None:
            if getattr(self, "_cache_released", False):
                raise ValidationError(
                    "refit_adapter is unavailable: the training cache was "
                    "dropped by release_training_cache(); re-fit the pipeline "
                    "to refresh the adapter again"
                )
            raise ValidationError("refit_adapter requires the pipeline to be fitted")
        return self._fit_cache

    def rediscover_fs(self, X_target_few) -> "FeatureSeparator":
        """Stage 1 of :meth:`refit_adapter`: warm FS re-discovery only.

        Replaces ``separator_`` (warm-started from the incumbent's
        ``warm_state_`` when present) and returns it, leaving the
        reconstruction model untouched — callers that need the
        re-discovery/refit boundary (the adaptation controller's
        REDISCOVERING → REFITTING transition) drive the two stages
        separately; :meth:`refit_adapter` runs both.
        """
        Xs, _ = self._require_fit_cache()
        Xt = self.scaler_.transform(check_array(X_target_few, name="X_target_few"))
        warm = getattr(getattr(self, "separator_", None), "warm_state_", None)
        self.separator_ = FeatureSeparator(self.fs_config).fit(Xs, Xt, warm=warm)
        return self.separator_

    def refit_reconstruction(self) -> "VariantReconstructor":
        """Stage 2 of :meth:`refit_adapter`: retrain the reconstruction model
        for the current ``separator_`` (the downstream model stays frozen)."""
        Xs, y_source = self._require_fit_cache()
        X_inv, X_var = self.separator_.split(Xs)
        self.reconstructor_ = VariantReconstructor(
            self.reconstruction_config, random_state=self.random_state
        )
        self.reconstructor_.fit(X_inv, X_var, y_source, hooks=self.hooks)
        return self.reconstructor_

    def release_training_cache(self) -> "FSGANPipeline":
        """Drop the retained scaled source matrix to shrink the live footprint.

        The cache (the full scaled source data plus labels) exists solely so
        :meth:`refit_adapter` and :class:`~repro.core.monitor.DriftMonitor`
        can re-run FS without the caller resupplying source data.  Long-lived
        serving processes that only ever call :meth:`predict` should release
        it after fitting; afterwards ``refit_adapter`` raises a clear error
        instead of silently retraining on nothing.
        """
        self._cached_source = None
        self._cache_released = True
        return self

    @property
    def _fit_cache(self):
        return getattr(self, "_cached_source", None)

    def transform(self, X, *, n_draws: int = 1) -> np.ndarray:
        """Map target samples to source-like samples (scaled space, Eq. 11)."""
        check_is_fitted(self, "model_")
        with get_tracer().span("pipeline.transform", n_samples=len(X)):
            Xs = self.scaler_.transform(check_array(X))
            X_inv, _ = self.separator_.split(Xs)
            X_var_hat = self.reconstructor_.reconstruct(X_inv, n_draws=n_draws)
            return self.separator_.merge(X_inv, X_var_hat)

    def predict(self, X, *, n_draws: int = 1) -> np.ndarray:
        """Predict labels for target samples via the reconstruction path (Eq. 12)."""
        with get_tracer().span("pipeline.predict", n_samples=len(X)):
            return self.model_.predict(self.transform(X, n_draws=n_draws))

    def predict_proba(self, X, *, n_draws: int = 1) -> np.ndarray:
        """Class probabilities, when the downstream model provides them."""
        check_is_fitted(self, "model_")
        if not hasattr(self.model_, "predict_proba"):
            raise ValidationError("the downstream model has no predict_proba")
        with get_tracer().span("pipeline.predict_proba", n_samples=len(X)):
            return self.model_.predict_proba(self.transform(X, n_draws=n_draws))

    def predict_source(self, X) -> np.ndarray:
        """Predict source-domain samples directly (no reconstruction)."""
        check_is_fitted(self, "model_")
        return self.model_.predict(self.scaler_.transform(check_array(X)))

    @property
    def n_variant_(self) -> int:
        check_is_fitted(self, "separator_")
        return self.separator_.n_variant_

    def _post_load(self, meta: dict) -> None:
        # a restored pipeline is a serving object: the scaled-source refit
        # cache never crosses the disk boundary, so refit_adapter raises the
        # same clear error as after release_training_cache()
        self._cached_source = None
        self._cache_released = True

    def export_plan(self) -> dict:
        """JSON description of the staged serve path (for the manifest)."""
        check_is_fitted(self, "model_")
        return {
            "kind": self._estimator_kind,
            "stages": [
                {
                    "stage": "scale",
                    "op": "minmax",
                    "n_features": int(self.separator_.n_features_),
                },
                {
                    "stage": "split",
                    "n_invariant": int(len(self.separator_.invariant_indices_)),
                    "n_variant": int(self.separator_.n_variant_),
                },
                {
                    "stage": "reconstruct",
                    "strategy": self.reconstruction_config.strategy,
                    "model": type(self.reconstructor_.model_).__name__,
                },
                {"stage": "merge"},
                {"stage": "predict", "model": type(self.model_).__name__},
            ],
        }

    def compile(self, *, n_draws: int = 1, track_drift: bool = False,
                drift_options: dict | None = None):
        """Compile the serve path into an allocation-free batch scorer.

        Returns a :class:`repro.serve.plan.InferencePlan` whose float64
        ``predict_proba`` is bit-identical to :meth:`predict_proba` (the plan
        replays the exact same ufunc sequence into preallocated buffers and
        clones the reconstruction RNG state at compile time).

        With ``track_drift=True`` the plan also carries a
        :class:`repro.obs.drift.FeatureDriftTracker` referenced on the
        pipeline's scaled training source — the live training cache when
        present, else the bounded ``drift_reference_`` subsample persisted
        with the artifact — publishing streaming PSI/KS gauges and
        ``drift.alarm`` events for every served batch; ``drift_options``
        forwards tracker kwargs (``psi_threshold``, ``min_rows``,
        ``window_rows``, …).
        """
        from repro.serve.plan import InferencePlan  # lazy: serve imports core

        plan = InferencePlan(self, n_draws=n_draws)
        if track_drift:
            if self._fit_cache is not None:
                reference, _ = self._fit_cache
            elif self.drift_reference_ is not None:
                # restored artifact / released cache: the persisted
                # strided subsample of the scaled source
                reference = self.drift_reference_
            else:
                raise ValidationError(
                    "compile(track_drift=True) needs the pipeline's training "
                    "cache or persisted drift reference; neither survived "
                    "(legacy artifact saved before drift_reference_ existed?)"
                )
            from repro.obs.drift import FeatureDriftTracker

            plan.attach_drift_tracker(
                FeatureDriftTracker(reference, **(drift_options or {}))
            )
        return plan
