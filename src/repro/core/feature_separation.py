"""FS — causal-inference-based feature separation (§V-A, step 1).

Wraps :class:`repro.causal.FNodeDiscovery` with the estimator surface the
pipeline needs: fit on (source, few-shot target) matrices, then split /
merge feature matrices into domain-variant and domain-invariant blocks while
preserving the original column order (the downstream model is trained with
the original feature order, Eq. 12's requirement).
"""

from __future__ import annotations

import numpy as np

from repro.causal.fnode import FNodeDiscovery, FNodeResult
from repro.causal.warm import WARM_STATE_VERSION, WarmState, state_version
from repro.core.config import FSConfig
from repro.core.estimator import Estimator, decode_json, encode_json, register_estimator
from repro.obs.export import get_event_log
from repro.obs.logging import get_logger
from repro.obs.trace import get_tracer
from repro.utils.errors import ValidationError
from repro.utils.validation import check_array, check_is_fitted, mark_validated


@register_estimator("feature_separator")
class FeatureSeparator(Estimator):
    """Separates features into domain-variant and domain-invariant sets.

    Parameters
    ----------
    config:
        :class:`FSConfig`; defaults to the library defaults.

    Examples
    --------
    >>> sep = FeatureSeparator()
    >>> sep.fit(X_source, X_target_few)            # doctest: +SKIP
    >>> X_inv, X_var = sep.split(X_source)         # doctest: +SKIP
    """

    _fitted_attr = "result_"

    def __init__(self, config: FSConfig | None = None) -> None:
        self.config = config or FSConfig()
        self.result_: FNodeResult | None = None
        self.n_features_: int | None = None
        self.warm_state_: WarmState | None = None
        #: CI-engine cache counters of the producing discovery run (or
        #: None for a separator restored from artifact state)
        self.cache_stats_: dict | None = None

    def state_dict(self) -> dict[str, np.ndarray]:
        check_is_fitted(self, "result_")
        meta = {
            "n_features_": int(self.n_features_),
            "parent_sets": [list(p) for p in self.result_.parent_sets],
            "n_tests": int(self.result_.n_tests),
            "coverage": float(self.result_.coverage),
            "has_marginal": self.result_.marginal_p_values is not None,
            "has_warm": self.warm_state_ is not None,
        }
        state = {
            "__meta__": encode_json(meta),
            "variant_indices": np.asarray(self.result_.variant_indices).copy(),
            "invariant_indices": np.asarray(self.result_.invariant_indices).copy(),
            "p_values": np.asarray(self.result_.p_values).copy(),
        }
        if self.result_.marginal_p_values is not None:
            state["marginal_p_values"] = np.asarray(
                self.result_.marginal_p_values
            ).copy()
        if self.warm_state_ is not None:
            # nested flat layout: the warm state (priors + CI-statistics
            # cache) rides inside the same v2 artifact bundle, so a
            # daemon-triggered refit can warm-start from disk
            for name, arr in self.warm_state_.state_dict().items():
                state[f"warm.{name}"] = arr
        return state

    def load_state_dict(self, state) -> "FeatureSeparator":
        meta = decode_json(state["__meta__"])
        self.n_features_ = int(meta["n_features_"])
        self.result_ = FNodeResult(
            variant_indices=np.array(state["variant_indices"]),
            invariant_indices=np.array(state["invariant_indices"]),
            p_values=np.array(state["p_values"]),
            parent_sets=[tuple(p) for p in meta.get("parent_sets", [])],
            n_tests=int(meta.get("n_tests", 0)),
            coverage=float(meta.get("coverage", 1.0)),
            marginal_p_values=(
                np.array(state["marginal_p_values"])
                if meta.get("has_marginal")
                else None
            ),
        )
        self.warm_state_ = None
        if meta.get("has_warm"):
            prefix = "warm."
            warm_state = {
                name[len(prefix):]: arr
                for name, arr in state.items()
                if name.startswith(prefix)
            }
            version = state_version(warm_state)
            if version == WARM_STATE_VERSION:
                self.warm_state_ = WarmState.from_state(warm_state)
            else:
                # an older layout is only a speed-up lost: drop it and let
                # the next re-discovery take the cold path
                get_logger("repro.core.feature_separation").warning(
                    "dropping a warm state of layout version %r (this build "
                    "reads version %d): the next re-discovery runs cold",
                    version, WARM_STATE_VERSION,
                )
        return self

    @classmethod
    def from_result(
        cls,
        result: FNodeResult,
        n_features: int,
        config: FSConfig | None = None,
    ) -> "FeatureSeparator":
        """Wrap a precomputed :class:`FNodeResult` as a fitted separator.

        Used by the parallel experiment runner, where discovery runs in a
        worker process and only the (picklable) result crosses back.  No
        per-feature ``fs.feature_decision`` events are emitted on this path.
        """
        sep = cls(config)
        sep.result_ = result
        sep.n_features_ = int(n_features)
        return sep

    def fit(self, X_source, X_target, *, warm: WarmState | None = None) -> "FeatureSeparator":
        """Run intervention-target discovery between the two domains.

        ``X_target`` is the (few-shot) target training data; it is used only
        here — never to train the downstream model or the GAN.

        ``warm`` optionally supplies a previous run's
        :class:`~repro.causal.warm.WarmState` (typically another separator's
        :attr:`warm_state_`): unless ``config.warm_mode`` is ``"off"``,
        discovery then re-runs warm — with the same variant set as a cold
        run — falling back to cold on any guard mismatch
        (``cache_stats_["mode"]`` says which ran).  Either way, the freshly
        accumulated warm state is captured on :attr:`warm_state_` for the
        *next* refit and persisted with the estimator state.
        """
        # validate here, mark, and the discovery's own check_array is free
        X_source = mark_validated(
            check_array(X_source, name="X_source", min_samples=4)
        )
        X_target = mark_validated(
            check_array(X_target, name="X_target", min_samples=2)
        )
        discovery = FNodeDiscovery(self.config)
        with get_tracer().span(
            "fs.fit",
            n_source=X_source.shape[0],
            n_target=X_target.shape[0],
            n_features=X_source.shape[1],
        ) as span:
            if warm is not None and self.config.warm_mode != "off":
                self.result_ = discovery.rediscover(X_source, X_target, warm)
            else:
                self.result_ = discovery.discover(X_source, X_target)
            span.tag(
                n_variant=self.result_.n_variant,
                n_tests=self.result_.n_tests,
                warm=discovery.cache_stats_["mode"],
            )
        self.warm_state_ = discovery.warm_state_
        self.cache_stats_ = discovery.cache_stats_
        self.n_features_ = X_source.shape[1]
        events = get_event_log()
        if events.enabled:
            variant = set(self.result_.variant_indices.tolist())
            for j, (p, parents) in enumerate(
                zip(self.result_.p_values, self.result_.parent_sets)
            ):
                events.emit(
                    "fs.feature_decision",
                    feature=j,
                    p_value=float(p),
                    variant=j in variant,
                    parent_set=list(parents),
                )
        return self

    @property
    def variant_indices_(self) -> np.ndarray:
        check_is_fitted(self, "result_")
        return self.result_.variant_indices

    @property
    def invariant_indices_(self) -> np.ndarray:
        check_is_fitted(self, "result_")
        return self.result_.invariant_indices

    @property
    def n_variant_(self) -> int:
        check_is_fitted(self, "result_")
        return self.result_.n_variant

    def split(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(X_inv, X_var)`` column blocks of ``X``."""
        check_is_fitted(self, "result_")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"X has {X.shape[1]} features, separator was fitted with "
                f"{self.n_features_}"
            )
        return X[:, self.invariant_indices_], X[:, self.variant_indices_]

    def merge(self, X_inv, X_var) -> np.ndarray:
        """Reassemble full-width samples in the original column order.

        This is the "same feature order as x̂" requirement of Eq. (12): the
        downstream model was trained on source samples with the native
        column layout, so reconstructed samples must match it.
        """
        check_is_fitted(self, "result_")
        X_inv = check_array(X_inv, name="X_inv")
        X_var = check_array(X_var, name="X_var")
        if X_inv.shape[0] != X_var.shape[0]:
            raise ValidationError("X_inv and X_var row counts differ")
        if X_inv.shape[1] != len(self.invariant_indices_):
            raise ValidationError("X_inv width does not match the invariant set")
        if X_var.shape[1] != len(self.variant_indices_):
            raise ValidationError("X_var width does not match the variant set")
        out = np.empty((X_inv.shape[0], self.n_features_))
        out[:, self.invariant_indices_] = X_inv
        out[:, self.variant_indices_] = X_var
        return out
