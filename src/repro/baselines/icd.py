"""ICD — invariant conditional distributions (Magliacane et al., NeurIPS 2018),
adapted as the paper adapts it (§VI-A): use the joint-causal-inference style
invariance testing to split features into variant/invariant sets, then train
the downstream model on the invariant features only (on source + target few).

The adaptation keeps ICD's defining limitations in this setting: designed
for low-dimensional data with (conditionally) Gaussian mechanisms, its
invariance test reduces to comparing conditional *means* across domains —
Welch's t-test per feature with a conservative Bonferroni-corrected
threshold.  Mean-preserving drift (scale or variance changes) is therefore
invisible to it, so it flags substantially fewer variant features than FS —
exactly the behaviour the paper reports ("ICD identifies much less
domain-variant features than our FS method").
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import DAMethod, fit_scaler
from repro.core.estimator import register_estimator
from repro.utils.errors import ValidationError
from repro.utils.validation import check_is_fitted


def _mean_invariance_p(x_source: np.ndarray, x_target: np.ndarray) -> float:
    """Welch t-test p-value for a cross-domain mean shift in one feature."""
    from scipy import stats

    if x_source.std() == 0 and x_target.std() == 0:
        return 1.0 if np.isclose(x_source.mean(), x_target.mean()) else 0.0
    try:
        p = stats.ttest_ind(x_source, x_target, equal_var=False).pvalue
    except ValueError:
        return 1.0
    return float(p) if np.isfinite(p) else 1.0


@register_estimator("icd")
class ICD(DAMethod):
    """Marginal-invariance feature screening + invariant-feature training."""

    _fitted_attr = "model_"
    _state_arrays = ("invariant_indices_", "variant_indices_")
    _state_estimators = ("scaler_", "model_")

    def __init__(
        self,
        model_factory,
        *,
        alpha: float = 0.05,
        bonferroni: bool = True,
    ) -> None:
        if not callable(model_factory):
            raise ValidationError("model_factory must be callable")
        if not 0.0 < alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")
        self.model_factory = model_factory
        self.alpha = alpha
        self.bonferroni = bonferroni
        self.model_ = None
        self.invariant_indices_: np.ndarray | None = None
        self.variant_indices_: np.ndarray | None = None

    def fit(self, X_source, y_source, X_target_few, y_target_few):
        X_source, y_source, X_target_few, y_target_few = self._validate(
            X_source, y_source, X_target_few, y_target_few
        )
        self.scaler_ = fit_scaler(X_source)
        Xs = self.scaler_.transform(X_source)
        Xt = self.scaler_.transform(X_target_few)
        d = Xs.shape[1]
        threshold = self.alpha / d if self.bonferroni else self.alpha
        p_values = np.array(
            [_mean_invariance_p(Xs[:, j], Xt[:, j]) for j in range(d)]
        )
        self.variant_indices_ = np.where(p_values < threshold)[0]
        self.invariant_indices_ = np.where(p_values >= threshold)[0]
        if len(self.invariant_indices_) == 0:
            raise ValidationError("ICD flagged every feature as variant")
        X = np.vstack([Xs, Xt])[:, self.invariant_indices_]
        y = np.concatenate([y_source, y_target_few])
        self.model_ = self.model_factory()
        self.model_.fit(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "model_")
        Xp = self.scaler_.transform(X)[:, self.invariant_indices_]
        return self.model_.predict(Xp)

    @property
    def n_variant_(self) -> int:
        check_is_fitted(self, "variant_indices_")
        return int(len(self.variant_indices_))
