"""Preprocessing transformers: scalers and encoders.

The paper normalizes features to [-1, 1] for its own methods
(:class:`MinMaxScaler` with ``feature_range=(-1, 1)``) and uses standard
scaling / one-hot label encoding for the baselines.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.estimator import Estimator, register_estimator
from repro.utils.errors import ValidationError
from repro.utils.validation import check_array, check_consistent_features, check_is_fitted


def _minmax(X, out, data_min, scale, lo, constant, mid) -> None:
    """``lo + (X - data_min) * scale`` into ``out``; ``constant`` columns
    get ``mid``."""
    np.subtract(X, data_min, out=out)
    np.multiply(out, scale, out=out)
    np.add(out, lo, out=out)
    if constant is not None:
        np.copyto(out, mid, where=constant)


@register_estimator("minmax_scaler")
class MinMaxScaler(Estimator):
    """Scale features linearly into ``feature_range`` (default ``(-1, 1)``).

    Constant features map to the midpoint of the range, which keeps the
    transform finite for degenerate telemetry columns (e.g. an interface that
    never changes state in the source domain).
    """

    _fitted_attr = "data_min_"
    _state_arrays = ("data_min_", "data_max_")

    def __init__(self, feature_range: tuple[float, float] = (-1.0, 1.0)) -> None:
        lo, hi = feature_range
        if not lo < hi:
            raise ValidationError(f"feature_range must be increasing, got {feature_range}")
        self.feature_range = (float(lo), float(hi))
        self.data_min_: np.ndarray | None = None
        self.data_max_: np.ndarray | None = None

    def _compute_scale(self) -> None:
        span = self.data_max_ - self.data_min_
        # spans so small that dividing would overflow count as constant
        usable = span > (self.feature_range[1] - self.feature_range[0]) / np.finfo(np.float64).max
        self._scale = np.where(
            usable,
            (self.feature_range[1] - self.feature_range[0]) / np.where(usable, span, 1.0),
            0.0,
        )

    def _post_load(self, meta: dict) -> None:
        self._compute_scale()

    def fit(self, X) -> "MinMaxScaler":
        X = check_array(X)
        self.data_min_ = X.min(axis=0)
        self.data_max_ = X.max(axis=0)
        self._compute_scale()
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "data_min_")
        X = check_array(X)
        ops, out = self.bind(X, None, "")
        ops[0]()
        return out

    def bind(self, X: np.ndarray, ws, name: str):
        """:meth:`transform` of the buffer ``X`` bound for replay.

        Returns ``(ops, out)`` as :meth:`repro.nn.layers.Layer.bind` does;
        ``out`` comes from the workspace ``ws``, or is a new array when
        ``ws`` is None.
        """
        check_is_fitted(self, "data_min_")
        check_consistent_features(X, self.data_min_.shape[0])
        out = np.empty(X.shape) if ws is None else ws.get(name, X.shape)
        lo, hi = self.feature_range
        constant = self._scale == 0.0
        return [partial(_minmax, X, out, self.data_min_, self._scale, lo,
                        constant if constant.any() else None,
                        (lo + hi) / 2.0)], out

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X) -> np.ndarray:
        """Map scaled values back to the original feature units."""
        check_is_fitted(self, "data_min_")
        X = check_array(X)
        check_consistent_features(X, self.data_min_.shape[0])
        lo, _hi = self.feature_range
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(self._scale > 0, (X - lo) / np.where(self._scale > 0, self._scale, 1.0), 0.0)
        out = inv + self.data_min_
        constant = self._scale == 0.0
        if np.any(constant):
            out[:, constant] = self.data_min_[constant]
        return out


@register_estimator("standard_scaler")
class StandardScaler(Estimator):
    """Zero-mean unit-variance scaling; constant features map to zero."""

    _fitted_attr = "mean_"
    _state_arrays = ("mean_", "scale_")

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X) -> "StandardScaler":
        X = check_array(X)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale_ = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "mean_")
        X = check_array(X)
        check_consistent_features(X, self.mean_.shape[0])
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X) -> np.ndarray:
        """Undo the standardization."""
        check_is_fitted(self, "mean_")
        X = check_array(X)
        check_consistent_features(X, self.mean_.shape[0])
        return X * self.scale_ + self.mean_


@register_estimator("label_encoder")
class LabelEncoder(Estimator):
    """Encode arbitrary hashable labels as contiguous integers."""

    _fitted_attr = "classes_"
    _state_arrays = ("classes_",)

    def __init__(self) -> None:
        self.classes_: np.ndarray | None = None

    def _post_load(self, meta: dict) -> None:
        if self.classes_ is not None:
            self._index = {label: i for i, label in enumerate(self.classes_)}

    def fit(self, y) -> "LabelEncoder":
        y = np.asarray(y)
        if y.ndim != 1:
            raise ValidationError("y must be 1-dimensional")
        self.classes_ = np.unique(y)
        self._index = {label: i for i, label in enumerate(self.classes_)}
        return self

    def transform(self, y) -> np.ndarray:
        check_is_fitted(self, "classes_")
        y = np.asarray(y)
        try:
            return np.array([self._index[label] for label in y], dtype=np.int64)
        except KeyError as exc:
            raise ValidationError(f"unseen label {exc.args[0]!r}") from exc

    def fit_transform(self, y) -> np.ndarray:
        return self.fit(y).transform(y)

    def inverse_transform(self, codes) -> np.ndarray:
        """Map integer codes back to the original labels."""
        check_is_fitted(self, "classes_")
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= len(self.classes_)):
            raise ValidationError("codes out of range for fitted classes")
        return self.classes_[codes]


@register_estimator("one_hot_encoder")
class OneHotEncoder(Estimator):
    """One-hot encode an integer label vector into a dense matrix."""

    _fitted_attr = "n_classes_"
    _state_scalars = ("n_classes_",)

    def __init__(self) -> None:
        self.n_classes_: int | None = None

    def fit(self, y) -> "OneHotEncoder":
        y = np.asarray(y, dtype=np.int64)
        if y.ndim != 1:
            raise ValidationError("y must be 1-dimensional")
        if y.size == 0:
            raise ValidationError("y must be non-empty")
        if y.min() < 0:
            raise ValidationError("labels must be non-negative integers")
        self.n_classes_ = int(y.max()) + 1
        return self

    def transform(self, y) -> np.ndarray:
        check_is_fitted(self, "n_classes_")
        y = np.asarray(y, dtype=np.int64)
        if y.size and y.max() >= self.n_classes_:
            raise ValidationError(
                f"label {int(y.max())} out of range for {self.n_classes_} classes"
            )
        out = np.zeros((y.shape[0], self.n_classes_), dtype=np.float64)
        out[np.arange(y.shape[0]), y] = 1.0
        return out

    def fit_transform(self, y) -> np.ndarray:
        return self.fit(y).transform(y)


def one_hot(y, n_classes: int | None = None) -> np.ndarray:
    """Functional one-hot encoding of an integer vector."""
    y = np.asarray(y, dtype=np.int64)
    if n_classes is None:
        n_classes = int(y.max()) + 1 if y.size else 0
    out = np.zeros((y.shape[0], n_classes), dtype=np.float64)
    out[np.arange(y.shape[0]), y] = 1.0
    return out
