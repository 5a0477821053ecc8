"""Conditional-independence tests for causal discovery.

Three tests cover the cases the framework needs:

- :func:`fisher_z_test` — partial-correlation test between two continuous
  variables given a continuous conditioning set (the PC algorithm's
  workhorse under joint-Gaussian assumptions).
- :func:`g_squared_test` — likelihood-ratio test for discrete variables.
- :func:`regression_invariance_test` — the test used against the binary
  **F-node**: it checks ``X ⊥ F | Z`` by regressing X on Z within the source
  domain and comparing the residual distribution across domains
  (mean shift via Welch's t, shape shift via Kolmogorov–Smirnov).  This is
  exactly Eq. (3) of the paper — "P_A(R | Pa(R)) ≠ P_C(R | Pa(R))" — made
  operational for heavily imbalanced two-domain data (thousands of source
  samples vs a handful of target samples).
"""

from __future__ import annotations

import threading
import time

import numpy as np
from scipy import stats

from repro.obs.metrics import get_metrics
from repro.utils.errors import ValidationError
from repro.utils.validation import check_array


def _observe_ci_test(registry, kind: str, cond_size: int, p: float, seconds: float) -> None:
    """Record one CI test in the metrics registry (only called when enabled).

    Per-conditioning-set-size timing is what substantiates the paper's §VI-D
    claim that FS cost is dominated by the CI tests.
    """
    registry.counter("ci_tests_total").inc()
    registry.counter(f"ci_tests_{kind}").inc()
    registry.histogram("ci_test_seconds").observe(seconds)
    registry.histogram("ci_test_pvalue").observe(p)
    registry.counter(f"ci_tests_cond{cond_size}").inc()
    registry.histogram(f"ci_test_seconds_cond{cond_size}").observe(seconds)


#: supported KS tail evaluations (see :func:`ks_pvalue`)
KS_PVALUE_MODES = ("exact", "stephens")

#: most exact KS tails the process-wide memo of :func:`ks_pvalue` holds; the
#: oldest entries are dropped first once it is full
KS_TAIL_MEMO_MAX = 1 << 16
_KS_TAIL_MEMO: dict[tuple[float, float], float] = {}
_KS_TAIL_LOCK = threading.Lock()


def _kstwo_sf(stat, n: float):
    """``clip(kstwo.sf(stat, n), 0, 1)``, evaluating each distinct D once.

    A two-sample D is a multiple of ``1 / lcm(n1, n2)``, so one discovery
    run sees few distinct values, and scipy's exact small-``n`` tail costs
    about a millisecond each.  Tails are memoized process-wide by
    ``(n, D)``; a miss is evaluated by the same scipy call, so the result
    is bitwise what the unmemoized call returns.  Non-finite D is never
    stored.
    """
    d = np.asarray(stat, dtype=np.float64)
    uniq, inverse = np.unique(d.reshape(-1), return_inverse=True)
    keys = [(n, float(v)) for v in uniq]
    with _KS_TAIL_LOCK:
        tails = [_KS_TAIL_MEMO.get(key) for key in keys]
    missing = [i for i, tail in enumerate(tails) if tail is None]
    if missing:
        fresh = np.clip(stats.kstwo.sf(uniq[missing], n), 0.0, 1.0)
        with _KS_TAIL_LOCK:
            for i, tail in zip(missing, fresh.tolist()):
                tails[i] = tail
                if np.isfinite(uniq[i]):
                    _KS_TAIL_MEMO[keys[i]] = tail
            while len(_KS_TAIL_MEMO) > KS_TAIL_MEMO_MAX:
                del _KS_TAIL_MEMO[next(iter(_KS_TAIL_MEMO))]
    out = np.array(tails, dtype=np.float64)[inverse].reshape(d.shape)
    return out if d.ndim else out[()]


def ks_pvalue(stat, n: int, m: int, *, mode: str = "exact"):
    """Two-sample KS tail probability for D statistic(s) ``stat``.

    The single home for both KS tail evaluations used across the scalar
    (:func:`regression_invariance_test`) and batched
    (:func:`repro.causal.engine.batch_ks_pvalues`) paths, so warm and cold
    discovery cannot drift apart:

    - ``mode="exact"``: the Kolmogorov-Smirnov survival function at the
      scipy-rounded effective sample size — bit-identical to
      ``scipy.stats.ks_2samp(method="asymp")``, routing into scipy's exact
      small-``n`` evaluation at few-shot sample sizes.  Each distinct
      ``(n, D)`` is evaluated once per process (bounded memo, see
      :data:`KS_TAIL_MEMO_MAX`).
    - ``mode="stephens"``: the limiting Kolmogorov distribution at the
      Stephens-corrected argument — within ~1e-3 of the exact tail at these
      sample sizes and orders of magnitude cheaper; the float32 fast path
      always pairs it with a float64 exact re-check near the threshold.

    ``stat`` may be a scalar or an array; the return matches its shape.
    """
    if mode not in KS_PVALUE_MODES:
        raise ValidationError(
            f"ks_pvalue mode must be one of {KS_PVALUE_MODES}, got {mode!r}"
        )
    big, small = float(max(n, m)), float(min(n, m))
    en = big * small / (big + small)
    if mode == "exact":
        return _kstwo_sf(stat, float(np.round(en)))
    root = np.sqrt(en)
    return np.clip(
        stats.kstwobign.sf((root + 0.12 + 0.11 / root) * np.asarray(stat)), 0.0, 1.0
    )


def _partial_correlation(data: np.ndarray, i: int, j: int, cond: tuple[int, ...]) -> float:
    """Partial correlation of columns i and j given columns ``cond``."""
    if not cond:
        xi, xj = data[:, i], data[:, j]
        si, sj = xi.std(), xj.std()
        if si == 0 or sj == 0:
            return 0.0
        return float(np.corrcoef(xi, xj)[0, 1])
    Z = data[:, list(cond)]
    Z = np.column_stack([np.ones(Z.shape[0]), Z])
    # both regressions share the design matrix: one multi-RHS solve
    beta, *_ = np.linalg.lstsq(Z, data[:, [i, j]], rcond=None)
    resid = data[:, [i, j]] - Z @ beta
    ri, rj = resid[:, 0], resid[:, 1]
    si, sj = ri.std(), rj.std()
    if si == 0 or sj == 0:
        return 0.0
    return float(np.corrcoef(ri, rj)[0, 1])


def fisher_z_test(data, i: int, j: int, cond: tuple[int, ...] = ()) -> float:
    """p-value for ``X_i ⊥ X_j | X_cond`` via the Fisher z-transform.

    Returns a p-value in [0, 1]; small values reject independence.
    """
    registry = get_metrics()
    if registry.enabled:
        t0 = time.perf_counter()
        p = _fisher_z_test(data, i, j, cond)
        _observe_ci_test(registry, "fisher_z", len(cond), p, time.perf_counter() - t0)
        return p
    return _fisher_z_test(data, i, j, cond)


def _fisher_z_test(data, i: int, j: int, cond: tuple[int, ...]) -> float:
    data = check_array(data, min_samples=4)
    d = data.shape[1]
    for col in (i, j, *cond):
        if not 0 <= col < d:
            raise ValidationError(f"column index {col} out of range for {d} columns")
    if i == j or i in cond or j in cond:
        raise ValidationError("i, j and cond must be distinct")
    n = data.shape[0]
    dof = n - len(cond) - 3
    if dof <= 0:
        return 1.0  # not enough samples to reject anything
    r = np.clip(_partial_correlation(data, i, j, cond), -1 + 1e-12, 1 - 1e-12)
    z = 0.5 * np.log((1 + r) / (1 - r)) * np.sqrt(dof)
    return float(2.0 * stats.norm.sf(abs(z)))


def g_squared_test(x, y, z=None, *, min_count: float = 0.0) -> float:
    """G² (likelihood-ratio) test of ``x ⊥ y | z`` for discrete variables.

    ``x``/``y`` are 1-D integer arrays; ``z`` an optional 2-D integer matrix
    of conditioning columns.  Returns a p-value.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValidationError("x and y must be 1-D arrays of equal length")
    if z is None:
        strata = np.zeros(x.shape[0], dtype=np.int64)
    else:
        z = np.asarray(z, dtype=np.int64)
        if z.ndim == 1:
            z = z[:, None]
        if z.shape[0] != x.shape[0]:
            raise ValidationError("z must match x in length")
        _, strata = np.unique(z, axis=0, return_inverse=True)

    _, x_codes = np.unique(x, return_inverse=True)
    _, y_codes = np.unique(y, return_inverse=True)
    n_x = int(x_codes.max()) + 1
    n_y = int(y_codes.max()) + 1
    n_strata = int(strata.max()) + 1

    # all (stratum, x, y) contingency tables in one bincount over encoded cells
    cells = (strata * n_x + x_codes) * n_y + y_codes
    tables = np.bincount(cells, minlength=n_strata * n_x * n_y).reshape(
        n_strata, n_x, n_y
    ).astype(np.float64)
    totals = tables.sum(axis=(1, 2))
    tables = tables[totals >= 2]  # strata with < 2 samples carry no evidence
    if tables.shape[0] == 0:
        return 1.0

    row_sums = tables.sum(axis=2, keepdims=True)
    col_sums = tables.sum(axis=1, keepdims=True)
    expected = row_sums * col_sums / tables.sum(axis=(1, 2), keepdims=True)
    nonzero = (tables > min_count) & (expected > 0)
    safe_t = np.where(nonzero, tables, 1.0)
    safe_e = np.where(nonzero, expected, 1.0)
    g2 = 2.0 * float(np.sum(np.where(nonzero, tables * np.log(safe_t / safe_e), 0.0)))

    rows = (row_sums[:, :, 0] > 0).sum(axis=1)
    cols = (col_sums[:, 0, :] > 0).sum(axis=1)
    dof = int(np.maximum(0, (rows - 1) * (cols - 1)).sum())
    if dof == 0:
        return 1.0
    return float(stats.chi2.sf(g2, dof))


def regression_invariance_test(
    x_source: np.ndarray,
    x_target: np.ndarray,
    z_source: np.ndarray | None = None,
    z_target: np.ndarray | None = None,
    *,
    ridge: float = 1e-3,
) -> float:
    """p-value for ``X ⊥ F | Z`` with F the binary domain indicator.

    Fits a ridge regression of X on Z using **source** samples only (the
    conditional mechanism under observational data), computes residuals in
    both domains, and tests whether target residuals follow the source
    residual distribution.  Combines a Welch t-test (mean shift) and a
    two-sample Kolmogorov–Smirnov test (distributional shift) with a
    Bonferroni correction, so either kind of soft intervention is caught.

    Passing ``z_source=None`` performs the marginal (unconditional) test.
    """
    registry = get_metrics()
    if registry.enabled:
        cond_size = 0 if z_source is None else int(np.asarray(z_source).shape[-1])
        t0 = time.perf_counter()
        p = _regression_invariance_test(
            x_source, x_target, z_source, z_target, ridge=ridge
        )
        _observe_ci_test(
            registry, "invariance", cond_size, p, time.perf_counter() - t0
        )
        return p
    return _regression_invariance_test(x_source, x_target, z_source, z_target, ridge=ridge)


def _regression_invariance_test(
    x_source: np.ndarray,
    x_target: np.ndarray,
    z_source: np.ndarray | None = None,
    z_target: np.ndarray | None = None,
    *,
    ridge: float = 1e-3,
) -> float:
    x_source = np.asarray(x_source, dtype=np.float64).ravel()
    x_target = np.asarray(x_target, dtype=np.float64).ravel()
    if x_source.size < 3 or x_target.size < 2:
        return 1.0
    if z_source is None or z_source.size == 0 or z_source.shape[1] == 0:
        res_s, res_t = x_source, x_target
    else:
        z_source = np.asarray(z_source, dtype=np.float64)
        z_target = np.asarray(z_target, dtype=np.float64)
        if z_source.shape[0] != x_source.size or z_target.shape[0] != x_target.size:
            raise ValidationError("conditioning sets must match sample counts")
        Zs = np.column_stack([np.ones(z_source.shape[0]), z_source])
        Zt = np.column_stack([np.ones(z_target.shape[0]), z_target])
        A = Zs.T @ Zs + ridge * np.eye(Zs.shape[1])
        beta = np.linalg.solve(A, Zs.T @ x_source)
        res_s = x_source - Zs @ beta
        res_t = x_target - Zt @ beta

    if res_s.std() == 0 and res_t.std() == 0:
        # both constant: independent iff the constants agree
        return 1.0 if np.isclose(res_s.mean(), res_t.mean()) else 0.0

    p_values = []
    try:
        _, p_t = stats.ttest_ind(res_s, res_t, equal_var=False)
        if np.isfinite(p_t):
            p_values.append(float(p_t))
    except ValueError:
        pass
    try:
        d_ks, _ = stats.ks_2samp(res_s, res_t, method="asymp")
        # shared tail evaluation with the batched engine (bit-identical to
        # scipy's own asymp p-value at the rounded effective sample size)
        p_ks = float(ks_pvalue(d_ks, res_s.size, res_t.size, mode="exact"))
        if np.isfinite(p_ks):
            p_values.append(p_ks)
    except ValueError:
        pass
    if not p_values:
        return 1.0
    return float(min(1.0, min(p_values) * len(p_values)))
