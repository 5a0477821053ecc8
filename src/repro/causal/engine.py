"""Vectorized + parallel CI-test engine for F-node discovery.

The paper's runtime analysis (§VI-D) shows the FS step dominates end-to-end
cost, almost entirely in conditional-independence tests.  This module is the
performance layer behind :class:`repro.causal.FNodeDiscovery`:

- :meth:`CIEngine.marginal_pvalues` computes the size-0 ``X ⊥ F`` test for
  *every* feature in one batched Welch-t + Kolmogorov–Smirnov sweep — on
  drifted data most features clear immediately, so this single sweep
  removes the bulk of the per-feature Python-loop iterations.
- :meth:`CIEngine.pvalues` scores any batch of ``(j, S)`` tests — mixed
  features and subset sizes — with a per-conditioning-tuple cache of
  design matrices and Cholesky factors and a per-``(tuple, feature)``
  ridge solve, so the per-tuple cost does not scale with the total feature
  count.  Residuals are stored as one contiguous row per test and every
  statistic reduces along its own row: **a p-value is a function of
  (j, S) only**, bitwise the same whatever it is batched with.  That is
  what lets the search regroup tests freely.
- :meth:`CIEngine.search` runs the subset search in *rounds*: one round
  scores the next subset level of every feature still unresolved in one
  statistics pass (round 0 the warm prior sets, then levels
  ``1..max_cond_size`` of the primary pool, then the ``prune_exact``
  fallback pool).  Each feature keeps the exact prefix semantics of a
  feature-at-a-time search — it counts tests up to and including its first
  clearing subset, then drops out — so test counts, separating sets and
  decisions equal that search's.  Anytime budgets (test-count and
  wall-clock) run rounds of one feature.
- ``stats_dtype="float32"`` runs the whole statistics path — design
  matrices, Cholesky factors, residuals, batched test statistics — in
  float32, then re-verifies every p-value within ``alpha / 2`` of the
  decision threshold in float64, so variant *decisions* match the float64
  path (see EXPERIMENTS.md for the policy).
- :func:`search_chunk_worker` is the process-pool entry point used by
  ``FSConfig(n_jobs=...)``: each worker runs rounds over its chunk of
  features.  Workers attach the matrices zero-copy from shared memory
  (:mod:`repro.causal.shm`) or, as a fallback, receive them pickled once
  per worker — either way each worker builds its own engine over the same
  matrices, so serial and parallel runs are bit-identical.

The batched statistics replicate :func:`scipy.stats.ttest_ind`
(``equal_var=False``) and :func:`scipy.stats.ks_2samp` (``method="asymp"``)
exactly, so the engine's p-values match the scalar
:func:`repro.causal.ci_tests.regression_invariance_test` to float64
round-off.
"""

from __future__ import annotations

import os
import time
from itertools import combinations

import numpy as np
from scipy import stats
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from repro.causal.ci_tests import ks_pvalue
from repro.obs.trace import get_tracer
from repro.utils.errors import ValidationError

#: ridge strength of every conditional regression (matches
#: :func:`repro.causal.ci_tests.regression_invariance_test`)
DEFAULT_RIDGE = 1e-3

#: supported statistics dtypes (FSConfig.stats_dtype)
STATS_DTYPES = ("float64", "float32")

#: one log row per counted CI test: (cond_size, p_value, seconds)
TestLog = list

#: subsets per deadline poll inside one search round — small enough that a
#: wall-clock budget cannot overshoot by a whole feature's subset search,
#: large enough to keep the batched statistics amortized
DEADLINE_CHUNK = 32

#: residual values (rows x samples, both domains) one statistics pass holds:
#: a round larger than this is scored in several passes, so peak memory does
#: not grow with the number of features a round carries
PASS_CELLS = 1 << 16


def _rows(X: np.ndarray) -> np.ndarray:
    """Column-layout ``(n_samples, m)`` batch as C-contiguous test rows."""
    return np.ascontiguousarray(np.asarray(X).T)


def _welch_t_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Welch t p-value per row of ``A`` (m, n1) vs ``B`` (m, n2)."""
    n1, n2 = A.shape[1], B.shape[1]
    m1, m2 = A.mean(axis=1), B.mean(axis=1)
    vn1 = A.var(axis=1, ddof=1) / n1
    vn2 = B.var(axis=1, ddof=1) / n2
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (vn1 + vn2) ** 2 / (vn1**2 / (n1 - 1) + vn2**2 / (n2 - 1))
        df = np.where(np.isnan(df), 1.0, df)
        t = (m1 - m2) / np.sqrt(vn1 + vn2)
        return 2.0 * stats.t.sf(np.abs(t), df)


def _ks_rows(A: np.ndarray, B: np.ndarray, *, exact: bool = True) -> np.ndarray:
    """Two-sample KS p-value per row of ``A`` (m, n1) vs ``B`` (m, n2).

    The D statistic equals scipy's searchsorted construction: ``ks_2samp``
    evaluates ``#a <= v / n1 - #b <= v / n2`` at every pooled value ``v``;
    here each row is merge-sorted once and the same differences are read
    off at the last position of every run of tied values, where the running
    counts are exactly ``#a <= v`` and ``#b <= v`` (so the sort need not be
    stable).  ``exact`` picks the tail, see :func:`batch_ks_pvalues`.
    """
    n1, n2 = A.shape[1], B.shape[1]
    pooled = np.concatenate([A, B], axis=1)
    order = np.argsort(pooled, axis=1)
    values = np.take_along_axis(pooled, order, axis=1)
    c1 = np.cumsum(order < n1, axis=1)
    diffs = c1 / n1
    diffs -= (np.arange(1, n1 + n2 + 1) - c1) / n2
    last = np.ones(values.shape, dtype=bool)
    last[:, :-1] = values[:, 1:] != values[:, :-1]
    hi = diffs.max(axis=1, where=last, initial=-np.inf)
    lo = diffs.min(axis=1, where=last, initial=np.inf)
    d = np.maximum(np.clip(-lo, 0, 1), hi)
    return ks_pvalue(d, n1, n2, mode="exact" if exact else "stephens")


def _invariance_rows(
    res_s: np.ndarray, res_t: np.ndarray, *, ks_exact: bool = True
) -> np.ndarray:
    """Bonferroni-combined Welch-t + KS p-value per residual row.

    Every statistic reduces along the contiguous sample axis of its own
    row, so a row's p-value does not depend on which other rows share the
    batch: scoring any subset of rows alone gives bitwise the same values.
    """
    P = np.stack(
        [_welch_t_rows(res_s, res_t), _ks_rows(res_s, res_t, exact=ks_exact)]
    )
    finite = np.isfinite(P)
    n_valid = finite.sum(axis=0)
    p_min = np.where(finite, P, np.inf).min(axis=0)
    with np.errstate(invalid="ignore"):
        out = np.where(n_valid == 0, 1.0, np.minimum(1.0, p_min * n_valid))
    both_const = (res_s.std(axis=1) == 0) & (res_t.std(axis=1) == 0)
    if np.any(both_const):
        agree = np.isclose(
            res_s.mean(axis=1, dtype=np.float64),
            res_t.mean(axis=1, dtype=np.float64),
        )
        out = np.where(both_const, np.where(agree, 1.0, 0.0), out)
    return out


def batch_welch_t_pvalues(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Two-sided Welch t-test p-value per column of ``A`` (n1, m) vs ``B`` (n2, m).

    Mirrors ``scipy.stats.ttest_ind(a, b, equal_var=False)`` column-wise:
    Satterthwaite degrees of freedom, NaN where the statistic is undefined.
    """
    return _welch_t_rows(_rows(A), _rows(B))


def batch_ks_pvalues(
    A: np.ndarray, B: np.ndarray, *, exact: bool = True
) -> np.ndarray:
    """Two-sample KS asymptotic p-value per column, as ``ks_2samp(method="asymp")``.

    The D statistics equal scipy's searchsorted construction bit for bit;
    with ``exact=True`` the p-value is the Kolmogorov-Smirnov survival
    function at the scipy-rounded effective sample size — bit-identical to
    scipy, but at few-shot sample sizes that routes into scipy's exact
    small-``n`` Pomeranz evaluation, which dominates discovery wall-clock.
    ``exact=False`` (the float32 fast path) evaluates the limiting
    Kolmogorov distribution at the Stephens-corrected argument instead —
    within ~1e-3 of the exact tail for the sample sizes used here, orders of
    magnitude cheaper, and always paired with a float64 exact re-check of
    near-threshold p-values.
    """
    return _ks_rows(_rows(A), _rows(B), exact=exact)


def combined_invariance_pvalues(
    res_s: np.ndarray, res_t: np.ndarray, *, ks_exact: bool = True
) -> np.ndarray:
    """Bonferroni-combined Welch-t + KS p-value per residual column.

    Column-wise replica of the combination logic in
    :func:`repro.causal.ci_tests.regression_invariance_test`: non-finite
    component p-values are dropped, ``min(1, min(p) * n_valid)`` combines the
    survivors, and columns constant in both domains compare the constants.
    ``ks_exact`` is forwarded to :func:`batch_ks_pvalues`.  The columns are
    scored as contiguous rows, so a column's p-value is bitwise the same
    whatever other columns share the call.
    """
    return _invariance_rows(_rows(res_s), _rows(res_t), ks_exact=ks_exact)


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` setting to a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` means one worker per available
    core.  Everything else must be a positive integer — ``0`` and negative
    values other than ``-1`` have no meaningful worker-count reading and are
    rejected rather than silently clamped.
    """
    if isinstance(n_jobs, bool):
        raise ValidationError(
            f"n_jobs must be a positive integer or -1 (all cores), got {n_jobs!r}"
        )
    if n_jobs is None or n_jobs == 1:
        return 1
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if not isinstance(n_jobs, (int, np.integer)) or n_jobs < 1:
        raise ValidationError(
            "n_jobs must be a positive integer or -1 (all cores), got "
            f"{n_jobs!r}; 0 and negative values other than -1 do not describe "
            "a worker count"
        )
    return int(n_jobs)


def rank_candidates(
    corr_row: np.ndarray, marginal_p: np.ndarray, candidates: tuple[int, ...]
) -> tuple[int, ...]:
    """Order conditioning candidates by marginal-association effect size.

    A candidate is a promising conditioner for feature ``j`` when it is both
    strongly correlated with ``j`` (it proxies a parent) and itself
    marginally drifted (conditioning on a shifted parent is what separates a
    drifted *child* from the F-node).  The score multiplies the absolute
    source correlation by a drift weight in [1, 2] derived from the
    candidate's own marginal p-value; ties break on the original candidate
    order (stable sort), so the ranking is deterministic.
    """
    if len(candidates) <= 1:
        return candidates
    idx = np.asarray(candidates, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        corr_abs = np.abs(corr_row[idx])
    corr_abs = np.where(np.isfinite(corr_abs), corr_abs, 0.0)
    drift = 2.0 - np.clip(marginal_p[idx], 0.0, 1.0)
    order = np.argsort(-(corr_abs * drift), kind="stable")
    return tuple(int(idx[i]) for i in order)


class CIEngine:
    """Batched, cached CI tests over one fixed (source, target) matrix pair.

    The matrices are converted/validated once at construction; every repeated
    cost in the discovery inner loop — design-matrix assembly, Gram matrix,
    Cholesky factorization, the per-feature ridge solve — is cached keyed by
    the conditioning column tuple, so repeated subsets (common when features
    share correlated parents) are nearly free.  Traced runs record each
    search round as an ``fs.ci_batch`` span with ``fs.residuals`` (residual
    assembly) and ``fs.score`` (batched statistics) children.

    Parameters
    ----------
    stats_dtype:
        ``"float64"`` (exact) or ``"float32"``: run the statistics path in
        single precision.  With ``verify_alpha`` set, any p-value within
        ``verify_alpha / 2`` of it is recomputed in float64 and substituted,
        so threshold decisions match the float64 path.
    verify_alpha:
        Decision threshold the float32 path verifies around.
    stat_cache:
        Optional :class:`repro.causal.warm.CIStatCache` used as a
        read-through/write-through store for the source-side regression
        state (Cholesky factors, betas, source residuals).  The caller is
        responsible for only attaching a cache whose guards (ridge, dtype,
        source fingerprint) match — under those guards reused entries are
        byte-for-byte what this engine would compute.  Hit/miss traffic is
        counted in :attr:`cache_stats`.
    """

    def __init__(
        self,
        X_source,
        X_target,
        *,
        stats_dtype: str = "float64",
        verify_alpha: float | None = None,
        stat_cache=None,
    ) -> None:
        self.Xs64 = np.ascontiguousarray(X_source, dtype=np.float64)
        self.Xt64 = np.ascontiguousarray(X_target, dtype=np.float64)
        if self.Xs64.ndim != 2 or self.Xt64.ndim != 2:
            raise ValidationError("CIEngine expects 2-D matrices")
        if self.Xs64.shape[1] != self.Xt64.shape[1]:
            raise ValidationError("domains disagree on feature count")
        if stats_dtype not in STATS_DTYPES:
            raise ValidationError(
                f"stats_dtype must be one of {STATS_DTYPES}, got {stats_dtype!r}"
            )
        self.stats_dtype = np.dtype(stats_dtype)
        if self.stats_dtype == np.float64:
            self.Xs, self.Xt = self.Xs64, self.Xt64
        else:
            self.Xs = self.Xs64.astype(self.stats_dtype)
            self.Xt = self.Xt64.astype(self.stats_dtype)
        self.verify_alpha = None if verify_alpha is None else float(verify_alpha)
        self._verify_engine: CIEngine | None = None
        # cols -> (Zt, Cholesky factor of the ridge Gram matrix); cols -> Zs
        self._designs: dict[tuple[int, ...], tuple] = {}
        self._source_designs: dict[tuple[int, ...], np.ndarray] = {}
        self._betas: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
        self._marginal: np.ndarray | None = None
        self.stat_cache = stat_cache
        # in-run cache traffic (design/beta) plus cross-run warm-cache
        # traffic; exported as the fs.cache.* metric family by FNodeDiscovery
        self.cache_stats: dict[str, int] = {
            "design_hits": 0,
            "design_misses": 0,
            "beta_hits": 0,
            "beta_misses": 0,
            "warm_hits": 0,
            "warm_misses": 0,
        }

    def merge_cache_stats(self, other: dict) -> None:
        """Fold a worker's cache-traffic delta into this engine's counters."""
        for key, value in other.items():
            self.cache_stats[key] = self.cache_stats.get(key, 0) + int(value)

    @property
    def n_features(self) -> int:
        return int(self.Xs64.shape[1])

    @property
    def _pass_width(self) -> int:
        """Tests (or features) per statistics pass, see :data:`PASS_CELLS`."""
        return max(1, PASS_CELLS // (self.Xs.shape[0] + self.Xt.shape[0]))

    # -- float64 verification ------------------------------------------------

    @property
    def _verifies(self) -> bool:
        return self.stats_dtype == np.float32 and self.verify_alpha is not None

    def _verifier(self) -> "CIEngine":
        """Lazy float64 companion engine over the same (shared) matrices."""
        if self._verify_engine is None:
            self._verify_engine = CIEngine(self.Xs64, self.Xt64)
        return self._verify_engine

    def _borderline(self, ps: np.ndarray) -> np.ndarray:
        """Indices whose p-value sits within the verification band."""
        margin = self.verify_alpha / 2.0
        return np.nonzero(np.abs(ps - self.verify_alpha) <= margin)[0]

    # -- marginal sweep ------------------------------------------------------

    def marginal_pvalues(self) -> np.ndarray:
        """``X ⊥ F`` p-value for every feature in one batched sweep (cached).

        The sweep runs in passes of at most :data:`PASS_CELLS` values.  On
        the float32 path, borderline features (within ``verify_alpha / 2``
        of ``verify_alpha``) are recomputed from the float64 masters.
        """
        if self._marginal is None:
            if self.Xs.shape[0] < 3 or self.Xt.shape[0] < 2:
                self._marginal = np.ones(self.n_features)
            else:
                width = self._pass_width
                ps = np.concatenate([
                    combined_invariance_pvalues(
                        self.Xs[:, k : k + width],
                        self.Xt[:, k : k + width],
                        ks_exact=not self._verifies,
                    )
                    for k in range(0, self.n_features, width)
                ])
                if self._verifies:
                    near = self._borderline(ps)
                    if near.size:
                        ps[near] = combined_invariance_pvalues(
                            self.Xs64[:, near], self.Xt64[:, near]
                        )
                self._marginal = ps
        return self._marginal

    # -- conditional tests ---------------------------------------------------

    def _design(self, cols: tuple[int, ...]):
        """Cached ``(Zt, factor)`` for a conditioning tuple.

        ``factor`` is the Cholesky factor of the ridge Gram matrix, read
        from the warm cache when it holds one; the source design is built
        (by :meth:`_source_design`) only when a factor, beta or source
        residual must actually be computed.
        """
        entry = self._designs.get(cols)
        if entry is not None:
            self.cache_stats["design_hits"] += 1
            return entry
        self.cache_stats["design_misses"] += 1
        dt = self.stats_dtype
        Zt = np.column_stack(
            [np.ones(self.Xt.shape[0], dtype=dt), self.Xt[:, list(cols)]]
        )
        factor = None
        if self.stat_cache is not None:
            factor = self.stat_cache.get_factor(cols)
            key = "warm_hits" if factor is not None else "warm_misses"
            self.cache_stats[key] += 1
        if factor is None:
            Zs = self._source_design(cols)
            A = Zs.T @ Zs + np.asarray(DEFAULT_RIDGE, dtype=dt) * np.eye(
                Zs.shape[1], dtype=dt
            )
            try:
                factor = cho_factor(A)
            except LinAlgError:
                # float32 Gram matrices can lose positive-definiteness to
                # roundoff; fall back to a float64 factor for this tuple
                # (cho_solve upcasts the solve accordingly)
                factor = cho_factor(A.astype(np.float64))
            if self.stat_cache is not None:
                self.stat_cache.put_factor(cols, factor)
        entry = (Zt, factor)
        self._designs[cols] = entry
        return entry

    def _source_design(self, cols: tuple[int, ...]) -> np.ndarray:
        """Source design matrix ``[1, Xs[:, cols]]``, built on first use."""
        Zs = self._source_designs.get(cols)
        if Zs is None:
            Zs = np.column_stack(
                [np.ones(self.Xs.shape[0], dtype=self.stats_dtype),
                 self.Xs[:, list(cols)]]
            )
            self._source_designs[cols] = Zs
        return Zs

    def _beta(self, cols: tuple[int, ...], j: int) -> np.ndarray:
        """Ridge coefficients of feature ``j`` on conditioning tuple ``cols``."""
        _, factor = self._design(cols)
        per_feature = self._betas.setdefault(cols, {})
        beta = per_feature.get(j)
        if beta is not None:
            self.cache_stats["beta_hits"] += 1
            return beta
        self.cache_stats["beta_misses"] += 1
        if self.stat_cache is not None:
            beta = self.stat_cache.get_beta(cols, j)
            key = "warm_hits" if beta is not None else "warm_misses"
            self.cache_stats[key] += 1
            if beta is not None:
                per_feature[j] = beta
                return beta
        beta = cho_solve(factor, self._source_design(cols).T @ self.Xs[:, j])
        per_feature[j] = beta
        if self.stat_cache is not None:
            self.stat_cache.put_beta(cols, j, beta)
        return beta

    def _residual_rows(self, pairs: list) -> tuple[np.ndarray, np.ndarray]:
        """Source and target residuals, one contiguous row per ``(j, S)``."""
        cache = self.stat_cache
        res_s = np.empty((len(pairs), self.Xs.shape[0]), dtype=self.stats_dtype)
        res_t = np.empty((len(pairs), self.Xt.shape[0]), dtype=self.stats_dtype)
        for k, (j, cols) in enumerate(pairs):
            Zt, _ = self._design(cols)
            beta = self._beta(cols, j)
            rs = cache.get_residual(cols, j) if cache is not None else None
            if rs is None:
                rs = self.Xs[:, j] - self._source_design(cols) @ beta
                if cache is not None:
                    cache.put_residual(cols, j, rs)
            res_s[k] = rs
            res_t[k] = self.Xt[:, j] - Zt @ beta
        return res_s, res_t

    def pvalues(self, pairs: list) -> np.ndarray:
        """p-value of ``X_j ⊥ F | S`` for every ``(j, S)`` pair, batched.

        The pairs may mix features and subset sizes.  Residuals are
        assembled as one row per pair and scored in passes of at most
        :data:`PASS_CELLS` residual values; every statistic reduces along
        its own row, so each p-value is a function of ``(j, S)`` only —
        bitwise the same whatever it is batched with.  On the float32 path,
        borderline p-values are recomputed in float64.
        """
        out = np.ones(len(pairs))
        if self.Xs.shape[0] < 3 or self.Xt.shape[0] < 2 or not pairs:
            return out
        tracer = get_tracer()
        width = self._pass_width
        for start in range(0, len(pairs), width):
            chunk = pairs[start : start + width]
            with tracer.span("fs.residuals", n_tests=len(chunk)):
                res_s, res_t = self._residual_rows(chunk)
            with tracer.span("fs.score", n_tests=len(chunk)):
                out[start : start + len(chunk)] = _invariance_rows(
                    res_s, res_t, ks_exact=not self._verifies
                )
        if self._verifies:
            near = self._borderline(out)
            if near.size:
                out[near] = self._verifier().pvalues([pairs[i] for i in near])
        return out

    def conditional_pvalues(
        self, j: int, subsets: list[tuple[int, ...]]
    ) -> np.ndarray:
        """p-values for ``X_j ⊥ F | S`` for every subset S (see :meth:`pvalues`)."""
        return self.pvalues([(j, cols) for cols in subsets])

    # -- subset search in rounds ---------------------------------------------

    def search(
        self,
        tasks,
        *,
        alpha: float,
        max_cond_size: int,
        budget: int | None = None,
        deadline: float | None = None,
    ) -> list[tuple]:
        """PC-style subset search for the F-node edge of every task's feature.

        Each task is ``(j, candidates, extra_candidates, marginal_p,
        prior_set)``; the result has one row ``(j, best_p, separating_set,
        n_conditional_tests, log, completed)`` per task, in task order.

        The search runs in rounds, and one round scores the next subset
        level of every feature still unresolved in one :meth:`pvalues`
        call.  Round 0 tests the warm ``prior_set`` (a conditioning set that
        separated the feature in a previous run); rounds ``1..max_cond_size``
        are the subset sizes of the primary pool ``candidates``, and the
        next ``max_cond_size`` rounds those of the fallback pool
        ``extra_candidates`` not contained in the primary pool, so a feature
        that never separates still sees every subset of the full pool (the
        decision-exactness guarantee of pruned search).  A prior set is a
        subset of the pool the full enumeration tests, so a clear in round 0
        cannot change the decision; when it does not clear, later rounds
        skip that one duplicate subset.

        Per feature, only the prefix of its level up to and including the
        first clearing subset counts toward ``n_tests``, ``best_p`` and the
        observation log, and the feature then drops out.  Since every
        p-value depends on ``(j, S)`` only, each row equals what a search of
        that feature alone returns.

        ``budget`` caps each feature's *counted* conditional tests (anytime
        mode: the search stops mid-level with ``completed=False``);
        ``deadline`` is an absolute :func:`time.perf_counter` cutoff checked
        before each level and every :data:`DEADLINE_CHUNK` tests inside a
        round, so a tight wall-clock budget cannot overshoot by a whole
        level.  Budgeted discovery runs one task per call, which keeps the
        feature-at-a-time accounting of a global budget.
        """
        tracer = get_tracer()
        states = [
            _FeatureSearch(j, candidates, extra, marginal_p, prior, max_cond_size)
            for j, candidates, extra, marginal_p, prior in tasks
        ]
        active = [st for st in states if st.best_p < alpha]
        for stage in range(2 * max_cond_size + 1):
            if not active:
                break
            work = []
            for st in active:
                subsets = st.level(stage, max_cond_size)
                if not subsets:
                    continue
                if stage == 0:
                    if budget is not None and budget <= 0:
                        continue
                elif deadline is not None and time.perf_counter() >= deadline:
                    st.stop()
                    continue
                elif budget is not None:
                    remaining = budget - st.n_tests
                    if remaining <= 0:
                        st.stop()
                        continue
                    if len(subsets) > remaining:
                        subsets = subsets[:remaining]
                        st.truncated = True
                work.append((st, subsets))
            if work:
                self._run_round(work, stage, max_cond_size, alpha, deadline, tracer)
            active = [st for st in active if not st.done]
        return [
            (st.j, st.best_p, st.separating, st.n_tests, st.log, st.completed)
            for st in states
        ]

    def _run_round(self, work, stage, max_cond_size, alpha, deadline, tracer):
        """Score one round's ``(state, subsets)`` work and fold it per feature."""
        pairs = [(st.j, cols) for st, subsets in work for cols in subsets]
        if stage == 0:
            pool, level = "prior", 0
        elif stage <= max_cond_size:
            pool, level = "primary", stage
        else:
            pool, level = "fallback", stage - max_cond_size
        with tracer.span(
            "fs.ci_batch",
            stage="conditional",
            round=stage,
            pool=pool,
            level=level,
            n_features=len(work),
        ) as span:
            t0 = time.perf_counter()
            if deadline is None:
                ps = self.pvalues(pairs)
                scored = len(pairs)
            else:
                ps = np.empty(len(pairs))
                scored = 0
                for start in range(0, len(pairs), DEADLINE_CHUNK):
                    if start and time.perf_counter() >= deadline:
                        break
                    scored = min(start + DEADLINE_CHUNK, len(pairs))
                    ps[start:scored] = self.pvalues(pairs[start:scored])
            per_test = (time.perf_counter() - t0) / scored
            n_round = 0
            offset = 0
            for st, subsets in work:
                n_scored = min(len(subsets), max(0, scored - offset))
                before = st.n_tests
                cleared = st.fold(
                    subsets[:n_scored], ps[offset : offset + n_scored], per_test, alpha
                )
                n_round += st.n_tests - before
                offset += len(subsets)
                if cleared:
                    st.done = True
                elif n_scored < len(subsets) or st.truncated:
                    st.stop()
                elif stage == 0:
                    st.skip = frozenset(st.prior)
            span.tag(n_tests=n_round)

    def search_feature(
        self,
        j: int,
        candidates: tuple[int, ...],
        marginal_p: float,
        *,
        alpha: float,
        max_cond_size: int,
        budget: int | None = None,
        deadline: float | None = None,
        extra_candidates: tuple[int, ...] | None = None,
        prior_set: tuple[int, ...] | None = None,
    ) -> tuple[float, tuple[int, ...], int, TestLog, bool]:
        """:meth:`search` for one feature.

        Returns ``(best_p, separating_set, n_conditional_tests, log,
        completed)``.
        """
        task = (j, candidates, extra_candidates, marginal_p, prior_set)
        row = self.search(
            [task],
            alpha=alpha,
            max_cond_size=max_cond_size,
            budget=budget,
            deadline=deadline,
        )[0]
        return row[1:]


class _FeatureSearch:
    """One feature's subset-search state across the rounds of a search."""

    __slots__ = (
        "j", "candidates", "extra", "prior", "skip", "best_p", "separating",
        "n_tests", "log", "truncated", "done", "completed",
    )

    def __init__(self, j, candidates, extra, marginal_p, prior, max_cond_size):
        self.j = j
        self.candidates = tuple(candidates)
        self.extra = extra
        self.prior = (
            tuple(prior) if prior and len(prior) <= max_cond_size else None
        )
        self.skip: frozenset | None = None
        self.best_p = float(marginal_p)
        self.separating: tuple[int, ...] = ()
        self.n_tests = 0
        self.log: TestLog = []
        self.truncated = False
        self.done = False
        self.completed = True

    def level(self, stage: int, max_cond_size: int) -> list:
        """This feature's subsets for search round ``stage``."""
        if stage == 0:
            return [self.prior] if self.prior else []
        if stage <= max_cond_size:
            subsets = list(combinations(self.candidates, stage))
        elif self.extra:
            primary = set(self.candidates)
            subsets = [
                s
                for s in combinations(self.extra, stage - max_cond_size)
                if not primary.issuperset(s)
            ]
        else:
            return []
        if self.skip is not None:
            subsets = [s for s in subsets if frozenset(s) != self.skip]
        return subsets

    def fold(self, subsets, ps, per_test: float, alpha: float) -> bool:
        """Count tests up to the first clearing subset; True when one clears."""
        for cols, p in zip(subsets, ps):
            p = float(p)
            self.n_tests += 1
            self.log.append((len(cols), p, per_test))
            if p > self.best_p:
                self.best_p = p
                self.separating = cols
            if p >= alpha:
                return True
        return False

    def stop(self) -> None:
        """End the search incomplete (budget or deadline)."""
        self.done = True
        self.completed = False


# ---------------------------------------------------------------------------
# process-pool plumbing: each worker holds one engine over the shared
# matrices — attached zero-copy from shared memory when available, shipped
# once per worker via the pool initializer otherwise

_WORKER_ENGINE: CIEngine | None = None
_WORKER_PARAMS: dict | None = None


def _install_worker_engine(Xs, Xt, params: dict) -> None:
    global _WORKER_ENGINE, _WORKER_PARAMS
    stat_cache = None
    portable = params.get("stat_cache")
    if portable is not None:
        from repro.causal.warm import CIStatCache

        # each worker re-hydrates its own copy of the warm cache: entries
        # are read zero-risk (source-side state is immutable within a run)
        # and new entries accumulate worker-locally
        stat_cache = CIStatCache.from_portable(portable)
    _WORKER_ENGINE = CIEngine(
        Xs,
        Xt,
        stats_dtype=params["stats_dtype"],
        verify_alpha=params["alpha"],
        stat_cache=stat_cache,
    )
    _WORKER_PARAMS = {
        "alpha": params["alpha"],
        "max_cond_size": params["max_cond_size"],
    }


def init_search_worker(Xs, Xt, params: dict) -> None:
    """Pool initializer (pickling fallback): build this worker's engine once."""
    _install_worker_engine(Xs, Xt, params)


def init_search_worker_shm(meta: dict, params: dict) -> None:
    """Pool initializer: attach the shared-memory matrices zero-copy."""
    from repro.causal.shm import attach_arrays

    arrays = attach_arrays(meta)
    _install_worker_engine(arrays["Xs"], arrays["Xt"], params)


def search_chunk_worker(tasks):
    """Run :meth:`CIEngine.search` over a chunk of search tasks.

    Returns ``(rows, cache_stats_delta)``: the rows of
    :meth:`CIEngine.search` and this chunk's cache traffic (workers
    outlive chunks, so a snapshot diff keeps the parent-side aggregation
    double-count-free).
    """
    engine = _WORKER_ENGINE
    before = dict(engine.cache_stats)
    rows = engine.search(tasks, **_WORKER_PARAMS)
    delta = {k: engine.cache_stats[k] - before.get(k, 0) for k in engine.cache_stats}
    return rows, delta
