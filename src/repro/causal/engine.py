"""Vectorized + parallel CI-test engine for F-node discovery.

The paper's runtime analysis (§VI-D) shows the FS step dominates end-to-end
cost, almost entirely in conditional-independence tests.  This module is the
performance layer behind :class:`repro.causal.FNodeDiscovery`:

- :meth:`CIEngine.marginal_pvalues` computes the size-0 ``X ⊥ F`` test for
  *every* feature in one batched Welch-t + Kolmogorov–Smirnov sweep over the
  column axis — on drifted data most features clear immediately, so this
  single sweep removes the bulk of the per-feature Python-loop iterations.
- :meth:`CIEngine.conditional_pvalues` serves the conditional tests with a
  per-conditioning-tuple cache of design matrices and Cholesky factors and
  a per-``(tuple, feature)`` ridge solve: each beta is one ``cho_solve``
  over a single right-hand side, so the per-tuple cost does not scale with
  the total feature count.
- ``stats_dtype="float32"`` runs the whole statistics path — design
  matrices, Cholesky factors, residuals, batched test statistics — in
  float32, then re-verifies every p-value within ``alpha / 2`` of the
  decision threshold in float64, so variant *decisions* match the float64
  path (see EXPERIMENTS.md for the policy).
- :meth:`CIEngine.search_feature` supports candidate-pool pruning (a
  primary pool searched first, an optional fallback pool searched only if
  the primary pool never separates the feature — decision-exact, see
  :class:`repro.causal.FNodeDiscovery`) and anytime budgets (test-count
  and wall-clock) with sequential-equivalent test accounting.
- :func:`search_chunk_worker` is the process-pool entry point used by
  ``FSConfig(n_jobs=...)``; workers attach the matrices zero-copy
  from shared memory (:mod:`repro.causal.shm`) or, as a fallback, receive
  them pickled once per worker — either way each worker builds its own
  engine over the same matrices, so serial and parallel runs are
  bit-identical.

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
from repro.utils.errors import ValidationError

#: ridge strength of every conditional regression (matches
#: :func:`repro.causal.ci_tests.regression_invariance_test`)
DEFAULT_RIDGE = 1e-3

#: supported statistics dtypes (FSConfig.stats_dtype)
STATS_DTYPES = ("float64", "float32")

#: one log row per counted CI test: (cond_size, p_value, seconds)
TestLog = list

#: subsets per deadline poll inside one search level — small enough that a
#: wall-clock budget cannot overshoot by a whole feature's subset search,
#: large enough to keep the batched statistics amortized
DEADLINE_CHUNK = 32


def batch_welch_t_pvalues(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Two-sided Welch t-test p-value per column of ``A`` (n1, m) vs ``B`` (n2, m).

    Mirrors ``scipy.stats.ttest_ind(a, b, equal_var=False)`` column-wise:
    Satterthwaite degrees of freedom, NaN where the statistic is undefined.
    """
    n1, n2 = A.shape[0], B.shape[0]
    m1, m2 = A.mean(axis=0), B.mean(axis=0)
    vn1 = A.var(axis=0, ddof=1) / n1
    vn2 = B.var(axis=0, ddof=1) / n2
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (vn1 + vn2) ** 2 / (vn1**2 / (n1 - 1) + vn2**2 / (n2 - 1))
        df = np.where(np.isnan(df), 1.0, df)
        t = (m1 - m2) / np.sqrt(vn1 + vn2)
        return 2.0 * stats.t.sf(np.abs(t), df)


def batch_ks_pvalues(
    A: np.ndarray, B: np.ndarray, *, exact: bool = True
) -> np.ndarray:
    """Two-sample KS asymptotic p-value per column, as ``ks_2samp(method="asymp")``.

    The D statistics are computed with the same searchsorted construction as
    scipy (bit-identical); with ``exact=True`` the p-value is the
    Kolmogorov-Smirnov survival function at the scipy-rounded effective
    sample size — bit-identical to scipy, but at few-shot sample sizes that
    routes into scipy's exact small-``n`` Pomeranz evaluation, which
    dominates discovery wall-clock.  ``exact=False`` (the float32 fast
    path) evaluates the limiting Kolmogorov distribution at the
    Stephens-corrected argument instead — within ~1e-3 of the exact tail
    for the sample sizes used here, orders of magnitude cheaper, and always
    paired with a float64 exact re-check of near-threshold p-values.
    """
    n1, n2 = A.shape[0], B.shape[0]
    a = np.sort(A, axis=0)
    b = np.sort(B, axis=0)
    d = np.empty(A.shape[1])
    for k in range(A.shape[1]):
        data_all = np.concatenate([a[:, k], b[:, k]])
        cdf1 = np.searchsorted(a[:, k], data_all, side="right") / n1
        cdf2 = np.searchsorted(b[:, k], data_all, side="right") / n2
        diffs = cdf1 - cdf2
        d[k] = max(np.clip(-diffs.min(), 0, 1), diffs.max())
    return ks_pvalue(d, n1, n2, mode="exact" if exact else "stephens")


def combined_invariance_pvalues(
    res_s: np.ndarray, res_t: np.ndarray, *, ks_exact: bool = True
) -> np.ndarray:
    """Bonferroni-combined Welch-t + KS p-value per residual column.

    Column-wise replica of the combination logic in
    :func:`repro.causal.ci_tests.regression_invariance_test`: non-finite
    component p-values are dropped, ``min(1, min(p) * n_valid)`` combines the
    survivors, and columns constant in both domains compare the constants.
    ``ks_exact`` is forwarded to :func:`batch_ks_pvalues`.
    """
    p_t = batch_welch_t_pvalues(res_s, res_t)
    p_ks = batch_ks_pvalues(res_s, res_t, exact=ks_exact)
    P = np.stack([p_t, p_ks])
    finite = np.isfinite(P)
    n_valid = finite.sum(axis=0)
    p_min = np.where(finite, P, np.inf).min(axis=0)
    with np.errstate(invalid="ignore"):
        out = np.where(n_valid == 0, 1.0, np.minimum(1.0, p_min * n_valid))
    both_const = (res_s.std(axis=0) == 0) & (res_t.std(axis=0) == 0)
    if np.any(both_const):
        agree = np.isclose(
            res_s.mean(axis=0, dtype=np.float64),
            res_t.mean(axis=0, dtype=np.float64),
        )
        out = np.where(both_const, np.where(agree, 1.0, 0.0), out)
    return out


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
    share correlated parents) are nearly free.

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
        # cols -> (Zs, Zt, Cholesky factor of the ridge Gram matrix)
        self._designs: dict[tuple[int, ...], tuple] = {}
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

        On the float32 path, borderline features (within ``verify_alpha / 2``
        of ``verify_alpha``) are recomputed from the float64 masters.
        """
        if self._marginal is None:
            if self.Xs.shape[0] < 3 or self.Xt.shape[0] < 2:
                self._marginal = np.ones(self.n_features)
            else:
                ps = combined_invariance_pvalues(
                    self.Xs, self.Xt, ks_exact=not self._verifies
                )
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
        """Cached ``(Zs, Zt, factor)`` for a conditioning tuple.

        ``factor`` is the Cholesky factor of the ridge Gram matrix; betas
        are solved per feature on demand.
        """
        entry = self._designs.get(cols)
        if entry is not None:
            self.cache_stats["design_hits"] += 1
            return entry
        self.cache_stats["design_misses"] += 1
        idx = list(cols)
        dt = self.stats_dtype
        Zs = np.column_stack(
            [np.ones(self.Xs.shape[0], dtype=dt), self.Xs[:, idx]]
        )
        Zt = np.column_stack(
            [np.ones(self.Xt.shape[0], dtype=dt), self.Xt[:, idx]]
        )
        factor = None
        if self.stat_cache is not None:
            factor = self.stat_cache.get_factor(cols)
            key = "warm_hits" if factor is not None else "warm_misses"
            self.cache_stats[key] += 1
        if factor is None:
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
        entry = (Zs, Zt, factor)
        self._designs[cols] = entry
        return entry

    def _beta(self, cols: tuple[int, ...], j: int) -> np.ndarray:
        """Ridge coefficients of feature ``j`` on conditioning tuple ``cols``."""
        Zs, _, factor = self._design(cols)
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
        beta = cho_solve(factor, Zs.T @ self.Xs[:, j])
        per_feature[j] = beta
        if self.stat_cache is not None:
            self.stat_cache.put_beta(cols, j, beta)
        return beta

    def conditional_pvalues(
        self, j: int, subsets: list[tuple[int, ...]]
    ) -> np.ndarray:
        """p-values for ``X_j ⊥ F | S`` for every subset S, batched.

        Residuals for all subsets are assembled into one matrix and pushed
        through a single batched Welch-t + KS pass.  On the float32 path,
        borderline subsets are recomputed in float64.
        """
        if self.Xs.shape[0] < 3 or self.Xt.shape[0] < 2:
            return np.ones(len(subsets))
        xs = self.Xs[:, j]
        xt = self.Xt[:, j]
        res_s = np.empty((self.Xs.shape[0], len(subsets)), dtype=self.stats_dtype)
        res_t = np.empty((self.Xt.shape[0], len(subsets)), dtype=self.stats_dtype)
        for k, cols in enumerate(subsets):
            Zs, Zt, _ = self._design(cols)
            beta = self._beta(cols, j)
            rs = (
                self.stat_cache.get_residual(cols, j)
                if self.stat_cache is not None
                else None
            )
            if rs is None:
                rs = xs - Zs @ beta
                if self.stat_cache is not None:
                    self.stat_cache.put_residual(cols, j, rs)
            res_s[:, k] = rs
            res_t[:, k] = xt - Zt @ beta
        ps = combined_invariance_pvalues(res_s, res_t, ks_exact=not self._verifies)
        if self._verifies:
            near = self._borderline(ps)
            if near.size:
                ps[near] = self._verifier().conditional_pvalues(
                    j, [subsets[int(i)] for i in near]
                )
        return ps

    # -- per-feature subset search -------------------------------------------

    @staticmethod
    def _subset_levels(
        candidates: tuple[int, ...],
        extra_candidates: tuple[int, ...] | None,
        max_cond_size: int,
    ):
        """Yield subset batches: primary pool first, then the fallback pool.

        Fallback levels enumerate subsets of ``extra_candidates`` that are
        *not* contained in the primary pool (those were already tested), so
        a feature that never separates still sees every subset of the full
        pool — the decision-exactness guarantee of pruned search.
        """
        for size in range(1, max_cond_size + 1):
            subsets = list(combinations(candidates, size))
            if subsets:
                yield size, subsets
        if extra_candidates:
            primary = set(candidates)
            for size in range(1, max_cond_size + 1):
                subsets = [
                    s
                    for s in combinations(extra_candidates, size)
                    if not primary.issuperset(s)
                ]
                if subsets:
                    yield size, subsets

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
        """PC-style subset search for one feature's edge to the F-node.

        Returns ``(best_p, separating_set, n_conditional_tests, log,
        completed)`` with the exact early-break semantics of the per-feature
        reference loop: subsets are scored level-batched, but only the prefix
        up to (and including) the first clearing subset counts toward
        ``n_tests`` / ``best_p`` / the observation log, so results and test
        counts match the sequential search.

        ``budget`` caps the number of *counted* conditional tests (anytime
        mode: the search stops mid-stream with ``completed=False``);
        ``deadline`` is an absolute :func:`time.perf_counter` cutoff checked
        between level batches *and* every :data:`DEADLINE_CHUNK` subsets
        inside a level, so a tight wall-clock budget cannot overshoot by a
        whole feature's enumeration.  ``extra_candidates`` enables the
        two-phase pruned search described in :meth:`_subset_levels`.

        ``prior_set`` (warm re-discovery) is a conditioning set confirmed to
        separate this feature in a previous run: it is tested *first* and
        short-circuits the search when it still clears ``alpha``.  Because
        the set is required to be a subset of the candidate pool, the full
        enumeration would have tested it anyway — a clear implies the cold
        search also finds *some* clearing subset, so the variant decision is
        unchanged (the same fallback contract as pruning).  When it no
        longer clears, the full enumeration proceeds (skipping only the
        duplicate test).
        """
        best_p = float(marginal_p)
        separating: tuple[int, ...] = ()
        n_tests = 0
        log: TestLog = []
        completed = True
        if best_p >= alpha:
            return best_p, separating, n_tests, log, completed
        skip = None
        if prior_set and len(prior_set) <= max_cond_size and (
            budget is None or budget > 0
        ):
            prior_set = tuple(prior_set)
            t0 = time.perf_counter()
            p = float(self.conditional_pvalues(j, [prior_set])[0])
            n_tests += 1
            log.append((len(prior_set), p, time.perf_counter() - t0))
            if p > best_p:
                best_p = p
                separating = prior_set
            if p >= alpha:
                return best_p, separating, n_tests, log, completed
            skip = frozenset(prior_set)
        for size, subsets in self._subset_levels(
            candidates, extra_candidates, max_cond_size
        ):
            if skip is not None and size == len(skip):
                subsets = [s for s in subsets if frozenset(s) != skip]
                if not subsets:
                    continue
            if deadline is not None and time.perf_counter() >= deadline:
                completed = False
                break
            truncated = False
            if budget is not None:
                remaining = budget - n_tests
                if remaining <= 0:
                    completed = False
                    break
                if len(subsets) > remaining:
                    subsets = subsets[:remaining]
                    truncated = True
            batches = (
                [subsets]
                if deadline is None
                else [
                    subsets[start : start + DEADLINE_CHUNK]
                    for start in range(0, len(subsets), DEADLINE_CHUNK)
                ]
            )
            cleared = False
            expired = False
            for b, batch in enumerate(batches):
                if b > 0 and time.perf_counter() >= deadline:
                    expired = True
                    break
                t0 = time.perf_counter()
                ps = self.conditional_pvalues(j, batch)
                per_test = (time.perf_counter() - t0) / len(batch)
                above = np.nonzero(ps >= alpha)[0]
                cleared = above.size > 0
                n_counted = int(above[0]) + 1 if cleared else len(batch)
                for idx in range(n_counted):
                    p = float(ps[idx])
                    n_tests += 1
                    log.append((size, p, per_test))
                    if p > best_p:
                        best_p = p
                        separating = batch[idx]
                if cleared:
                    break
            if expired:
                completed = False
                break
            if cleared:
                break
            if truncated:
                completed = False
                break
        return best_p, separating, n_tests, log, completed


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
    """Run :meth:`CIEngine.search_feature` for a chunk of search tasks.

    Each task is ``(j, candidates, extra_candidates, marginal_p,
    prior_set)``; returns ``(rows, cache_stats_delta)`` where each row is
    ``(j, best_p, separating, n_tests, log, completed)`` and the delta is
    this chunk's cache traffic (workers outlive chunks, so a snapshot diff
    keeps the parent-side aggregation double-count-free).
    """
    engine, params = _WORKER_ENGINE, _WORKER_PARAMS
    before = dict(engine.cache_stats)
    rows = [
        (j,)
        + engine.search_feature(
            j,
            candidates,
            marginal_p,
            extra_candidates=extra,
            prior_set=prior_set,
            **params,
        )
        for j, candidates, extra, marginal_p, prior_set in tasks
    ]
    delta = {k: engine.cache_stats[k] - before.get(k, 0) for k in engine.cache_stats}
    return rows, delta
