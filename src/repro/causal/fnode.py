"""F-node discovery: identifying soft-intervention targets across domains.

This module implements the paper's adaptation of the Ψ-FCI idea (Jaber et
al. 2020) to the two-domain network-telemetry setting:

1. Pool source samples (``F = 0``) and target samples (``F = 1``).
2. For every feature ``X`` test ``X ⊥ F | Pa(X)`` (Eq. 2 of the paper).
3. Features for which the test *rejects* are the intervention targets — the
   **domain-variant** features (Eq. 3/4).

Two engines are provided:

- :func:`discover_targets_pc` — run the full PC algorithm on the pooled data
  with the F-node included (exact, but only tractable for small feature
  counts; used in tests and the didactic example).
- :class:`FNodeDiscovery` — the scalable procedure used on the real
  workloads.  As §VI-D of the paper notes, only relationships *with the
  F-node* are needed, so instead of building the whole 442-node graph we
  approximate each feature's parent set with its most correlated source-
  domain features and run a single conditional test per feature.  This keeps
  the number of CI tests linear in the feature count.

The CI tests themselves run on :class:`repro.causal.engine.CIEngine`: the
size-0 tests for all features are one batched sweep, the conditional tests
share cached Cholesky factors per conditioning tuple, and the subset search
runs in cross-feature rounds — each round scores the next subset level of
every unresolved feature in one statistics pass.  A p-value depends on its
feature and conditioning set only, never on what it is batched with, so the
rounds, a one-feature-at-a-time search and the optional process-pool
fan-out (``n_jobs``, merged in feature order) report identical results.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.causal.ci_tests import (
    _observe_ci_test,
    fisher_z_test,
    regression_invariance_test,
)
from repro.causal.engine import (
    DEFAULT_RIDGE,
    CIEngine,
    init_search_worker,
    init_search_worker_shm,
    rank_candidates,
    resolve_n_jobs,
    search_chunk_worker,
)
from repro.causal.shm import create_shared_matrices
from repro.causal.pc import pc_algorithm
from repro.causal.warm import CIStatCache, WarmState, matrix_fingerprint
from repro.core.config import FSConfig
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.utils.errors import ValidationError
from repro.utils.validation import check_array

F_NODE = "F"

#: task chunks per pool worker: each chunk runs its own search rounds, so
#: fewer, larger chunks amortize the batched statistics while a few per
#: worker still even out features of unequal search cost
POOL_CHUNKS_PER_WORKER = 4


@dataclass
class FNodeResult:
    """Result of intervention-target discovery.

    Attributes
    ----------
    variant_indices / invariant_indices:
        Column indices of the domain-variant / domain-invariant features.
    p_values:
        Per-feature p-value for the ``X ⊥ F | Pa(X)`` test.
    parent_sets:
        The conditioning set used for every feature.
    n_tests:
        Total number of CI tests run (drives the running-time benchmark).
    coverage:
        Fraction of subset searches that ran to completion.  Always 1.0
        outside budgeted mode; under a test-count or wall-clock budget it
        reports how much of the full search the budget afforded.
    marginal_p_values:
        Per-feature *pre-search* marginal (size-0) p-values.  ``p_values``
        holds each feature's best p over all tested subsets, so the raw
        marginals are kept separately (they persist with the warm state).
        ``None`` on results produced before warm-start support (older
        artifacts).
    """

    variant_indices: np.ndarray
    invariant_indices: np.ndarray
    p_values: np.ndarray
    parent_sets: list[tuple[int, ...]] = field(default_factory=list)
    n_tests: int = 0
    coverage: float = 1.0
    marginal_p_values: np.ndarray | None = None

    @property
    def n_variant(self) -> int:
        return int(len(self.variant_indices))

    def variant_mask(self, n_features: int) -> np.ndarray:
        """Boolean mask over columns, True where domain-variant."""
        mask = np.zeros(n_features, dtype=bool)
        mask[self.variant_indices] = True
        return mask


class FNodeDiscovery:
    """Scalable discovery of soft-intervention targets (domain-variant features).

    For every feature ``X`` the procedure mirrors the PC skeleton phase for
    the single edge ``X — F``: candidate conditioning variables are the
    features most correlated with ``X`` in the source domain, and the edge is
    *removed* (X declared invariant) as soon as **any** conditioning subset
    ``S`` — including the empty set — makes ``X ⊥ F | S`` hold.  This subset
    search is what distinguishes the three causal roles correctly:

    - an intervention **target** stays dependent on F under every subset;
    - a **child** of a target is separated by conditioning on the (shifted)
      parent;
    - a **parent** of a target is separated by the empty set (its own
      marginal is untouched — children do not influence parents), which a
      fixed-conditioning-set test gets wrong.

    Every setting is a field of the one :class:`~repro.core.config.FSConfig`
    it is built from, which documents and validates them (``None`` means the
    defaults).
    """

    def __init__(self, config: FSConfig | None = None) -> None:
        self.config = config if config is not None else FSConfig()
        self.n_jobs = resolve_n_jobs(self.config.n_jobs)
        #: WarmState captured by the last discover()/rediscover() call —
        #: feed it to the next rediscover() (or persist it via the
        #: FeatureSeparator estimator state) to warm-start that run
        self.warm_state_: WarmState | None = None
        #: CI-engine cache counters of the last discover()/rediscover()
        #: call (design/beta/warm hits+misses plus warm invalidations) —
        #: the warm-cache effectiveness evidence `repro rediscover --json`
        #: reports
        self.cache_stats_: dict | None = None

    @property
    def _budgeted(self) -> bool:
        cfg = self.config
        return cfg.budget is not None or cfg.budget_seconds is not None

    def _candidates(self, corr: np.ndarray, j: int) -> tuple[int, ...]:
        """Top-``max_parents`` source-correlated features for column j."""
        cfg = self.config
        if cfg.max_parents == 0:
            return ()
        row = np.abs(corr[j]).copy()
        row[j] = 0.0
        row[~np.isfinite(row)] = 0.0
        order = np.argsort(row)[::-1][: cfg.max_parents]
        return tuple(int(k) for k in order if row[k] >= cfg.min_correlation)

    def discover(self, X_source, X_target) -> FNodeResult:
        """Identify intervention targets between the two domains.

        Both matrices must share the same feature order.  Works with as few
        as a handful of target samples (the few-shot regime): power simply
        drops, so fewer variant features are detected — the behaviour the
        paper reports in §VI-C (35/68/75 variants at 1/5/10 shots on 5GC).

        A cold run still accumulates a :class:`~repro.causal.warm.WarmState`
        (exposed as :attr:`warm_state_`) so the *next* run can warm-start.
        """
        return self._discover(X_source, X_target, None)

    def rediscover(self, X_source, X_target, warm: WarmState) -> FNodeResult:
        """Warm-start re-discovery after new few-shot target rows arrived.

        Composes the persistent CI-statistics cache with prior-guided
        search.  ``warm`` is the :attr:`warm_state_` of a previous
        discover/rediscover over the *same source matrix* (typically with a
        smaller target set); on any guard mismatch — changed source rows,
        different feature count — the run falls back to a cold discovery
        (and counts the dropped cache entries as invalidations), so
        ``rediscover`` never returns worse results than ``discover``.

        The variant set is always identical to a cold run's: the marginal
        sweep is re-run in full, the byte-for-byte-valid source-side cache
        entries are reused, and each feature's previous separating set is
        tested first, in the search's round 0 (with the full enumeration as
        fallback — the pruning contract).  ``cache_stats_["mode"]`` reports
        ``"exact"`` for a warm run and ``"cold"`` for a fallback.
        """
        if warm is None:
            raise ValidationError(
                "rediscover requires a WarmState; use discover() for cold runs"
            )
        return self._discover(X_source, X_target, warm)

    def _params_key(self) -> dict:
        """Discovery parameters recorded in the warm state (provenance)."""
        cfg = self.config
        return {
            "alpha": float(cfg.alpha),
            "max_parents": int(cfg.max_parents),
            "max_cond_size": int(cfg.max_cond_size),
            "min_correlation": float(cfg.min_correlation),
            "ridge": DEFAULT_RIDGE,
            "stats_dtype": str(cfg.stats_dtype),
            "prune_k": None if cfg.prune_k is None else int(cfg.prune_k),
            "prune_exact": bool(cfg.prune_exact),
        }

    def _resolve_warm(self, warm, d, src_fp):
        """Gate the warm state behind its validity guards.

        Returns ``(priors, stat_cache, invalidated)``.
        ``priors`` is ``None`` (cold fallback) unless the warm state
        describes this exact source matrix and feature count; the cache is
        dropped — its entries counted as invalidated — unless its (ridge,
        dtype, source-fingerprint) guards match byte-for-byte reuse.  A
        fresh empty cache is attached otherwise so this run captures state
        for the next one.
        """
        priors = None
        cache = None
        invalidated = 0
        if warm is not None:
            old = warm.cache
            if old is not None and old.matches(
                ridge=DEFAULT_RIDGE,
                stats_dtype=self.config.stats_dtype,
                source_fingerprint=src_fp,
            ):
                cache = old
            elif old is not None:
                invalidated = old.invalidate()
            p = warm.priors
            if (
                p is not None
                and warm.n_features == d
                and len(p.p_values) == d
                and warm.source_fingerprint == src_fp
            ):
                priors = p
        if cache is None:
            cache = CIStatCache(
                ridge=DEFAULT_RIDGE,
                stats_dtype=self.config.stats_dtype,
                source_fingerprint=src_fp,
            )
        return priors, cache, invalidated

    def _prior_set(
        self, priors: FNodeResult, j: int, pool: tuple[int, ...]
    ) -> tuple[int, ...] | None:
        """Feature ``j``'s previous separating/closest-to-clearing set.

        Only returned when the cold search over ``pool`` (the *effective*
        enumerated pool) would have tested it anyway — the guard that keeps
        prior-seeded search decision-exact.
        """
        sets = priors.parent_sets
        if j >= len(sets):
            return None
        prior = tuple(int(c) for c in sets[j])
        if not prior or len(prior) > self.config.max_cond_size:
            return None
        if not set(prior).issubset(pool):
            return None
        return prior

    def _discover(self, X_source, X_target, warm) -> FNodeResult:
        X_source = check_array(X_source, name="X_source", min_samples=4)
        X_target = check_array(X_target, name="X_target", min_samples=2)
        if X_source.shape[1] != X_target.shape[1]:
            raise ValidationError(
                f"domains disagree on feature count: "
                f"{X_source.shape[1]} vs {X_target.shape[1]}"
            )
        d = X_source.shape[1]
        # source-domain correlation matrix for conditioning-candidate proxies;
        # constant columns yield NaN rows that _candidates() zeroes out
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.corrcoef(X_source, rowvar=False)
        if d == 1:
            corr = np.array([[1.0]])
        self.warm_state_ = None
        src_fp = matrix_fingerprint(X_source)
        priors, stat_cache, invalidated = self._resolve_warm(warm, d, src_fp)
        mode = "cold" if priors is None else "exact"
        cfg = self.config
        engine = CIEngine(
            X_source,
            X_target,
            stats_dtype=cfg.stats_dtype,
            verify_alpha=cfg.alpha,
            stat_cache=stat_cache,
        )
        registry = get_metrics()
        tracer = get_tracer()
        budgeted = self._budgeted

        # the FS span decomposes into CI-test-batch child spans (the batched
        # marginal sweep, then one span per search round, split into
        # residual assembly and scoring) so a trace shows where the
        # dominant (§VI-D) discovery cost goes
        with tracer.span(
            "fs.discover", n_features=d, n_jobs=self.n_jobs, warm=mode
        ) as fs_span:
            t0 = time.perf_counter()
            with tracer.span(
                "fs.ci_batch", feature_start=0, feature_stop=d, stage="marginal"
            ) as marginal_span:
                p_values = engine.marginal_pvalues().copy()
                marginal_span.tag(n_tests=d)
            if registry.enabled:
                per_test = (time.perf_counter() - t0) / max(d, 1)
                for p in p_values:
                    _observe_ci_test(registry, "invariance", 0, float(p), per_test)
            n_tests = d
            marginal = p_values.copy()
            parent_sets: list[tuple[int, ...]] = [() for _ in range(d)]

            # only features failing the marginal test enter the subset search;
            # each task is (j, primary candidates, fallback candidates, p,
            # prior separating set or None)
            tasks = []
            if cfg.max_parents > 0 and cfg.max_cond_size > 0:
                for j in np.nonzero(p_values < cfg.alpha)[0]:
                    j = int(j)
                    pool = self._candidates(corr, j)
                    if not pool:
                        continue
                    primary, extra = self._prune(corr, p_values, j, pool, budgeted)
                    prior_set = None
                    if priors is not None:
                        effective = extra if extra is not None else primary
                        prior_set = self._prior_set(priors, j, effective)
                    tasks.append((j, primary, extra, float(p_values[j]), prior_set))
            if budgeted:
                # closest-to-clearing first: a deterministic order in which
                # tight budgets spend their tests where clears are cheapest,
                # and any budget's tests are a prefix of a larger budget's
                tasks.sort(key=lambda t: (-t[3], t[0]))
            searched, coverage = self._search(engine, tasks, tracer)
            for j, best_p, separating, n_cond, log, _completed in searched:
                p_values[j] = best_p
                parent_sets[j] = separating
                n_tests += n_cond
                if registry.enabled:
                    for cond_size, p, seconds in log:
                        _observe_ci_test(registry, "invariance", cond_size, p, seconds)
            fs_span.tag(
                n_tests=n_tests,
                warm_hits=engine.cache_stats["warm_hits"],
                warm_misses=engine.cache_stats["warm_misses"],
            )

        variant = np.where(p_values < cfg.alpha)[0]
        invariant = np.where(p_values >= cfg.alpha)[0]
        if registry.enabled:
            registry.counter("fs_discoveries_total").inc()
            registry.gauge("fs_n_variant").set(len(variant))
            registry.gauge("fs_n_features").set(d)
            stats = engine.cache_stats
            for kind in ("design", "beta", "warm"):
                registry.counter("fs.cache.hits_total", cache=kind).inc(
                    stats[f"{kind}_hits"]
                )
                registry.counter("fs.cache.misses_total", cache=kind).inc(
                    stats[f"{kind}_misses"]
                )
            registry.counter("fs.cache.invalidated_total", cache="warm").inc(
                invalidated
            )
        result = FNodeResult(
            variant_indices=variant,
            invariant_indices=invariant,
            p_values=p_values,
            parent_sets=parent_sets,
            n_tests=n_tests,
            coverage=coverage,
            marginal_p_values=marginal,
        )
        self.warm_state_ = WarmState(
            priors=result,
            cache=stat_cache,
            source_fingerprint=src_fp,
            n_features=d,
            params=self._params_key(),
        )
        self.cache_stats_ = {
            **{k: int(v) for k, v in engine.cache_stats.items()},
            "warm_invalidated": int(invalidated),
            "warmed": warm is not None,
            "mode": mode,
        }
        return result

    def _prune(
        self,
        corr: np.ndarray,
        marginal_p: np.ndarray,
        j: int,
        pool: tuple[int, ...],
        budgeted: bool,
    ) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
        """Split feature ``j``'s candidate pool into (primary, fallback).

        Without pruning or budgeting the pool passes through untouched, so
        subset enumeration order — and therefore every reported p-value —
        is bit-identical to the unpruned engine.  With ``prune_k`` the top-k
        candidates by effect size form the primary pool; in exact mode the
        full pool becomes the fallback searched only if the primary pool
        never separates ``j``.  Budgeted runs rank the pool even when not
        pruning so a tight budget tries the most promising subsets first.
        """
        prune_k = self.config.prune_k
        if prune_k is None:
            if budgeted:
                return rank_candidates(corr[j], marginal_p, pool), None
            return pool, None
        ranked = rank_candidates(corr[j], marginal_p, pool)
        if len(ranked) <= prune_k:
            return ranked, None
        return ranked[:prune_k], (ranked if self.config.prune_exact else None)

    def _search(self, engine, tasks, tracer) -> tuple[list, float]:
        """Run the conditional subset searches, serially or in a process pool.

        Returns ``(rows, coverage)`` where each row is ``(j, best_p,
        separating, n_tests, log, completed)``.  Unbudgeted searches run in
        cross-feature rounds (:meth:`CIEngine.search`), in this process or
        over contiguous task chunks in a process pool; every p-value is a
        function of ``(j, S)`` only, so the grouping cannot change a result.
        Budgeted runs (test-count or wall-clock) are serial and search one
        feature per call: the budget is a global countdown spent in task
        order.
        """
        if not tasks:
            return [], 1.0
        cfg = self.config
        search = {"alpha": cfg.alpha, "max_cond_size": cfg.max_cond_size}
        if self._budgeted:
            results: list = []
            remaining = cfg.budget
            deadline = (
                time.perf_counter() + cfg.budget_seconds
                if cfg.budget_seconds is not None
                else None
            )
            for task in tasks:
                row = engine.search(
                    [task], budget=remaining, deadline=deadline, **search
                )[0]
                results.append(row)
                if remaining is not None:
                    remaining -= row[3]
            coverage = sum(1 for row in results if row[5]) / len(tasks)
            return results, coverage
        if self.n_jobs == 1:
            return engine.search(tasks, **search), 1.0
        size = -(-len(tasks) // (POOL_CHUNKS_PER_WORKER * self.n_jobs))
        chunks = [tasks[start : start + size] for start in range(0, len(tasks), size)]
        params = {
            **search,
            "stats_dtype": cfg.stats_dtype,
            # warm entries ride to every worker (read side); workers' new
            # entries stay worker-local — only the serial path accumulates
            # a complete cache for the next run
            "stat_cache": (
                engine.stat_cache.to_portable()
                if engine.stat_cache is not None
                else None
            ),
        }
        shared = (
            create_shared_matrices({"Xs": engine.Xs64, "Xt": engine.Xt64})
            if cfg.use_shared_memory
            else None
        )
        results = []
        try:
            if shared is not None:
                initializer, initargs = init_search_worker_shm, (shared.meta(), params)
            else:  # shared memory unavailable: ship the matrices pickled
                initializer, initargs = (
                    init_search_worker,
                    (engine.Xs64, engine.Xt64, params),
                )
            with tracer.span(
                "fs.ci_batch",
                feature_start=tasks[0][0],
                feature_stop=tasks[-1][0] + 1,
                stage="conditional",
                n_jobs=self.n_jobs,
                shared_memory=shared is not None,
            ) as batch_span:
                with ProcessPoolExecutor(
                    max_workers=min(self.n_jobs, len(chunks)),
                    initializer=initializer,
                    initargs=initargs,
                ) as pool:
                    for chunk_rows, stats_delta in pool.map(
                        search_chunk_worker, chunks
                    ):
                        results.extend(chunk_rows)
                        engine.merge_cache_stats(stats_delta)
                batch_span.tag(n_tests=sum(row[3] for row in results))
        finally:
            # unlink even on BrokenProcessPool so /dev/shm cannot leak
            if shared is not None:
                shared.close()
        return results, 1.0


def _mixed_ci_test(f_col: int):
    """CI test for pooled data where column ``f_col`` is the binary F-node.

    Dispatches to :func:`regression_invariance_test` whenever the pair
    involves F, otherwise to Fisher-z.
    """

    def test(data: np.ndarray, i: int, j: int, cond: tuple[int, ...]) -> float:
        if f_col in (i, j):
            x_col = j if i == f_col else i
            f = data[:, f_col].astype(bool)
            z_cols = [c for c in cond if c != f_col]
            z_s = data[np.ix_(~f, z_cols)] if z_cols else None
            z_t = data[np.ix_(f, z_cols)] if z_cols else None
            return regression_invariance_test(
                data[~f, x_col], data[f, x_col], z_s, z_t
            )
        return fisher_z_test(data, i, j, cond)

    return test


def discover_targets_pc(
    X_source,
    X_target,
    *,
    alpha: float = 0.05,
    max_cond_size: int = 2,
    feature_names: list | None = None,
) -> tuple[FNodeResult, "object"]:
    """Exact Ψ-FCI-style discovery: full PC on the pooled data with an F-node.

    Returns ``(result, pc_result)`` where ``pc_result.graph`` is the learned
    CPDAG.  Only tractable for small feature counts (tests, examples); the
    scalable path is :class:`FNodeDiscovery`.
    """
    X_source = check_array(X_source, name="X_source", min_samples=4)
    X_target = check_array(X_target, name="X_target", min_samples=2)
    if X_source.shape[1] != X_target.shape[1]:
        raise ValidationError("domains disagree on feature count")
    d = X_source.shape[1]
    names = feature_names if feature_names is not None else list(range(d))
    if len(names) != d:
        raise ValidationError("feature_names length must match feature count")
    pooled = np.vstack([X_source, X_target])
    f_column = np.concatenate(
        [np.zeros(X_source.shape[0]), np.ones(X_target.shape[0])]
    )
    data = np.column_stack([pooled, f_column])
    nodes = list(names) + [F_NODE]
    pc_result = pc_algorithm(
        data,
        nodes,
        alpha=alpha,
        max_cond_size=max_cond_size,
        ci_test=_mixed_ci_test(d),
        forbidden_cond={F_NODE},
        exogenous={F_NODE},
    )
    variant_names = pc_result.graph.neighbors(F_NODE)
    name_to_idx = {name: k for k, name in enumerate(names)}
    variant = np.array(sorted(name_to_idx[v] for v in variant_names), dtype=np.int64)
    invariant = np.setdiff1d(np.arange(d), variant)
    p_values = np.ones(d)
    p_values[variant] = 0.0  # PC gives adjacency, not per-feature p-values
    result = FNodeResult(
        variant_indices=variant,
        invariant_indices=invariant,
        p_values=p_values,
        parent_sets=[],
        n_tests=pc_result.n_tests,
    )
    return result, pc_result
