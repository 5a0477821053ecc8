"""The pre-engine FS discovery loop, frozen as an equivalence oracle.

The batched, cached :class:`~repro.causal.engine.CIEngine` path must
reproduce its p-values, parent sets, test count and variant decisions
(``tests/test_causal_engine.py::TestReferenceEquivalence``).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.causal.ci_tests import regression_invariance_test
from repro.causal.fnode import FNodeDiscovery, FNodeResult
from repro.core.config import FSConfig


def reference_discover(
    X_source, X_target, *, config: FSConfig | None = None
) -> FNodeResult:
    """The pre-engine FS discovery loop.

    One scalar :func:`regression_invariance_test` per (feature, subset),
    with the same candidate sets and first-clearing-subset early break as
    :class:`FNodeDiscovery` — only the batching/caching differs.
    """
    config = config or FSConfig()
    disc = FNodeDiscovery(config)
    X_source = np.ascontiguousarray(X_source, dtype=np.float64)
    X_target = np.ascontiguousarray(X_target, dtype=np.float64)
    d = X_source.shape[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(X_source, rowvar=False)
    if d == 1:
        corr = np.array([[1.0]])
    p_values = np.zeros(d)
    parent_sets: list[tuple[int, ...]] = []
    n_tests = 0
    for j in range(d):
        candidates = disc._candidates(corr, j)
        best_p, separating = 0.0, ()
        for size in range(0, config.max_cond_size + 1):
            cleared = False
            for subset in combinations(candidates, size):
                cols = list(subset)
                z_s = X_source[:, cols] if cols else None
                z_t = X_target[:, cols] if cols else None
                p = regression_invariance_test(
                    X_source[:, j], X_target[:, j], z_s, z_t
                )
                n_tests += 1
                if p > best_p:
                    best_p, separating = p, subset
                if p >= config.alpha:
                    cleared = True
                    break
            if cleared:
                break
        p_values[j] = best_p
        parent_sets.append(separating)
    variant = np.where(p_values < config.alpha)[0]
    invariant = np.where(p_values >= config.alpha)[0]
    return FNodeResult(
        variant_indices=variant,
        invariant_indices=invariant,
        p_values=p_values,
        parent_sets=parent_sets,
        n_tests=n_tests,
    )
