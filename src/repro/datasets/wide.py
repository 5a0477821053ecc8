"""Synthetic drift pairs of any width (see :func:`make_wide_pair`)."""

from __future__ import annotations

import numpy as np

#: features per causal group in the wide generator (1 drifted parent,
#: 5 children separated by conditioning on it, 2 independent noise columns)
_WIDE_GROUP = 8


def make_wide_pair(
    n_features: int,
    *,
    n_source: int = 480,
    n_target: int = 120,
    drift: float = 1.2,
    random_state: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic (source, target) matrices of exactly ``n_features`` columns.

    The 5GC generator's width is tied to its infra/KPI group structure, so
    it cannot hit arbitrary widths; this generator exists to measure FS
    *scaling* with exact width control.  Features come in groups of
    :data:`_WIDE_GROUP` with the three causal roles discovery must tell
    apart: a **parent** whose mechanism drifts in the target (an
    intervention target — no conditioning subset clears it), five
    **children** of that parent (marginally drifted, separated by
    conditioning on the parent), and two independent **noise** columns
    (cleared by the marginal sweep).  A trailing partial group is filled
    with noise columns so any width is reachable.
    """
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    rng = np.random.default_rng(random_state)

    def domain(n_rows: int, drifted: bool) -> np.ndarray:
        X = np.empty((n_rows, n_features))
        for start in range(0, n_features, _WIDE_GROUP):
            width = min(_WIDE_GROUP, n_features - start)
            parent = rng.standard_normal(n_rows)
            if drifted:
                parent = parent + drift  # soft intervention: mean shift
            cols = [parent]
            for child in range(1, max(width - 2, 1)):
                # fixed cross-domain mechanism: invariant given the parent.
                # the unit noise keeps siblings from jointly reconstructing
                # the parent, which would spuriously clear the true target
                noise = rng.standard_normal(n_rows)
                weight = 0.75 + 0.05 * (child % 3)
                cols.append(weight * parent + noise)
            while len(cols) < width:
                cols.append(rng.standard_normal(n_rows))
            X[:, start : start + width] = np.column_stack(cols[:width])
        return X

    return domain(n_source, drifted=False), domain(n_target, drifted=True)
