"""Warm-start state for incremental F-node re-discovery.

The drift-mitigation loop is inherently repeated: every drift event re-runs
discovery on a pooled matrix that differs from the previous run only by a
handful of few-shot target rows.  Two observations make re-runs cheap:

1. **The expensive CI-test state depends on the source domain only.**  The
   regression-invariance test fits X on Z with *source* samples (the
   observational mechanism), so design matrices, Gram/Cholesky factors,
   per-feature ridge betas and source residuals are all byte-for-byte
   reusable across runs as long as the source matrix is unchanged — only
   the cheap target-side residuals and the final two-sample statistics
   involve the new rows.  :class:`CIStatCache` persists exactly that state,
   keyed by conditioning tuple and guarded by a content fingerprint of the
   source matrix: a re-run with changed source rows invalidates everything
   (every entry derives from those rows), a re-run with only new target
   shots invalidates nothing.

2. **The previous run's decisions are strong priors.**  :class:`WarmState`
   couples the cache with the previous :class:`~repro.causal.fnode.FNodeResult`
   (including the pre-search marginal p-values) so
   :meth:`~repro.causal.fnode.FNodeDiscovery.rediscover` can test old
   separating sets first, in the search's round 0.  Neither shortcut
   changes a decision: the marginal sweep is always re-run and a prior set
   that no longer clears falls back to the full enumeration, so the variant
   set equals a cold run's.

Both classes serialize to the flat ``{name: ndarray}`` + ``__meta__`` layout
of the estimator protocol, so the warm state rides inside v2 artifact
bundles (``allow_pickle=False``) and a daemon-triggered refit can warm-start
from disk.  The cache is *packed* (layout version 2): per entry family
(factors, betas, residuals) one int key table (conditioning tuple padded
with -1, led by the feature ``j`` for betas and residuals) and one layout
table (dtype index, offset, ndim, shape), plus one concatenated ``data.<i>``
array per dtype present.  A cache of any size is eight npz members plus one
per dtype, and no entry is ever cast, so a float64 factor in a float32
cache round-trips bit-exactly.  A warm state of another layout version is
not read: :meth:`~repro.core.feature_separation.FeatureSeparator.load_state_dict`
drops it (the next re-discovery runs cold) instead of failing the load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

import numpy as np

from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # circular at runtime: fnode imports this module
    from repro.causal.fnode import FNodeResult

#: bump when the serialized layout changes
WARM_STATE_VERSION = 2


def matrix_fingerprint(X) -> str:
    """Content hash of a matrix: sha256 over shape, dtype and raw bytes.

    The matrix is viewed as C-contiguous float64 — the canonical form
    :class:`~repro.causal.engine.CIEngine` converts inputs to — so logically
    equal matrices fingerprint identically regardless of input dtype/layout.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    h = hashlib.sha256()
    h.update(str(X.shape).encode())
    h.update(X.tobytes())
    return h.hexdigest()


def _encode_meta(obj) -> np.ndarray:
    return np.frombuffer(
        json.dumps(obj, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )


def _decode_meta(arr) -> dict:
    return json.loads(bytes(np.asarray(arr, dtype=np.uint8).tobytes()).decode("utf-8"))


def state_version(state: dict):
    """The layout ``version`` a serialized warm state or cache records."""
    return _decode_meta(state["__meta__"]).get("version")


class CIStatCache:
    """Persistent per-conditioning-tuple CI-statistics cache.

    Stores the source-side state of :class:`~repro.causal.engine.CIEngine`:
    Cholesky factors of the ridge Gram matrix per conditioning tuple, ridge
    betas per ``(tuple, feature)``, and (in memory only, unless requested)
    source residuals per ``(tuple, feature)``.  Entries are valid exactly
    while the source matrix bytes match ``source_fingerprint`` and the
    engine runs with the same ``ridge`` / ``stats_dtype`` — under those
    guards a reused entry is byte-for-byte what a cold engine would compute.

    The engine treats the cache as a read-through/write-through store and
    counts hits and misses in ``CIEngine.cache_stats``; the cache itself
    counts invalidations (bulk drops on a guard mismatch).
    """

    def __init__(
        self,
        *,
        ridge: float,
        stats_dtype: str,
        source_fingerprint: str | None = None,
    ) -> None:
        self.ridge = float(ridge)
        self.stats_dtype = str(stats_dtype)
        self.source_fingerprint = source_fingerprint
        # cols -> (cholesky array, lower flag); cols -> {j: beta}; cols -> {j: res_s}
        self.factors: dict[tuple[int, ...], tuple[np.ndarray, bool]] = {}
        self.betas: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
        self.residuals: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
        self.invalidations = 0

    # -- entry accessors (engine-facing) -------------------------------------

    def get_factor(self, cols):
        return self.factors.get(cols)

    def put_factor(self, cols, factor) -> None:
        self.factors[cols] = (factor[0], bool(factor[1]))

    def get_beta(self, cols, j):
        per = self.betas.get(cols)
        return None if per is None else per.get(j)

    def put_beta(self, cols, j, beta) -> None:
        self.betas.setdefault(cols, {})[j] = beta

    def get_residual(self, cols, j):
        per = self.residuals.get(cols)
        return None if per is None else per.get(j)

    def put_residual(self, cols, j, res) -> None:
        self.residuals.setdefault(cols, {})[j] = res

    @property
    def n_entries(self) -> int:
        return (
            len(self.factors)
            + sum(len(per) for per in self.betas.values())
            + sum(len(per) for per in self.residuals.values())
        )

    def matches(self, *, ridge: float, stats_dtype: str, source_fingerprint: str) -> bool:
        """True when every entry is byte-for-byte valid for this engine setup."""
        return (
            self.ridge == float(ridge)
            and self.stats_dtype == str(stats_dtype)
            and self.source_fingerprint == source_fingerprint
        )

    def invalidate(self) -> int:
        """Drop every entry (the source rows they derive from changed)."""
        dropped = self.n_entries
        self.factors.clear()
        self.betas.clear()
        self.residuals.clear()
        self.invalidations += dropped
        return dropped

    # -- worker transport ----------------------------------------------------

    def to_portable(self, *, include_residuals: bool = True) -> dict:
        """Plain picklable dict for shipping to process-pool workers."""
        return {
            "ridge": self.ridge,
            "stats_dtype": self.stats_dtype,
            "source_fingerprint": self.source_fingerprint,
            "factors": self.factors,
            "betas": self.betas,
            "residuals": self.residuals if include_residuals else {},
        }

    @classmethod
    def from_portable(cls, d: dict) -> "CIStatCache":
        cache = cls(
            ridge=d["ridge"],
            stats_dtype=d["stats_dtype"],
            source_fingerprint=d["source_fingerprint"],
        )
        cache.factors = d["factors"]
        cache.betas = d["betas"]
        cache.residuals = d["residuals"]
        return cache

    # -- flat serialization (estimator-protocol compatible) -------------------

    def state_dict(self, *, include_residuals: bool = False) -> dict[str, np.ndarray]:
        """Packed ``{name: ndarray}`` + ``__meta__`` snapshot of the cache.

        Each entry family (``factor``, ``beta``, ``residual``) becomes a
        key table and a layout table; the entry payloads of every family
        are concatenated into one flat ``data.<i>`` array per dtype, so
        the member count does not grow with the number of entries.

        Residuals are excluded by default: they are cheap to recompute (one
        matvec) and dominate the byte size, so artifacts stay small while a
        warm-from-disk run still skips every factorization and solve.
        """
        factor_cols = sorted(self.factors)
        beta_keys = sorted((cols, j) for cols, per in self.betas.items() for j in per)
        res_keys = (
            sorted((cols, j) for cols, per in self.residuals.items() for j in per)
            if include_residuals
            else []
        )
        data: dict[str, list[tuple[np.ndarray, int]]] = {}
        state: dict[str, np.ndarray] = {}
        _pack_family(
            state, data, "factor",
            [(cols, self.factors[cols][0]) for cols in factor_cols],
        )
        state["factor.lower"] = np.array(
            [bool(self.factors[cols][1]) for cols in factor_cols], dtype=bool
        )
        _pack_family(
            state, data, "beta",
            [((j, *cols), self.betas[cols][j]) for cols, j in beta_keys],
        )
        _pack_family(
            state, data, "residual",
            [((j, *cols), self.residuals[cols][j]) for cols, j in res_keys],
        )
        dtypes = list(data)
        for i, dtype in enumerate(dtypes):
            state[f"data.{i}"] = np.concatenate(
                [flat for flat, _ in data[dtype]], dtype=dtype
            )
        state["__meta__"] = _encode_meta({
            "version": WARM_STATE_VERSION,
            "ridge": self.ridge,
            "stats_dtype": self.stats_dtype,
            "source_fingerprint": self.source_fingerprint,
            "invalidations": int(self.invalidations),
            "dtypes": dtypes,
        })
        return state

    @classmethod
    def from_state(cls, state: dict) -> "CIStatCache":
        meta = _decode_meta(state["__meta__"])
        if meta.get("version") != WARM_STATE_VERSION:
            raise ValidationError(
                f"unsupported CIStatCache state version {meta.get('version')!r}"
            )
        cache = cls(
            ridge=meta["ridge"],
            stats_dtype=meta["stats_dtype"],
            source_fingerprint=meta["source_fingerprint"],
        )
        cache.invalidations = int(meta.get("invalidations", 0))
        data = []
        for i, dtype in enumerate(meta["dtypes"]):
            arr = np.asarray(state[f"data.{i}"])
            if arr.dtype.str != dtype or arr.ndim != 1:
                raise ValidationError(
                    f"CIStatCache data.{i} is {arr.dtype.str}{arr.shape}, "
                    f"expected a flat {dtype} array"
                )
            data.append(arr)
        lower = np.asarray(state["factor.lower"]).tolist()
        for (cols, arr), flag in zip(
            _unpack_family(state, data, "factor"), lower, strict=True
        ):
            cache.factors[cols] = (arr, bool(flag))
        for (j, *cols), arr in _unpack_family(state, data, "beta"):
            cache.betas.setdefault(tuple(cols), {})[j] = arr
        for (j, *cols), arr in _unpack_family(state, data, "residual"):
            cache.residuals.setdefault(tuple(cols), {})[j] = arr
        return cache


def _pack_family(state: dict, data: dict, family: str, entries: list) -> None:
    """Write one entry family as ``<family>.keys`` + ``<family>.layout``.

    ``entries`` is a list of ``(key, array)`` with ``key`` a tuple of
    non-negative ints.  ``keys`` holds the key tuples, right-padded with
    -1; ``layout`` holds one row per entry: index into the meta dtype
    list, offset into that dtype's ``data.<i>`` array, ndim, then the
    shape, right-padded with 0.  Payloads are appended to ``data`` (dtype
    string → list of ``(flat array, end offset)``) without any cast.
    """
    width = max((len(key) for key, _ in entries), default=0)
    max_ndim = max((arr.ndim for _, arr in entries), default=0)
    keys = np.full((len(entries), width), -1, dtype=np.int64)
    layout = np.zeros((len(entries), 3 + max_ndim), dtype=np.int64)
    for row, (key, arr) in enumerate(entries):
        keys[row, : len(key)] = key
        chunks = data.setdefault(arr.dtype.str, [])
        offset = chunks[-1][1] if chunks else 0
        flat = np.ascontiguousarray(arr).ravel()
        chunks.append((flat, offset + flat.size))
        layout[row, :3] = (list(data).index(arr.dtype.str), offset, arr.ndim)
        layout[row, 3 : 3 + arr.ndim] = arr.shape
    state[f"{family}.keys"] = keys
    state[f"{family}.layout"] = layout


def _unpack_family(state: dict, data: list, family: str):
    """Yield ``(key tuple, array)`` for every entry of one family; each
    array is its own copy, as independent as the one the engine stored."""
    keys = np.asarray(state[f"{family}.keys"]).tolist()
    layout = np.asarray(state[f"{family}.layout"]).tolist()
    if len(keys) != len(layout):
        raise ValidationError(
            f"CIStatCache {family} has {len(keys)} keys but "
            f"{len(layout)} layout rows"
        )
    for key, (code, offset, ndim, *dims) in zip(keys, layout):
        shape = tuple(dims[:ndim])
        size = int(np.prod(shape, dtype=np.int64))
        flat = data[code][offset : offset + size]
        if flat.size != size:
            raise ValidationError(
                f"CIStatCache {family} entry {key} overruns its data array"
            )
        yield tuple(k for k in key if k >= 0), flat.reshape(shape).copy()


@dataclass
class WarmState:
    """Everything a warm re-discovery needs from the previous run.

    Attributes
    ----------
    priors:
        The previous :class:`FNodeResult` — decisions, per-feature best
        p-values (closest-to-clearing scores), separating sets and the
        pre-search marginal p-values.
    cache:
        The :class:`CIStatCache` accumulated by the previous run (``None``
        when the persisted state carries none).
    source_fingerprint:
        Fingerprint of the source matrix the priors/cache derive from;
        a mismatch forces a cold fallback (and cache invalidation).
    n_features:
        Feature count the priors describe.
    params:
        The discovery parameters of the producing run (provenance).
        Re-discovery tolerates mismatches: its per-feature guards keep
        every decision equal to a cold run's.
    """

    priors: FNodeResult
    cache: CIStatCache | None
    source_fingerprint: str
    n_features: int
    params: dict = field(default_factory=dict)

    def state_dict(self, *, include_residuals: bool = False) -> dict[str, np.ndarray]:
        """Flat serialization: priors arrays + nested cache state."""
        priors = self.priors
        marginal = priors.marginal_p_values
        meta = {
            "version": WARM_STATE_VERSION,
            "source_fingerprint": self.source_fingerprint,
            "n_features": int(self.n_features),
            "params": self.params,
            "parent_sets": [list(p) for p in priors.parent_sets],
            "n_tests": int(priors.n_tests),
            "coverage": float(priors.coverage),
            "has_cache": self.cache is not None,
            "has_marginal": marginal is not None,
        }
        state: dict[str, np.ndarray] = {
            "__meta__": _encode_meta(meta),
            "variant_indices": np.asarray(priors.variant_indices).copy(),
            "invariant_indices": np.asarray(priors.invariant_indices).copy(),
            "p_values": np.asarray(priors.p_values).copy(),
        }
        if marginal is not None:
            state["marginal_p_values"] = np.asarray(marginal).copy()
        if self.cache is not None:
            for name, arr in self.cache.state_dict(
                include_residuals=include_residuals
            ).items():
                state[f"cache.{name}"] = arr
        return state

    @classmethod
    def from_state(cls, state: dict) -> "WarmState":
        from repro.causal.fnode import FNodeResult

        meta = _decode_meta(state["__meta__"])
        if meta.get("version") != WARM_STATE_VERSION:
            raise ValidationError(
                f"unsupported WarmState state version {meta.get('version')!r}"
            )
        priors = FNodeResult(
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
        cache = None
        if meta.get("has_cache"):
            prefix = "cache."
            cache_state = {
                name[len(prefix):]: arr
                for name, arr in state.items()
                if name.startswith(prefix)
            }
            cache = CIStatCache.from_state(cache_state)
        return cls(
            priors=priors,
            cache=cache,
            source_fingerprint=meta["source_fingerprint"],
            n_features=int(meta["n_features"]),
            params=dict(meta.get("params", {})),
        )
