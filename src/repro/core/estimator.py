"""Unified Estimator protocol: the train/serve contract for every model.

The paper's deployment story is a train/serve split — fit everything on
source data once, then keep serving the frozen downstream model behind the
FS+GAN adapter as the network drifts.  Serving needs a uniform notion of
*what a fitted model is* so artifacts can round-trip from disk without any
live training configuration.  This module provides that contract:

``get_params()``
    JSON-serializable constructor arguments — enough to rebuild an
    *unfitted* twin via :meth:`Estimator.from_params`.
``state_dict()`` / ``load_state_dict()``
    A flat ``{name: ndarray}`` mapping of the fitted state (plus one
    ``__meta__`` JSON blob for scalars), safe to store with
    ``allow_pickle=False``.  Loading writes network parameters **in place**
    so consolidated (fused-trainer) flat views stay valid.
``export_plan()``
    A JSON description of the serve path (used by the artifact manifest and
    the compiled :class:`~repro.serve.plan.InferencePlan`).

Most classes opt in declaratively by listing attribute names in
``_state_arrays`` / ``_state_scalars`` / ``_state_networks`` /
``_state_estimators`` and registering a stable ``kind`` string with
:func:`register_estimator`.  Hooks (``_prepare_load`` / ``_post_load``)
cover the irregular parts: rebuilding network topology before weights are
loaded, recomputing derived caches after.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json

import numpy as np

from repro.core.config import FSConfig, ReconstructionConfig
from repro.utils.errors import ArtifactError
from repro.utils.validation import check_is_fitted

__all__ = [
    "Estimator",
    "decode_json",
    "encode_json",
    "get_estimator_class",
    "pack_estimator",
    "register_estimator",
    "registered_kinds",
    "unpack_estimator",
]

#: Reserved key holding the JSON ``{kind, params}`` header of a packed
#: estimator inside a flat array mapping.
ESTIMATOR_HEADER = "__estimator__"

#: Reserved key holding the JSON scalar metadata of a ``state_dict``.
META_KEY = "__meta__"


# ---------------------------------------------------------------------------
# JSON <-> uint8 helpers (npz stores arrays only; JSON rides as raw bytes)
# ---------------------------------------------------------------------------


def encode_json(obj) -> np.ndarray:
    """Encode a JSON-serializable object as a uint8 byte array."""
    return np.frombuffer(json.dumps(obj, sort_keys=True).encode("utf-8"), dtype=np.uint8)


def decode_json(arr: np.ndarray):
    """Decode an object encoded by :func:`encode_json`."""
    return json.loads(bytes(np.asarray(arr, dtype=np.uint8).tobytes()).decode("utf-8"))


def _to_jsonable(value):
    """Recursively convert numpy scalars/arrays inside ``value`` to JSON types."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    return value


#: Config dataclasses allowed inside ``get_params`` output, by class name.
_PARAM_DATACLASSES = {
    "FSConfig": FSConfig,
    "ReconstructionConfig": ReconstructionConfig,
}


def param_to_jsonable(value):
    """Sanitize one constructor argument for the JSON params header."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _PARAM_DATACLASSES:
            raise ArtifactError(
                f"config dataclass {name!r} is not artifact-serializable"
            )
        return {
            "__dataclass__": name,
            "fields": _to_jsonable(dataclasses.asdict(value)),
        }
    if isinstance(value, np.random.Generator):
        # A live Generator cannot be represented as a constructor argument;
        # fitted state (including RNG state where it matters for serving)
        # travels in the state dict instead.
        return None
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [param_to_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ArtifactError(
        f"constructor argument of type {type(value).__name__} is not "
        f"JSON-serializable; override get_params()"
    )


def param_from_jsonable(value):
    """Inverse of :func:`param_to_jsonable` (rebuilds config dataclasses)."""
    if isinstance(value, dict) and "__dataclass__" in value:
        name = value["__dataclass__"]
        if name not in _PARAM_DATACLASSES:
            raise ArtifactError(f"unknown config dataclass {name!r} in artifact params")
        fields = value["fields"]
        if name == "FSConfig" and fields.get("warm_mode") == "confirm":
            # the removed inexact warm mode; older bundles re-discover exactly
            fields = {**fields, "warm_mode": "exact"}
        return _PARAM_DATACLASSES[name](**fields)
    if isinstance(value, list):
        return [param_from_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Kind registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type] = {}

#: Modules defining registered estimators, imported on first registry lookup.
#: Lazy so that ``repro.core.estimator`` itself stays import-cycle free.
_LAZY_MODULES = (
    "repro.ml.preprocessing",
    "repro.ml.tree",
    "repro.ml.random_forest",
    "repro.ml.gradient_boosting",
    "repro.ml.mlp",
    "repro.ml.gmm",
    "repro.ml.ica",
    "repro.gan.cgan",
    "repro.gan.vae",
    "repro.gan.autoencoder",
    "repro.core.feature_separation",
    "repro.core.reconstruction",
    "repro.core.pipeline",
    "repro.baselines.naive",
    "repro.baselines.coral",
    "repro.baselines.icd",
    "repro.baselines.cmt",
    "repro.baselines.dann",
    "repro.baselines.scl",
    "repro.baselines.fewshot",
    "repro.baselines.ours",
)
_lazy_loaded = False


def _ensure_registered() -> None:
    global _lazy_loaded
    if _lazy_loaded:
        return
    _lazy_loaded = True
    for module in _LAZY_MODULES:
        importlib.import_module(module)


def register_estimator(kind: str):
    """Class decorator registering ``cls`` under the stable ``kind`` string.

    The kind string is what artifacts store; it must never change once a
    schema version has shipped bundles containing it.
    """

    def decorate(cls):
        existing = _REGISTRY.get(kind)
        if existing is not None and existing is not cls:
            raise ArtifactError(
                f"estimator kind {kind!r} already registered by {existing.__name__}"
            )
        cls._estimator_kind = kind
        _REGISTRY[kind] = cls
        return cls

    return decorate


def get_estimator_class(kind: str) -> type:
    """Resolve a kind string to its registered class."""
    _ensure_registered()
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ArtifactError(
            f"unknown estimator kind {kind!r}; known kinds: {registered_kinds()}"
        ) from None


def registered_kinds() -> list[str]:
    """All registered kind strings, sorted."""
    _ensure_registered()
    return sorted(_REGISTRY)


def _restored_model_factory():
    """Placeholder factory injected when loading factory-based estimators.

    A restored estimator carries its *fitted* model; the factory is only
    consulted by ``fit``, which a serve-side artifact is not meant to call.
    """
    raise ArtifactError(
        "this estimator was restored from an artifact; its model_factory is a "
        "placeholder and cannot build new models — construct a fresh estimator "
        "to refit"
    )


# ---------------------------------------------------------------------------
# Network (de)serialization helpers
# ---------------------------------------------------------------------------


def network_state(net) -> dict[str, np.ndarray]:
    """Flat parameter mapping of a ``Sequential`` or a bare parametric layer."""
    if hasattr(net, "state_dict"):
        return net.state_dict()
    return {key: value.copy() for key, value in net.params.items()}


def load_network_state(net, state: dict[str, np.ndarray]) -> None:
    """Write ``state`` into ``net`` **in place** (preserves fused flat views)."""
    if hasattr(net, "load_state_dict"):
        net.load_state_dict(state)
        return
    for key, value in net.params.items():
        if key not in state:
            raise ArtifactError(f"network state is missing parameter {key!r}")
        if state[key].shape != value.shape:
            raise ArtifactError(
                f"shape mismatch for network parameter {key!r}: "
                f"{state[key].shape} vs {value.shape}"
            )
        value[...] = state[key]


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------


class Estimator:
    """Mixin implementing the train/serve contract declaratively.

    Subclasses register a kind with :func:`register_estimator` and declare
    which attributes make up their fitted state:

    ``_state_scalars``
        JSON-serializable attributes (ints, floats, strings, lists, dicts);
        stored in the ``__meta__`` blob.
    ``_state_arrays``
        ndarray attributes, copied verbatim (``None`` values are skipped and
        restored as ``None``).
    ``_state_networks``
        ``Sequential`` networks or bare parametric layers; flattened under a
        ``{name}.`` prefix.  ``_prepare_load`` must reconstruct the topology
        before weights are written in place.
    ``_state_estimators``
        Nested :class:`Estimator` attributes, packed recursively under a
        ``{name}.`` prefix with their own ``{kind, params}`` header.
    """

    #: Stable registry kind; set by :func:`register_estimator`.
    _estimator_kind: str | None = None
    #: Constructor arguments omitted from ``get_params`` (e.g. callables).
    _param_exclude: tuple = ()
    #: Attribute whose non-None value marks the estimator as fitted.
    _fitted_attr: str | None = None
    _state_scalars: tuple = ()
    _state_arrays: tuple = ()
    _state_networks: tuple = ()
    _state_estimators: tuple = ()

    # -- params ------------------------------------------------------------

    def get_params(self) -> dict:
        """JSON-serializable constructor arguments of this estimator.

        The default implementation introspects ``__init__`` and reads the
        attribute of the same name; override when an argument is not stored
        verbatim.
        """
        params: dict = {}
        signature = inspect.signature(type(self).__init__)
        for name, parameter in signature.parameters.items():
            if name == "self" or parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            if name in self._param_exclude:
                continue
            if not hasattr(self, name):
                raise ArtifactError(
                    f"{type(self).__name__} does not store constructor argument "
                    f"{name!r}; override get_params()"
                )
            params[name] = param_to_jsonable(getattr(self, name))
        return params

    @classmethod
    def from_params(cls, params: dict) -> "Estimator":
        """Build an unfitted instance from :meth:`get_params` output."""
        kwargs = {name: param_from_jsonable(value) for name, value in params.items()}
        signature = inspect.signature(cls.__init__)
        if "model_factory" in signature.parameters and "model_factory" not in kwargs:
            kwargs["model_factory"] = _restored_model_factory
        return cls(**kwargs)

    # -- hooks -------------------------------------------------------------

    def _extra_meta(self) -> dict:
        """Extra JSON metadata merged into ``__meta__`` (e.g. RNG state)."""
        return {}

    def _prepare_load(self, meta: dict, state: dict) -> None:
        """Rebuild network topology (etc.) before weights are loaded."""

    def _post_load(self, meta: dict) -> None:
        """Recompute derived caches after all state has been restored."""

    # -- state -------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat ``{name: ndarray}`` mapping of the fitted state."""
        if self._fitted_attr is not None:
            check_is_fitted(self, self._fitted_attr)
        meta = {name: _to_jsonable(getattr(self, name)) for name in self._state_scalars}
        meta.update(_to_jsonable(self._extra_meta()))
        state: dict[str, np.ndarray] = {META_KEY: encode_json(meta)}
        for name in self._state_arrays:
            value = getattr(self, name)
            if value is None:
                continue
            array = np.asarray(value)
            if array.dtype == object:
                raise ArtifactError(
                    f"{type(self).__name__}.{name} has object dtype and cannot "
                    f"be stored without pickle"
                )
            state[name] = array.copy()
        for name in self._state_networks:
            net = getattr(self, name, None)
            if net is None:
                continue
            for key, value in network_state(net).items():
                state[f"{name}.{key}"] = value
        for name in self._state_estimators:
            nested = getattr(self, name, None)
            if nested is None:
                continue
            state.update(pack_estimator(nested, prefix=f"{name}."))
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> "Estimator":
        """Restore the fitted state saved by :meth:`state_dict`."""
        meta = decode_json(state[META_KEY]) if META_KEY in state else {}
        for name in self._state_scalars:
            if name in meta:
                setattr(self, name, meta[name])
        for name in self._state_arrays:
            setattr(self, name, np.array(state[name]) if name in state else None)
        self._prepare_load(meta, state)
        for name in self._state_networks:
            prefix = f"{name}."
            sub = {
                key[len(prefix):]: value
                for key, value in state.items()
                if key.startswith(prefix)
            }
            if not sub:
                continue
            net = getattr(self, name, None)
            if net is None:
                raise ArtifactError(
                    f"{type(self).__name__}._prepare_load() did not construct "
                    f"network {name!r}"
                )
            load_network_state(net, sub)
        for name in self._state_estimators:
            if f"{name}.{ESTIMATOR_HEADER}" in state:
                setattr(self, name, unpack_estimator(state, prefix=f"{name}."))
            else:
                setattr(self, name, None)
        self._post_load(meta)
        return self

    # -- serving -----------------------------------------------------------

    def export_plan(self) -> dict:
        """JSON description of how this estimator is served.

        The default is a one-stage plan naming the estimator; composite
        estimators (the FS+GAN pipeline) override this with their staged
        serve path.
        """
        return {"kind": self._estimator_kind, "params": self.get_params()}


# ---------------------------------------------------------------------------
# Packing (estimator <-> flat array mapping with {kind, params} header)
# ---------------------------------------------------------------------------


def pack_estimator(estimator: Estimator, prefix: str = "") -> dict[str, np.ndarray]:
    """Pack an estimator (header + state) into a flat array mapping."""
    if not isinstance(estimator, Estimator) or estimator._estimator_kind is None:
        raise ArtifactError(
            f"{type(estimator).__name__} does not implement the Estimator "
            f"protocol and cannot be serialized"
        )
    header = {"kind": estimator._estimator_kind, "params": estimator.get_params()}
    arrays = {f"{prefix}{ESTIMATOR_HEADER}": encode_json(header)}
    for key, value in estimator.state_dict().items():
        arrays[f"{prefix}{key}"] = value
    return arrays


def unpack_estimator(state: dict[str, np.ndarray], prefix: str = "") -> Estimator:
    """Rebuild the estimator packed under ``prefix`` by :func:`pack_estimator`."""
    header_key = f"{prefix}{ESTIMATOR_HEADER}"
    if header_key not in state:
        raise ArtifactError(f"no estimator header found at {header_key!r}")
    header = decode_json(state[header_key])
    cls = get_estimator_class(header["kind"])
    estimator = cls.from_params(header.get("params", {}))
    sub = {
        key[len(prefix):]: value
        for key, value in state.items()
        if key.startswith(prefix) and key != header_key
    }
    estimator.load_state_dict(sub)
    return estimator
