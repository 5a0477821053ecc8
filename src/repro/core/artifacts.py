"""Versioned artifact store: the single disk format for trained estimators.

An *artifact* is one stored (uncompressed) ``.npz`` bundle
(``allow_pickle=False`` throughout) holding a packed
:class:`~repro.core.estimator.Estimator` plus a JSON manifest: schema
version, estimator kind and constructor params, a content hash over every
array payload, optional dataset/seed/config provenance, optional
drift-monitor thresholds, and the estimator's exported serve plan.  ``load_artifact`` restores the estimator in a fresh process with
no live pipeline or training configuration required.

Schema v2 is the only layout: ``load_artifact`` is the one reader and
``save_artifact`` the one writer.  A bundle that cannot be decoded or
restored raises :class:`~repro.utils.errors.ArtifactError` naming its path.

A write and a read cost per npz member more than per byte, so nested state
packs its many small arrays into a few flat ones: a fitted separator's warm
state (:mod:`repro.causal.warm`) is a constant number of members whatever
its cache holds.  A bundle whose warm state has an older layout version
still loads, with the warm state dropped; the next re-discovery then runs
cold.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.estimator import (
    Estimator,
    decode_json,
    encode_json,
    pack_estimator,
    unpack_estimator,
)
from repro.utils.errors import ArtifactError

ARTIFACT_SCHEMA = "repro.artifact"
ARTIFACT_SCHEMA_VERSION = 2

#: allowed ``lifecycle_state`` values of the optional lineage manifest block
LIFECYCLE_STATES = ("candidate", "shadow", "active", "retired")

_MANIFEST_KEY = "__manifest__"


def _content_hash(arrays: dict) -> str:
    """sha256 over every array's name, dtype, shape and raw bytes."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(arr.dtype.str.encode("ascii"))
        digest.update(str(arr.shape).encode("ascii"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _lineage_to_jsonable(lineage) -> dict | None:
    """Validate and normalize the optional lineage manifest block.

    The block is additive to schema v2: older readers ignore the extra
    manifest key, so no version bump is needed.  ``parent_hash`` is the
    content hash of the bundle this one was adapted from (None for
    generation 0), ``generation`` counts adaptation hops from the original
    source fit, and ``lifecycle_state`` tracks the rollout position.
    """
    if lineage is None:
        return None
    if not isinstance(lineage, dict):
        raise ArtifactError("lineage must be a dict or None")
    state = lineage.get("lifecycle_state", "candidate")
    if state not in LIFECYCLE_STATES:
        raise ArtifactError(
            f"unknown lifecycle_state {state!r} "
            f"(expected one of {', '.join(LIFECYCLE_STATES)})"
        )
    parent = lineage.get("parent_hash")
    if parent is not None and not isinstance(parent, str):
        raise ArtifactError("lineage parent_hash must be a hex string or None")
    generation = int(lineage.get("generation", 0))
    if generation < 0:
        raise ArtifactError("lineage generation must be >= 0")
    out = {
        "parent_hash": parent,
        "generation": generation,
        "lifecycle_state": state,
    }
    for key, value in lineage.items():
        if key not in out:
            out[key] = value
    return out


def _monitor_to_jsonable(monitor) -> dict | None:
    if monitor is None:
        return None
    if isinstance(monitor, dict):
        return dict(monitor)
    return {
        "jaccard_threshold": float(monitor.jaccard_threshold),
        "min_new_variants": int(monitor.min_new_variants),
    }


@dataclass
class LoadedArtifact:
    """A restored estimator together with its manifest."""

    estimator: Estimator
    manifest: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.manifest.get("kind", "")

    @property
    def provenance(self) -> dict:
        return self.manifest.get("provenance") or {}

    @property
    def monitor(self) -> dict | None:
        return self.manifest.get("monitor")

    @property
    def lineage(self) -> dict | None:
        """Optional lineage block: parent_hash / generation / lifecycle_state."""
        return self.manifest.get("lineage")


def save_artifact(estimator: Estimator, path, *, provenance=None, monitor=None,
                  lineage=None) -> Path:
    """Serialize ``estimator`` into a versioned ``.npz`` bundle at ``path``.

    ``provenance`` (dataset / seed / config dict) and ``monitor`` (drift
    thresholds) are recorded verbatim in the manifest; ``lineage`` is the
    optional adaptation-lineage block (``parent_hash`` / ``generation`` /
    ``lifecycle_state``, see :mod:`repro.adapt.lineage`).  A
    ``.manifest.json`` sidecar is written next to the bundle for tooling
    that wants the metadata without parsing npz.
    """
    arrays = pack_estimator(estimator)
    return _write_packed(
        estimator, arrays, _content_hash(arrays), path,
        provenance=provenance, monitor=monitor, lineage=lineage,
    )


def _write_packed(estimator: Estimator, arrays: dict, content_hash: str, path,
                  *, provenance=None, monitor=None, lineage=None) -> Path:
    """The body of :func:`save_artifact` over already packed arrays.

    ``arrays`` must be ``pack_estimator(estimator)`` and ``content_hash``
    its :func:`_content_hash`; a caller that needs the hash before the
    file exists (the lineage names version files by it) packs and hashes
    once and hands both in.  The bundle is written stored, not deflated:
    the packed payload is mostly float noise that barely compresses.
    """
    path = Path(path)
    header = decode_json(arrays["__estimator__"])
    try:
        plan = estimator.export_plan()
    except Exception:  # unfitted export or estimator-specific failure
        plan = None
    manifest = {
        "schema": ARTIFACT_SCHEMA,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "kind": header["kind"],
        "params": header["params"],
        "provenance": dict(provenance) if provenance else None,
        "monitor": _monitor_to_jsonable(monitor),
        "lineage": _lineage_to_jsonable(lineage),
        "plan": plan,
        "content_hash": content_hash,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays, **{_MANIFEST_KEY: encode_json(manifest)})
    sidecar = path.with_suffix(path.suffix + ".manifest.json")
    sidecar.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path) -> LoadedArtifact:
    """Restore an artifact bundle; no live pipeline or config is needed.

    The content hash is always checked.  Any bundle that cannot be read,
    decoded or restored raises :class:`ArtifactError` naming ``path``.
    """
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"no artifact file at {path}")
    try:
        data = np.load(path, allow_pickle=False)
    except Exception as exc:  # truncated / half-written bundle
        raise ArtifactError(f"unreadable artifact file {path}: {exc}") from exc
    if _MANIFEST_KEY not in data.files:
        raise ArtifactError(f"{path} is not a repro artifact (no manifest)")
    try:
        manifest = decode_json(data[_MANIFEST_KEY])
    except Exception as exc:  # bad bytes, bad UTF-8 or bad JSON
        raise ArtifactError(f"undecodable manifest in {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ArtifactError(
            f"manifest in {path} is a JSON {type(manifest).__name__}, "
            "not an object"
        )
    if manifest.get("schema") != ARTIFACT_SCHEMA:
        raise ArtifactError(f"unknown artifact schema {manifest.get('schema')!r}")
    version = manifest.get("schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported artifact schema version {version} "
            f"(this build reads version {ARTIFACT_SCHEMA_VERSION})"
        )
    arrays = {name: data[name] for name in data.files if name != _MANIFEST_KEY}
    expected = manifest.get("content_hash")
    actual = _content_hash(arrays)
    if expected != actual:
        raise ArtifactError(
            f"artifact content hash mismatch in {path}: "
            f"manifest says {expected}, payload hashes to {actual}"
        )
    try:
        estimator = unpack_estimator(arrays)
    except Exception as exc:  # hash-consistent but incomplete payload
        raise ArtifactError(
            f"cannot restore the estimator in {path}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return LoadedArtifact(estimator=estimator, manifest=manifest)


class ArtifactStore:
    """Directory of named, versioned artifact bundles.

    Thin convenience over :func:`save_artifact` / :func:`load_artifact`:
    ``store.save("pipeline", est)`` writes ``<root>/pipeline.npz`` (plus the
    JSON sidecar); ``store.load("pipeline")`` restores it; ``store.list()``
    enumerates names with their manifests.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    def _path(self, name: str) -> Path:
        return self.root / f"{name}.npz"

    def save(self, name: str, estimator: Estimator, *, provenance=None,
             monitor=None) -> Path:
        return save_artifact(
            estimator, self._path(name), provenance=provenance, monitor=monitor
        )

    def load(self, name: str) -> LoadedArtifact:
        return load_artifact(self._path(name))

    def list(self) -> dict:
        """Map of artifact name → manifest for every bundle under ``root``."""
        out = {}
        if not self.root.exists():
            return out
        for path in sorted(self.root.glob("*.npz")):
            sidecar = path.with_suffix(path.suffix + ".manifest.json")
            if sidecar.exists():
                out[path.stem] = json.loads(sidecar.read_text())
            else:
                try:
                    out[path.stem] = load_artifact(path).manifest
                except ArtifactError:
                    continue
        return out
