"""Versioned artifact lineage: publish → promote → rollback as pointer flips.

The adaptation loop keeps every generation of a tenant's adapter on disk and
moves a single *active pointer* between them::

    <root>/<tenant>.npz                      active pointer (symlink, or copy
                                             where symlinks are unavailable)
    <root>/versions/<tenant>-gen<G>-<hash12>.npz   immutable version bundles
    <root>/<tenant>.lineage.json             lineage index (this module's state)

Version bundles are written once by :meth:`ArtifactLineage.publish` and never
rewritten afterwards; :meth:`promote` and :meth:`rollback` only flip the
pointer and update the index, so a rollback restores the *identical bytes*
the previous plan was compiled from — bit-exact by construction.  The
pointer flip is atomic (temp link + ``os.replace``) and changes the
pointer's ``(inode, mtime_ns, size)`` stat, which is exactly the trigger
the serving daemon's :class:`~repro.serve.registry.PlanCache` watches for
its sha256-validated hot reload: promoting or rolling back a tenant takes
effect on the next request without a daemon restart.

Each version carries a lineage block in its artifact manifest
(``parent_hash`` / ``generation`` / ``lifecycle_state``; see
:func:`repro.core.artifacts.save_artifact`) and mirrors it in the JSON
index.  Lifecycle states follow the adaptation state machine:

``candidate``
    freshly published by the controller, not yet scored against traffic
``shadow``
    being scored concurrently with the incumbent (serve shadow mode)
``active``
    the version the pointer resolves to — what live traffic is scored on
``retired``
    was active (superseded or rolled back) or aborted in shadow
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.core.artifacts import (
    LIFECYCLE_STATES,
    LoadedArtifact,
    _content_hash,
    _write_packed,
    load_artifact,
)
from repro.core.estimator import pack_estimator
from repro.utils.errors import ArtifactError

__all__ = ["ArtifactLineage", "LineageVersion", "LINEAGE_SCHEMA"]

LINEAGE_SCHEMA = "repro.lineage/v1"

#: tenant names are path components; same alphabet the serve registry enforces
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass
class LineageVersion:
    """One published generation of a tenant's adapter."""

    tenant: str
    content_hash: str
    file: str
    parent_hash: str | None
    generation: int
    lifecycle_state: str

    def to_json(self) -> dict:
        return {
            "content_hash": self.content_hash,
            "file": self.file,
            "parent_hash": self.parent_hash,
            "generation": self.generation,
            "lifecycle_state": self.lifecycle_state,
        }

    @classmethod
    def from_json(cls, tenant: str, doc: dict) -> "LineageVersion":
        return cls(
            tenant=tenant,
            content_hash=doc["content_hash"],
            file=doc["file"],
            parent_hash=doc.get("parent_hash"),
            generation=int(doc.get("generation", 0)),
            lifecycle_state=doc.get("lifecycle_state", "candidate"),
        )


class ArtifactLineage:
    """Lineage index + pointer management over an artifact store root.

    The root is the same directory a :class:`~repro.serve.registry.PlanCache`
    serves from: ``<root>/<tenant>.npz`` stays the single path the daemon
    knows about, and this class redirects it between immutable version
    bundles under ``<root>/versions/``.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._lock = threading.RLock()

    # -- paths ---------------------------------------------------------------

    def _check_tenant(self, tenant: str) -> str:
        if not _TENANT_NAME.match(tenant or ""):
            raise ArtifactError(
                f"invalid tenant name {tenant!r} (letters, digits, '._-' "
                f"only, must not start with a separator)"
            )
        return tenant

    def pointer_path(self, tenant: str) -> Path:
        """The active-pointer path the serving daemon scores from."""
        return self.root / f"{self._check_tenant(tenant)}.npz"

    def versions_dir(self) -> Path:
        return self.root / "versions"

    def index_path(self, tenant: str) -> Path:
        return self.root / f"{self._check_tenant(tenant)}.lineage.json"

    def version_path(self, version: LineageVersion) -> Path:
        return self.versions_dir() / version.file

    # -- index I/O -----------------------------------------------------------

    def _read_index(self, tenant: str) -> dict:
        path = self.index_path(tenant)
        if not path.exists():
            return {
                "schema": LINEAGE_SCHEMA,
                "tenant": tenant,
                "active": None,
                "previous": None,
                "versions": [],
            }
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise ArtifactError(f"corrupt lineage index {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ArtifactError(
                f"lineage index {path} is a JSON {type(doc).__name__}, "
                "not an object"
            )
        if doc.get("schema") != LINEAGE_SCHEMA:
            raise ArtifactError(
                f"unknown lineage schema {doc.get('schema')!r} in {path}"
            )
        return doc

    def _write_index(self, tenant: str, doc: dict) -> None:
        path = self.index_path(tenant)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)

    @staticmethod
    def _find(doc: dict, content_hash: str) -> dict:
        for entry in doc["versions"]:
            if entry["content_hash"] == content_hash:
                return entry
        raise ArtifactError(
            f"no lineage version with content hash {content_hash!r}"
        )

    # -- pointer flip --------------------------------------------------------

    def _flip_pointer(self, tenant: str, version_path: Path) -> None:
        """Atomically repoint ``<root>/<tenant>.npz`` at a version bundle."""
        pointer = self.pointer_path(tenant)
        tmp = self.root / f".{tenant}.npz.flip"
        if tmp.exists() or tmp.is_symlink():
            tmp.unlink()
        target = os.path.relpath(version_path, self.root)
        try:
            os.symlink(target, tmp)
        except OSError:
            # no symlink support: fall back to an (atomic) copy replace;
            # copy2 preserves the version's mtime so the serve cache still
            # sees a stat change on every flip
            shutil.copy2(version_path, tmp)
        os.replace(tmp, pointer)
        sidecar = version_path.with_suffix(version_path.suffix + ".manifest.json")
        if sidecar.exists():
            pointer_sidecar = pointer.with_suffix(pointer.suffix + ".manifest.json")
            shutil.copyfile(sidecar, pointer_sidecar)

    # -- public surface ------------------------------------------------------

    def publish(self, tenant: str, estimator, *, provenance=None, monitor=None,
                parent: str | None = "active",
                state: str = "candidate") -> LineageVersion:
        """Write a new immutable version bundle and record it in the index.

        ``parent="active"`` (the default) chains the new version onto the
        current active generation; pass an explicit content hash to chain
        elsewhere, or None for a root (generation 0) version.  ``state``
        is the initial lifecycle state; ``state="active"`` additionally
        flips the pointer — the way a tenant's generation 0 is seeded.
        """
        self._check_tenant(tenant)
        if state not in LIFECYCLE_STATES:
            raise ArtifactError(
                f"unknown lifecycle_state {state!r} "
                f"(expected one of {', '.join(LIFECYCLE_STATES)})"
            )
        with self._lock:
            doc = self._read_index(tenant)
            if parent == "active":
                parent_hash = doc.get("active")
            else:
                parent_hash = parent
            generation = 0
            if parent_hash is not None:
                generation = int(self._find(doc, parent_hash)["generation"]) + 1
            lineage = {
                "parent_hash": parent_hash,
                "generation": generation,
                "lifecycle_state": state,
            }
            # the content hash covers array payloads only, so it can name
            # the file before the bundle (whose manifest repeats it) exists;
            # pack and hash once and hand both to the writer
            arrays = pack_estimator(estimator)
            content_hash = _content_hash(arrays)
            file_name = f"{tenant}-gen{generation}-{content_hash[:12]}.npz"
            version_path = self.versions_dir() / file_name
            _write_packed(
                estimator, arrays, content_hash, version_path,
                provenance=provenance, monitor=monitor, lineage=lineage,
            )
            version = LineageVersion(
                tenant=tenant,
                content_hash=content_hash,
                file=file_name,
                parent_hash=parent_hash,
                generation=generation,
                lifecycle_state=state,
            )
            doc["versions"] = [e for e in doc["versions"]
                               if e["content_hash"] != content_hash]
            doc["versions"].append(version.to_json())
            if state == "active":
                doc["previous"] = doc.get("active")
                doc["active"] = content_hash
                self._flip_pointer(tenant, version_path)
            self._write_index(tenant, doc)
            return version

    def promote(self, tenant: str, content_hash: str | None = None) -> LineageVersion:
        """Make a version active: pure pointer flip, no bundle rewrite.

        Defaults to the most recently published candidate/shadow version.
        The incumbent (if any) is retired and remembered as ``previous``
        so :meth:`rollback` can undo exactly this promotion.
        """
        with self._lock:
            doc = self._read_index(tenant)
            if content_hash is None:
                pending = [e for e in doc["versions"]
                           if e["lifecycle_state"] in ("candidate", "shadow")]
                if not pending:
                    raise ArtifactError(
                        f"tenant {tenant!r} has no candidate/shadow version "
                        f"to promote"
                    )
                entry = pending[-1]
            else:
                entry = self._find(doc, content_hash)
            if entry["content_hash"] == doc.get("active"):
                return LineageVersion.from_json(tenant, entry)
            incumbent = doc.get("active")
            if incumbent is not None:
                self._find(doc, incumbent)["lifecycle_state"] = "retired"
            entry["lifecycle_state"] = "active"
            doc["previous"] = incumbent
            doc["active"] = entry["content_hash"]
            version = LineageVersion.from_json(tenant, entry)
            self._flip_pointer(tenant, self.version_path(version))
            self._write_index(tenant, doc)
            return version

    def rollback(self, tenant: str) -> LineageVersion:
        """Undo the last promotion: flip the pointer back to ``previous``.

        The demoted version is retired and becomes the new ``previous``,
        so a second rollback rolls *forward* again (ping-pong semantics —
        the two most recent generations stay one command apart).
        """
        with self._lock:
            doc = self._read_index(tenant)
            previous = doc.get("previous")
            if previous is None:
                raise ArtifactError(
                    f"tenant {tenant!r} has no previous version to roll "
                    f"back to"
                )
            entry = self._find(doc, previous)
            demoted = doc.get("active")
            if demoted is not None:
                self._find(doc, demoted)["lifecycle_state"] = "retired"
            entry["lifecycle_state"] = "active"
            doc["previous"] = demoted
            doc["active"] = entry["content_hash"]
            version = LineageVersion.from_json(tenant, entry)
            self._flip_pointer(tenant, self.version_path(version))
            self._write_index(tenant, doc)
            return version

    def mark(self, tenant: str, content_hash: str, state: str) -> LineageVersion:
        """Set a version's lifecycle state (e.g. candidate → shadow)."""
        if state not in LIFECYCLE_STATES:
            raise ArtifactError(
                f"unknown lifecycle_state {state!r} "
                f"(expected one of {', '.join(LIFECYCLE_STATES)})"
            )
        with self._lock:
            doc = self._read_index(tenant)
            entry = self._find(doc, content_hash)
            entry["lifecycle_state"] = state
            self._write_index(tenant, doc)
            return LineageVersion.from_json(tenant, entry)

    def active(self, tenant: str) -> LineageVersion | None:
        """The version the pointer currently resolves to (None = unmanaged)."""
        with self._lock:
            doc = self._read_index(tenant)
            if doc.get("active") is None:
                return None
            return LineageVersion.from_json(tenant, self._find(doc, doc["active"]))

    def previous(self, tenant: str) -> LineageVersion | None:
        """The version :meth:`rollback` would restore (None = nothing to undo)."""
        with self._lock:
            doc = self._read_index(tenant)
            if doc.get("previous") is None:
                return None
            return LineageVersion.from_json(
                tenant, self._find(doc, doc["previous"])
            )

    def history(self, tenant: str) -> list[LineageVersion]:
        """Every published version in publish order."""
        with self._lock:
            doc = self._read_index(tenant)
            return [LineageVersion.from_json(tenant, e) for e in doc["versions"]]

    def tenants(self) -> list[str]:
        """Every tenant with a lineage index under the root."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name[: -len(".lineage.json")]
            for p in self.root.glob("*.lineage.json")
        )

    def load(self, tenant: str,
             content_hash: str | None = None) -> LoadedArtifact:
        """Restore a version (default: the active one) with hash validation."""
        with self._lock:
            if content_hash is None:
                return load_artifact(self.pointer_path(tenant))
            doc = self._read_index(tenant)
            version = LineageVersion.from_json(
                tenant, self._find(doc, content_hash)
            )
            return load_artifact(self.version_path(version))
