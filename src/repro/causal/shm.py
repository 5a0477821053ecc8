"""Zero-copy process-pool fan-out via ``multiprocessing.shared_memory``.

Shipping the pooled (source, target) matrices to every worker through the
pool initializer costs one pickle of the full float64 matrices per worker.
At the paper's 442-feature width (and at 1k+ widths) that serialization is
a fixed cost the workers pay before the first CI test runs.  This module
avoids it:

- :func:`create_shared_matrices` publishes named float64 arrays into POSIX
  shared memory **once**; only the segment names/shapes/dtypes (a few
  hundred bytes) cross the process boundary.
- :func:`attach_arrays` maps the segments back into a worker as read-only
  NumPy views — no copy, no pickle.  ``CIEngine`` keeps the views as-is
  (``np.ascontiguousarray`` on an aligned float64 view is a no-op).

Lifecycle rules:

- The **parent** owns the segments.  :class:`SharedMatrices` is a context
  manager whose ``close()`` both closes and unlinks every segment; callers
  wrap the pool in ``try/finally`` so a crashed worker (BrokenProcessPool)
  cannot leak ``/dev/shm`` blocks.
- **Workers** attach but never unlink.  Python's ``resource_tracker``
  would otherwise unlink a segment when the *first* worker exits,
  destroying it under the remaining workers; attachments are therefore
  untracked (``track=False`` on 3.13+, ``resource_tracker.unregister``
  before).
- When shared memory is unavailable (no ``/dev/shm``, permissions,
  platform), :func:`create_shared_matrices` returns ``None`` and the
  caller falls back to the pickling initializer — same results, slower
  fan-out.
"""

from __future__ import annotations

import secrets

import numpy as np

try:  # pragma: no cover - import failure exercised via the fallback path
    from multiprocessing import resource_tracker, shared_memory

    SHM_AVAILABLE = True
except ImportError:  # pragma: no cover - platforms without _posixshmem
    resource_tracker = None
    shared_memory = None
    SHM_AVAILABLE = False

#: segments attached by this process as a worker; kept referenced so the
#: mapped buffers outlive the NumPy views built on them
_ATTACHED: list = []


def _untracked_attach(name: str):
    """Attach an existing segment without resource-tracker registration.

    Workers must not be tracked: the tracker process is shared with the
    parent across fork, so a worker registering then unregistering the same
    segment name would erase the *parent's* tracker entry (the cache is a
    name set), turning the parent's legitimate unlink into tracker noise.
    Python 3.13+ exposes ``track=False``; earlier versions need
    registration suppressed during attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedMatrices:
    """Parent-side handle over a set of shared-memory-published arrays.

    Use :func:`create_shared_matrices`; construct directly only in tests.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        self._segments: dict[str, "shared_memory.SharedMemory"] = {}
        self._meta: dict[str, dict] = {}
        token = secrets.token_hex(4)
        try:
            for key, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                seg = shared_memory.SharedMemory(
                    create=True,
                    size=max(1, arr.nbytes),
                    name=f"repro_fs_{token}_{key}",
                )
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                view[...] = arr
                self._segments[key] = seg
                self._meta[key] = {
                    "name": seg.name,
                    "shape": tuple(int(s) for s in arr.shape),
                    "dtype": str(arr.dtype),
                }
        except Exception:
            self.close()
            raise

    def meta(self) -> dict[str, dict]:
        """Picklable segment descriptors for the worker initializer."""
        return dict(self._meta)

    def close(self) -> None:
        """Close and unlink every segment (idempotent, swallows teardown races)."""
        for seg in self._segments.values():
            for step in (seg.close, seg.unlink):
                try:
                    step()
                except (FileNotFoundError, OSError):  # pragma: no cover
                    pass
        self._segments.clear()

    def __enter__(self) -> "SharedMatrices":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def create_shared_matrices(arrays: dict[str, np.ndarray]) -> SharedMatrices | None:
    """Publish ``arrays`` into shared memory, or ``None`` if unavailable.

    ``None`` signals the caller to use the pickling fan-out instead — the
    two paths are result-identical, so this is purely a performance
    downgrade, never a behaviour change.
    """
    if not SHM_AVAILABLE:
        return None
    try:
        return SharedMatrices(arrays)
    except (OSError, ValueError):
        return None


def attach_arrays(meta: dict[str, dict]) -> dict[str, np.ndarray]:
    """Worker-side: map shared segments into read-only NumPy views.

    The underlying segments are kept referenced for the life of the worker
    process; views are marked read-only so a worker bug cannot corrupt the
    matrices under its siblings.
    """
    arrays: dict[str, np.ndarray] = {}
    for key, spec in meta.items():
        seg = _untracked_attach(spec["name"])
        _ATTACHED.append(seg)
        view = np.ndarray(
            tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]), buffer=seg.buf
        )
        view.flags.writeable = False
        arrays[key] = view
    return arrays


__all__ = [
    "SHM_AVAILABLE",
    "SharedMatrices",
    "attach_arrays",
    "create_shared_matrices",
]
