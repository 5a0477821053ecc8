"""Grow-only scratch-buffer pool backing the fused nn engine.

Minibatch training on the numpy substrate used to allocate dozens of
temporaries per batch (layer activations, masks, input gradients, optimizer
scratch).  A :class:`Workspace` turns each of those into a named, preallocated
buffer keyed by ``(name, shape[1:], dtype)``: one buffer per key, grown when
a request needs more leading rows than it holds, and handed out as a
leading-row prefix view when it needs fewer.  Training loops see a full
batch and a smaller remainder batch, a serving plan sees every padded row
count up to its capacity; either way the pool holds one buffer per tensor
and the steady state allocates nothing.

Buffers are owned by whoever holds the workspace — a layer's forward output
is valid only until that layer's next forward call, and two requests under
one name share memory whatever their row counts.  Code that hands arrays
to callers (model ``predict``/``generate`` surfaces) must copy at the
boundary.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Named pool of reusable numpy buffers, one grow-only buffer per key."""

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[tuple, np.ndarray] = {}

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Return a ``shape`` buffer for ``name``, allocating only to grow.

        Requests that differ only in the leading dimension share one buffer:
        a smaller row count gets a C-contiguous prefix view of it.  The
        contents are unspecified on first use — callers must fully
        overwrite (``out=`` semantics), never read-modify-write.
        """
        if not isinstance(shape, tuple):
            shape = tuple(shape)
        dtype = np.dtype(dtype)
        key = (name, shape[1:] if shape else None, dtype.char)
        buf = self._bufs.get(key)
        if buf is None or (shape and buf.shape[0] < shape[0]):
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        if shape and buf.shape[0] != shape[0]:
            return buf[:shape[0]]
        return buf

    def clear(self) -> None:
        """Drop every buffer (e.g. after a dtype switch)."""
        self._bufs.clear()

    def __len__(self) -> int:
        return len(self._bufs)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._bufs)
