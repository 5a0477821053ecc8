"""Spans recorded around public calls, and self-time arithmetic.

The traced run wraps public methods of the program from the benchmark's own
files (nothing under ``src/`` changes).  Each wrapped call records a span
``(name, start, end, parent)``; a span's self time is its duration minus the
part of its interval that its child spans cover.  Within one operation the
self times of all spans sum to the operation's root span exactly, up to
float rounding; :data:`EPSILON_S` is the tolerance the benchmark checks.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: largest |sum of self times - root duration| accepted per operation (s)
EPSILON_S = 1e-6


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the recorder's span list

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans on the thread that created it.

    Calls made on other threads pass straight through unrecorded, so a
    background thread cannot interleave with the recording thread's stack.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object | None]] = []

    @contextmanager
    def span(self, name: str):
        if threading.get_ident() != self._thread:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with recorder.span(name):
                return original(*args, **kwargs)

        own = attr in owner.__dict__
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original if own else None))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, original)

    def subtree(self, root: int) -> list[int]:
        """Indices of ``root`` and all its descendants."""
        keep = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in keep:
                keep.add(i)
        return sorted(keep)


def instrument(layers) -> SpanRecorder:
    """A recorder wrapping each ``(module, class, method, name)`` of
    ``layers``; call :meth:`SpanRecorder.restore` when done."""
    recorder = SpanRecorder()
    for module, cls, attr, name in layers:
        owner = getattr(importlib.import_module(module), cls)
        recorder.wrap(owner, attr, name)
    return recorder


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span], indices=None) -> dict[str, float]:
    """Per-name self time (seconds) over ``indices`` (default: all spans).

    ``indices`` must be closed under children (a subtree); a span's children
    are the spans whose ``parent`` is its index.
    """
    indices = list(range(len(spans))) if indices is None else list(indices)
    children: dict[int, list[int]] = {i: [] for i in indices}
    for i in indices:
        parent = spans[i].parent
        if parent in children:
            children[parent].append(i)
    out: dict[str, float] = {}
    for i in indices:
        s = spans[i]
        kids = [(spans[c].start, spans[c].end) for c in children[i]]
        own = s.duration - covered(s.start, s.end, kids)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def call_durations(spans: list[Span], indices, name: str) -> list[float]:
    """Total durations of every ``name`` span among ``indices``."""
    return [spans[i].duration for i in indices if spans[i].name == name]
