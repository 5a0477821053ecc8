"""Self-time arithmetic on synthetic span trees."""

import math

from spans import Span, SpanRecorder, covered, self_times


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    spans = [
        Span("op", 0.0, 10.0, None),
        Span("fit", 1.0, 7.0, 0),
        Span("fs", 1.5, 3.0, 1),
        Span("gan", 3.0, 6.5, 1),
        Span("compile", 7.0, 7.5, 0),
        Span("fs", 8.0, 9.0, 0),
    ]
    selfs = self_times(spans)
    assert math.isclose(selfs["op"], 10.0 - 6.0 - 0.5 - 1.0)
    assert math.isclose(selfs["fit"], 6.0 - 1.5 - 3.5)
    assert math.isclose(selfs["fs"], 1.5 + 1.0)  # summed over both calls
    assert math.isclose(selfs["gan"], 3.5)
    assert math.isclose(sum(selfs.values()), 10.0)


def test_overlapping_children_are_counted_once():
    spans = [Span("root", 0.0, 4.0, None), Span("a", 0.5, 2.5, 0),
             Span("b", 2.0, 3.0, 0)]
    assert math.isclose(self_times(spans)["root"], 4.0 - 2.5)
    assert math.isclose(covered(0.0, 4.0, [(0.5, 2.5), (2.0, 3.0)]), 2.5)
    # children spilling past the parent are clipped to its interval
    assert math.isclose(covered(1.0, 2.0, [(0.0, 1.5), (1.8, 5.0)]), 0.7)


def test_self_times_of_a_subtree_ignore_other_spans():
    recorder = SpanRecorder()
    recorder.spans = [
        Span("op", 0.0, 2.0, None), Span("x", 0.5, 1.0, 0),
        Span("op", 3.0, 5.0, None), Span("x", 3.0, 4.5, 2),
    ]
    idx = recorder.subtree(2)
    assert idx == [2, 3]
    selfs = self_times(recorder.spans, idx)
    assert math.isclose(selfs["op"], 0.5)
    assert math.isclose(selfs["x"], 1.5)


class _Target:
    def work(self, n):
        return n * 2


class _Child(_Target):
    pass


def test_wrap_records_nested_calls_and_restores():
    recorder = SpanRecorder()
    original = _Target.__dict__["work"]
    recorder.wrap(_Target, "work", "layer")
    with recorder.span("op"):
        assert _Target().work(3) == 6
    recorder.restore()
    assert _Target.__dict__["work"] is original
    assert [s.name for s in recorder.spans] == ["op", "layer"]
    assert recorder.spans[1].parent == 0
    total = recorder.spans[0].duration
    assert math.isclose(sum(self_times(recorder.spans).values()), total,
                        abs_tol=1e-9)


def test_wrapping_an_inherited_method_restores_inheritance():
    recorder = SpanRecorder()
    recorder.wrap(_Child, "work", "layer")
    assert "work" in _Child.__dict__
    recorder.restore()
    assert "work" not in _Child.__dict__
    assert _Child().work(2) == 4
