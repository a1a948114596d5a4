"""Span bookkeeping of the traced driver: self time, counts, memory peaks."""
from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _rec(id_, name, parent, start, end, counts=None, ordinal=0):
    return {"id": id_, "name": name, "parent": parent, "start": start, "end": end,
            "error": False, "counts": counts or {}, "ordinal": ordinal}


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer("t", clock=clock)
    with tracer.span("outer"):
        clock.now = 1.0
        with tracer.span("mid"):
            clock.now = 2.0
            with tracer.span("leaf"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 7.0
        with tracer.span("leaf"):
            clock.now = 9.0
        clock.now = 10.0
    agg = spans.aggregate(tracer.spans)
    assert agg["outer"]["s"] == 10.0
    assert agg["outer"]["self_s"] == 10.0 - 5.0 - 2.0
    assert agg["mid"]["s"] == 5.0
    assert agg["mid"]["self_s"] == 2.0
    assert agg["leaf"]["calls"] == 2
    assert agg["leaf"]["s"] == agg["leaf"]["self_s"] == 5.0
    assert [r["parent"] for r in tracer.spans] == [None, 0, 1, 0]
    assert {r["run"] for r in tracer.spans} == {"t"}


def test_self_time_counts_overlapping_children_once():
    recs = [_rec(0, "p", None, 0.0, 10.0),
            _rec(1, "c", 0, 1.0, 4.0),
            _rec(2, "c", 0, 3.0, 6.0),          # overlaps the first child
            _rec(3, "c", 0, 9.0, 12.0)]         # runs past the parent's end
    assert spans.self_times(recs)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_errors_and_counts():
    tracer = spans.Tracer("t")

    def work(n):
        if n < 0:
            raise ValueError(n)
        return list(range(n))

    traced = tracer.wrap(work, "layer.work", "items", lambda a, k, r: len(r))
    traced(3)
    traced(4)
    with pytest.raises(ValueError):
        traced(-1)
    agg = spans.aggregate(tracer.spans)["layer.work"]
    assert agg["calls"] == 3
    assert agg["errors"] == 1
    assert agg["counts"] == {"items": 7}


def test_count_beneath_and_largest_calls():
    recs = [_rec(0, "sweep", None, 0.0, 10.0),
            _rec(1, "overlap", 0, 1.0, 2.0, ordinal=0),
            _rec(2, "solve", 1, 1.0, 2.0, {"cells": 5}, ordinal=0),
            _rec(3, "overlap", 0, 3.0, 4.0, ordinal=1),
            _rec(4, "solve", 3, 3.0, 3.5, {"cells": 9}, ordinal=1),
            _rec(5, "overlap", None, 11.0, 12.0, ordinal=2)]
    spans.count_beneath(recs, "sweep", "overlap", "structures")
    assert recs[0]["counts"] == {"structures": 2}
    assert spans.largest_calls(recs, ("overlap", "solve"), "cells") == \
        {"overlap": [1], "solve": [1]}


def test_memory_peak_of_selected_calls_only():
    tracer = spans.Tracer("t", memory_calls={"alloc": [1], "outer": [0]})
    size = 8 * 2**20

    def alloc(n):
        buf = bytearray(n)
        return len(buf)

    traced = tracer.wrap(alloc, "alloc")
    traced(size)                                  # ordinal 0: not recorded
    with tracer.span("outer"):
        traced(size)                              # ordinal 1: recorded
    assert not tracemalloc.is_tracing()
    by_name = {(r["name"], r["ordinal"]): r for r in tracer.spans}
    assert "peak_alloc" not in by_name[("alloc", 0)]
    assert by_name[("alloc", 1)]["peak_alloc"] >= size
    # the outer span sees the inner peak
    assert by_name[("outer", 0)]["peak_alloc"] >= size
    assert spans.aggregate(tracer.spans)["alloc"]["peak_alloc"] >= size
