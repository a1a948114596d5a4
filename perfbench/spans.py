"""In-memory spans around calls into the program, and their aggregation.

A span records its name, its parent span, start and end times, whether the
call raised, work counts and, on the memory pass, the peak of memory
allocated while it was open. Spans live in a list until the traced run
ends and the driver writes them out.
"""
from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """Collects the spans of one traced run.

    ``memory_calls`` maps a span name to the ordinals (0 for its first call)
    of the calls whose peak allocation to record as ``peak_alloc``: the
    highest tracemalloc total while the span was open, minus the total when
    it opened. tracemalloc runs only while such a span is open, because it
    slows allocation-heavy Python code by an order of magnitude.
    """

    def __init__(self, run_id: str, memory_calls=None, clock=time.perf_counter):
        self.run_id = run_id
        self.spans = []
        self._clock = clock
        self._open = []
        self._memory_calls = {k: frozenset(v) for k, v in (memory_calls or {}).items()}
        self._ordinals = {}
        # [base, best] per open memory span, innermost last
        self._peaks = []

    @contextmanager
    def span(self, name: str):
        ordinal = self._ordinals.get(name, 0)
        self._ordinals[name] = ordinal + 1
        rec = {"id": len(self.spans), "run": self.run_id, "name": name,
               "ordinal": ordinal,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": None, "end": None, "error": False, "counts": {}}
        self.spans.append(rec)
        self._open.append(rec)
        tracks = ordinal in self._memory_calls.get(name, ())
        if tracks:
            if not self._peaks:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1][1] = max(self._peaks[-1][1], peak)
            self._peaks.append([current, current])
            tracemalloc.reset_peak()
        rec["start"] = self._clock()
        try:
            yield rec
        except BaseException:
            rec["error"] = True
            raise
        finally:
            rec["end"] = self._clock()
            if tracks:
                _, peak = tracemalloc.get_traced_memory()
                base, best = self._peaks.pop()
                best = max(best, peak)
                rec["peak_alloc"] = best - base
                if self._peaks:
                    self._peaks[-1][1] = max(self._peaks[-1][1], best)
                else:
                    tracemalloc.stop()
            self._open.pop()

    def wrap(self, fn, name: str, key: str | None = None, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, kwargs, result)``
        gives the work to add to the span's count ``key``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if key is not None:
                    rec["counts"][key] = rec["counts"].get(key, 0) + count(args, kwargs, result)
                return result

        return traced


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(rec)
    out = {}
    for rec in spans:
        start, end = rec["start"], rec["end"]
        inside = [(max(c["start"], start), min(c["end"], end))
                  for c in children.get(rec["id"], ())]
        out[rec["id"]] = (end - start) - _covered([iv for iv in inside if iv[1] > iv[0]])
    return out


def count_beneath(spans, ancestor: str, name: str, key: str) -> None:
    """Add to each ``ancestor`` span, under ``key``, the number of ``name``
    spans beneath it."""
    by_id = {rec["id"]: rec for rec in spans}
    for rec in spans:
        if rec["name"] == ancestor:
            rec["counts"].setdefault(key, 0)
    for rec in spans:
        if rec["name"] != name:
            continue
        parent = rec["parent"]
        while parent is not None:
            up = by_id[parent]
            if up["name"] == ancestor:
                up["counts"][key] += 1
            parent = up["parent"]


def largest_calls(spans, names, key: str) -> dict:
    """For each span name, the ordinal of its call with the largest total of
    count ``key`` in its subtree, ties going to the longer call."""
    by_id = {rec["id"]: rec for rec in spans}
    work = {rec["id"]: 0 for rec in spans}
    for rec in spans:
        amount = rec["counts"].get(key, 0)
        node = rec
        while node is not None:
            work[node["id"]] += amount
            node = by_id.get(node["parent"])
    best = {}
    for rec in spans:
        if rec["name"] in names:
            rank = (work[rec["id"]], rec["end"] - rec["start"])
            if rec["name"] not in best or rank > best[rec["name"]][0]:
                best[rec["name"]] = (rank, rec["ordinal"])
    return {name: [ordinal] for name, (_, ordinal) in best.items()}


def aggregate(spans) -> dict:
    """Per span name: calls, errors, total and self seconds, summed counts
    and the largest peak allocation."""
    selfs = self_times(spans)
    out = {}
    for rec in spans:
        agg = out.setdefault(rec["name"], {"calls": 0, "errors": 0, "s": 0.0,
                                           "self_s": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["errors"] += int(rec["error"])
        agg["s"] += rec["end"] - rec["start"]
        agg["self_s"] += selfs[rec["id"]]
        for key, value in rec["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
        if "peak_alloc" in rec:
            agg["peak_alloc"] = max(agg.get("peak_alloc", 0), rec["peak_alloc"])
    return out
