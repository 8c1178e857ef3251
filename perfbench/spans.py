"""In-memory spans recorded around calls into the lab's layers.

A span is ``(name, start, end, parent, job)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``job`` the index of the benchmark
job that caused it.  Spans are recorded by replacing a module attribute
that the caller looks up at call time (``hconvexlab.falsify.confirm``,
``hconvexlab.opcalc.spectral_decompose``, ...) with a wrapper, so the lab
itself is not edited.  Spans stay in memory until ``write`` is called once
at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    """Collects spans while ``enabled``; a disabled wrapper only forwards."""

    def __init__(self):
        self.records = []
        self.job = -1
        self.enabled = False
        self._stack = []

    def wrap(self, fn, name):
        """``fn`` recording one span per call.

        ``name`` is the span name, or a callable taking the call's
        arguments and returning it (used to split Jacobi by dimension).
        """
        records, stack = self.records, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                records[index] = (label, start, end, parent, self.job)

        return traced

    @contextlib.contextmanager
    def installed(self, points):
        """Wrap each ``(module, attribute, name)`` point; restore on exit."""
        saved = []
        try:
            for module_name, attr, name in points:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write every span as JSON, with span names interned."""
        names = sorted({r[0] for r in self.records})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "names": names,
                       "spans": [[index[n], s, e, p, j]
                                 for n, s, e, p, j in self.records]}, fh)


def self_times(records) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in records:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(records):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def summarize(records, passes: int) -> dict:
    """Per span name: calls and self seconds per pass, mean µs per call.

    ``us_per_call`` is the mean inclusive duration (children included),
    the time one call into the layer costs its caller.
    """
    totals = {}
    for record, own in zip(records, self_times(records)):
        entry = totals.setdefault(record[0], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += record[2] - record[1]
        entry[2] += own
    return {name: {"calls": calls / passes, "self_s": own / passes,
                   "us_per_call": 1e6 * total / calls}
            for name, (calls, total, own) in totals.items()}


def wrapper_cost(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds a recording wrapper adds to one call: the median over
    ``rounds`` of a wrapped no-op's time minus the bare no-op's."""
    def noop():
        return None

    samples = []
    for _ in range(rounds):
        tracer = Tracer()
        tracer.enabled = True
        traced = tracer.wrap(noop, "noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        samples.append((t2 - t1 - (t1 - t0)) / calls)
    return statistics.median(samples)
