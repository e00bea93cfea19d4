"""Spans and clocks: how the benchmark times its calls into triplify.

A span is (id, parent, name, start, end) with perf_counter seconds. The
benchmark opens one root span per timed operation (and per set-up) and
one child span around each call into a module's public function, named
`module.function`. Spans stay in memory and are written out when the run
ends. A disabled tracer hands out one shared no-op context, so the
untraced run pays only the `with` statement.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.index, parent, self.name, perf_counter(), 0.0])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][4] = perf_counter()
        tr.stack.pop()
        return False


class Stopwatch:
    """Adds the wall time spent inside each `with stopwatch:` block to `total`.

    Set-ups time only their calls into triplify with it, so the
    benchmark's own work between those calls stays out of `setup_s`.
    """

    __slots__ = ("total", "_start")

    def __init__(self):
        self.total = 0.0
        self._start = 0.0

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += perf_counter() - self._start
        return False


class Samples:
    """Up to `capacity` floats, stored in an array allocated up front.

    Adding past the capacity drops the value; `full` says when that
    starts, so a timed loop can stop there.
    """

    def __init__(self, capacity: int):
        self._values = array("d", bytes(8 * capacity))
        self.count = 0

    def add(self, value: float) -> None:
        if self.count < len(self._values):
            self._values[self.count] = value
            self.count += 1

    @property
    def full(self) -> bool:
        return self.count == len(self._values)

    def values(self) -> list[float]:
        return self._values[: self.count].tolist()


class Tracer:
    """Collects spans when enabled; otherwise every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": i, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )


def self_times(tracer: Tracer, root_name: str) -> list[dict[str, float]]:
    """Self time by span name, one dict per root span called `root_name`.

    A span's self time is its duration minus the durations of its direct
    children. The root's own self time, the part of the operation no
    module call covers, is reported under the key "uncovered".
    """
    spans = tracer.spans
    child_time: dict[int, float] = defaultdict(float)
    root_of: dict[int, int] = {}
    for i, parent, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
            root_of[i] = root_of.get(parent, parent)
    per_root: dict[int, dict[str, float]] = {}
    for i, parent, name, start, end in spans:
        if parent is None:
            if name == root_name:
                per_root[i] = {"uncovered": end - start - child_time[i]}
            continue
        bucket = per_root.get(root_of[i])
        if bucket is not None:
            bucket[name] = bucket.get(name, 0.0) + (end - start - child_time[i])
    return list(per_root.values())
