"""In-memory spans around robustroc's public functions.

A function is wrapped where its caller looks it up: ``robustroc.simulate.fit_mm_linear``
is the name ``run_campaign`` and ``fit_variant_model`` call, ``robustroc.robust.m_scale``
the one the MM fits call. Each call records a span ``[name, start, end, parent, unit]``;
``unit`` is the replication or command the span belongs to. Spans stay in memory until
``write_csv`` runs at the end of the benchmark.
"""
from __future__ import annotations

import csv
import time
from collections import defaultdict
from typing import Callable, Optional

_clock = time.perf_counter


class Patches:
    """Module attributes replaced by wrappers, restorable in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def undo(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def stamp_calls(patches: Patches, module, attr: str, stamps: list,
                on_call: Optional[Callable[[], None]] = None) -> None:
    """Append the clock to ``stamps`` as each call of ``module.attr`` starts.

    This is how replication boundaries are seen inside ``run_campaign`` without
    tracing: a replication starts with its ``generate`` call.
    """
    fn = getattr(module, attr)

    def stamped(*args, **kwargs):
        stamps.append(_clock())
        if on_call is not None:
            on_call()
        return fn(*args, **kwargs)

    patches.set(module, attr, stamped)


class Tracer:
    """Span recorder; spans of one replication or command share ``unit``."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.unit = 0
        self._stack: list = []

    def next_unit(self) -> None:
        self.unit += 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
        spans.append(span)
        stack.append(index)
        span[1] = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = _clock()
            stack.pop()

    def wrap(self, patches: Patches, module, attr: str, name: str,
             count: Optional[Callable[[dict, object], None]] = None) -> None:
        """Replace ``module.attr`` by a traced version; ``count(counts, result)``
        reads counts from each returned value."""
        fn = getattr(module, attr)
        call, counts = self.call, self.counts

        def traced(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            if count is not None:
                count(counts, result)
            return result

        patches.set(module, attr, traced)

    def self_times(self) -> dict:
        """Seconds per span name: each span's duration minus its children's."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        for (name, start, end, _, _), inner in zip(spans, child):
            totals[name] += (end - start) - inner
        return totals

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "unit"])
            for index, (name, start, end, parent, unit) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), parent, unit])
