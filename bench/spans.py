"""Spans around the benchmark's calls into decreal.

A span is (op id, span id, parent id, name, start ns, end ns).  Each
operation opens one root span; every call the operation makes into a
public function of a decreal module is a child span of it.  Spans and
counts stay in memory and are written out once, when the run ends.
With tracing off, ``call`` only forwards the call.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import process_time_ns


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._op: int | None = None
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def op(self, name: str):
        if not self.on:
            yield
            return
        self._op = self._new_id()
        start = process_time_ns()
        try:
            yield
        finally:
            self.spans.append((self._op, self._op, None, name, start, process_time_ns()))
            self._op = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        span = self._new_id()
        start = process_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self._op, span, self._op, name, start, process_time_ns()))

    def count(self, name: str, amount: int = 1) -> None:
        if self.on:
            self.counts[name] += amount

    def busy_seconds(self) -> dict[str, float]:
        """Summed duration of the child spans, by name."""
        busy: Counter = Counter()
        for _, _, parent, name, start, end in self.spans:
            if parent is not None:
                busy[name] += (end - start) / 1e9
        return dict(busy)

    def write(self, path) -> None:
        keys = ("op", "span", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
