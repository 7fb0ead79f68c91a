"""In-memory spans around the benchmark's calls into the program.

A span records its name, start, end, parent span and job id. Spans are kept
in memory while a pass runs and written out when the benchmark ends. With
tracing off, `call` is a plain function call and `span` records nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job: str | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "job": self.job, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call `fn`, inside a span named after the layer call when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans: list[dict]) -> dict[str, tuple[float, int]]:
    """(self seconds, call count) per span name.

    A span's self time is its duration minus the time its child spans cover;
    spans come from one thread, so children never overlap.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, s in enumerate(spans):
        agg = out[s["name"]]
        agg[0] += (s["end"] - s["start"]) - child_time[i]
        agg[1] += 1
    return {name: (v[0], v[1]) for name, v in out.items()}
