"""Spans around the benchmark's calls into gf2kq.

A span is (name, start, end, case index). The tracer keeps spans in memory;
`run.py` writes them out when the run ends. With tracing off, a span is one
`nullcontext`.
"""

from __future__ import annotations

import contextlib
import time


class NullTracer:
    """Tracing off: spans are no-ops."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Spans kept in memory as (name, start, end, case index), written at the end."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.case = -1

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, t0, time.perf_counter(), self.case))
