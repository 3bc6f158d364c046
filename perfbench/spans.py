"""Spans around the benchmark's calls into nmrqc's layers.

The benchmark wraps each call it makes into a layer's public function in
``tracer.span("<layer>.<what>")``. Nothing inside the package is touched, so
every per-layer number is measured from outside it. A disabled tracer hands
out one shared no-op context, which is what the end-to-end runs use.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter_ns

_NO_SPAN = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter_ns()
        self.tracer.records.append((self.name, self.tracer.job, self.start, end - self.start,
                                    exc_type is not None))
        return False


class Tracer:
    """In-memory span log: (name, job index, start ns, duration ns, raised)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.job = -1
        self.records: list[tuple[str, int, int, int, bool]] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN
