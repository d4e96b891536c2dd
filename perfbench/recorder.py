"""Operation accounting and in-memory spans for one benchmark run.

Every public vidspec call the benchmark makes goes through ``Recorder.call``:
it is counted as attempted, then as succeeded, failed with a ``VidspecError``
or failed with another exception. With tracing on, each call and each phase
also leaves a ``perf_counter`` span (name, start, end, parent, request), kept
in memory and written out once the run ends. Output checks run between calls,
so their cost never lands inside a span. Peak memory is measured only by a
recorder made for it, whose call times are not used.
"""

from __future__ import annotations

import time
import tracemalloc
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

MIB = 1024.0 * 1024.0


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Recorder.spans, -1 at top level
    request: int


class Recorder:
    def __init__(self, tracing: bool, vidspec_error: type, measure_peak: bool = False):
        self.tracing = tracing
        self.measure_peak = measure_peak
        self._vidspec_error = vidspec_error
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.request = -1
        self.attempted = 0
        self.vidspec_failed = 0
        self.other_failed = 0
        self.check_failed = 0
        self.failures: Counter[tuple[str, str]] = Counter()  # (call, exception type)
        self.tracebacks: dict[tuple[str, str], str] = {}
        self.check_messages: list[str] = []
        self.peak_mib: dict[str, list[float]] = defaultdict(list)

    @property
    def failed(self) -> int:
        return self.vidspec_failed + self.other_failed + self.check_failed

    def _parent(self) -> int:
        return self._open[-1] if self._open else -1

    @contextmanager
    def phase(self, name: str):
        """A span that encloses the calls of one request."""
        if not self.tracing:
            yield
            return
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._parent(), self.request))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            span = self.spans[index]
            self.spans[index] = Span(span.name, span.start, time.perf_counter(), span.parent, span.request)

    def call(self, name: str, fn, *args, peak_memory: bool = False, **kwargs):
        """Run one public call; return (ok, result, seconds).

        The benchmark must keep running whatever the program raises, so any
        exception is caught here, counted by type, and its first traceback kept.
        With ``peak_memory`` on a recorder that measures peaks, tracemalloc
        records the peak of the allocations made inside the call.
        """
        self.attempted += 1
        measure = peak_memory and self.measure_peak
        if measure:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        except Exception as exc:  # counted and reported below
            result = None
            ok = False
            key = (name, type(exc).__name__)
            self.failures[key] += 1
            self.tracebacks.setdefault(key, traceback.format_exc())
            if isinstance(exc, self._vidspec_error):
                self.vidspec_failed += 1
            else:
                self.other_failed += 1
        end = time.perf_counter()
        if measure:
            self.peak_mib[name].append(tracemalloc.get_traced_memory()[1] / MIB)
            tracemalloc.stop()
        if self.tracing:
            self.spans.append(Span(name, start, end, self._parent(), self.request))
        return ok, result, end - start

    def check(self, name: str, problem: str | None) -> bool:
        """Record the outcome of one output check of call ``name``.

        A failed check counts the call as a failed operation.
        """
        if problem is None:
            return True
        self.check_failed += 1
        self.failures[(name, "check")] += 1
        if len(self.check_messages) < 20:
            self.check_messages.append(f"request {self.request}: {name}: {problem}")
        return False

    def durations(self, name: str) -> list[float]:
        """Seconds of every span with this name."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def first_durations(self, name: str) -> list[float]:
        """Seconds of the first span with this name in each request."""
        seen: set[int] = set()
        out = []
        for s in self.spans:
            if s.name == name and s.request not in seen:
                seen.add(s.request)
                out.append(s.end - s.start)
        return out
