"""Thread-aware span recorder and self-time arithmetic for the traced run.

A span is (id, parent id, name, thread id, start, end) with perf_counter
times.  The open span lives in a context variable, so a span's parent is the
innermost span open in the same context.  Work handed to a thread pool runs
in a copy of the submitting context (see ``run_in_context``), which makes the
call that submitted it the parent of every span the worker opens.
"""
from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and named counters in memory; safe to use from threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "open_span", default=None)

    @contextmanager
    def span(self, name: str):
        parent = self._current.get()
        with self._lock:
            sid = next(self._ids)
        token = self._current.set(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end))

    def wrap(self, name: str, fn, observe=None):
        """fn with a span around every call; observe(args, kwargs, result) runs after it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def count(self, name: str, amount: float = 1):
        with self._lock:
            self.counters[name] += amount

    def record_max(self, name: str, value: float):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)


def run_in_context(fn):
    """fn bound to a copy of the caller's context, for submission to a pool."""
    return functools.partial(contextvars.copy_context().run, fn)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children running in parallel threads overlap; their union is subtracted,
    so a parent waiting on a pool has near-zero self time.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans}


class NameStats(NamedTuple):
    calls: int
    busy_s: float
    self_s: float


def by_name(spans) -> dict[str, NameStats]:
    """Per span name: call count, summed duration, summed self time."""
    own = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += s.duration
        self_s[s.name] += own[s.id]
    return {n: NameStats(calls[n], busy[n], self_s[n]) for n in calls}
