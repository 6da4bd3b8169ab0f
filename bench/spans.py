"""Spans recorded from outside the program, and self times from them.

The benchmark rebinds the names one metasim module imports from
another (``runner.simulate``, ``observables.histogram``, ...) to
wrappers that open a span around the original call. Spans are kept in
memory as ``{id, name, start, end, parent}`` and written out when the
run ends. A span's self time is its duration minus the durations of
its direct children; calls are nested on one thread, so children never
overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrapper(self, name: str):
        """``make`` argument for ``rebound``: wrap in a span ``name``."""
        return lambda fn: self.wrap(fn, name)


@contextmanager
def rebound(bindings):
    """Replace ``module.attr`` by ``make(original)`` for each
    ``(module, attr, make)``, restoring the originals on exit.

    A name the module no longer has is skipped, so a later refactor of
    the program's imports leaves its layer reading 0 instead of failing
    the run."""
    saved = []
    try:
        for module, attr, make in bindings:
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
    return dict(out)


def call_counts(spans: list[dict]) -> dict[str, int]:
    return dict(Counter(s["name"] for s in spans))
