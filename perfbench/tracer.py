"""In-memory span tracer that wraps annodist's public functions from outside.

A :class:`Tracer` records one span per call of a wrapped function: name,
start, end and the index of the enclosing span.  :func:`patched` swaps a
wrapper in at every place the original function object is bound inside the
``annodist`` package (module attributes, ``from ... import`` aliases and
re-exports in ``annodist/__init__``) and restores the originals on exit.
Self time of a span is its duration minus the union of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

FAILED = object()  # the ``result`` a count hook sees when the call raised


class Tracer:
    """Collects spans and per-span counters; single-threaded by design."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent_index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Wrapper for ``fn`` that records a span named ``name``.

        ``count(counts, name, args, kwargs, result)`` adds work counters
        after every call; ``result`` is :data:`FAILED` when the call raised,
        which also bumps ``<name>.errors``.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            result = FAILED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                spans[idx][2] = clock()
                self.counts[f"{name}.calls"] += 1
                if result is FAILED:
                    self.counts[f"{name}.errors"] += 1
                if count is not None:
                    count(self.counts, name, args, kwargs, result)

        return traced

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the union of child intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for idx, (name, start, end, parent) in enumerate(self.spans):
            out.append((end - start) - _covered(children.get(idx, ()), start, end))
        return out

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds by name, inclusive seconds by name)."""
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            self_s[name] += own
            incl_s[name] += end - start
        return dict(self_s), dict(incl_s)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
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


def _package_modules(package: str):
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


@contextlib.contextmanager
def patched(tracer: Tracer, targets, package: str = "annodist"):
    """Install tracing wrappers for ``targets`` and restore them on exit.

    ``targets`` holds ``(span_name, owner, attribute, count)`` tuples.  A
    module owner's function is replaced wherever that function object is
    bound in any loaded module of ``package``; a class owner's attribute is
    replaced on the class itself (staticmethods stay staticmethods).
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for span_name, owner, attr, count in targets:
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(tracer.wrap(span_name, raw.__func__, count))
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
                continue
            wrapper = tracer.wrap(span_name, raw, count)
            for mod in _package_modules(package):
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        undo.append((mod, name, raw))
                        setattr(mod, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
