"""Spans recorded from outside the program, around calls into each layer.

The benchmark never edits the package it measures.  A traced op installs
wrappers on the public functions of each layer (instance attributes of
the objects the workload built, or module globals the layer looks up at
call time), records one span per call, and removes every wrapper when
the op ends, so untraced ops run the code exactly as shipped.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

_MISSING = object()


class Tracer:
    """In-memory spans: ``(id, parent id, name, start, end)``.

    Parents are tracked per thread, so a span opened on the server
    thread never claims a client-side span as its child.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end))

    # -- wrappers ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, transform=None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``transform(original)`` may return a replacement callable to
        wrap instead (used to hand a profile to a function that accepts
        one).  Undone by :meth:`unwrap_all`.
        """
        original = getattr(owner, attr)
        target = transform(original) if transform is not None else original

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return target(*args, **kwargs)

        # A module global or an instance attribute shadowing a method.
        previous = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, traced)

        def undo() -> None:
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

        self._undo.append(undo)

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reduction -----------------------------------------------------
    def drain(self) -> "SpanSummary":
        """Summarise and forget the spans recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return SpanSummary(spans)


class SpanSummary:
    """Per-name totals, call counts and self times of a batch of spans."""

    def __init__(self, spans: List[Tuple[int, int, str, float, float]]) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        child_time: Dict[int, float] = defaultdict(float)
        for _span_id, parent, _name, start, end in spans:
            if parent:
                child_time[parent] += end - start
        self.self_time: Dict[str, float] = defaultdict(float)
        for span_id, _parent, name, start, end in spans:
            self.total[name] += end - start
            self.calls[name] += 1
            self.self_time[name] += end - start - child_time[span_id]

    def ms(self, name: str) -> float:
        return self.total.get(name, 0.0) * 1e3

    def self_ms(self, name: str) -> float:
        return self.self_time.get(name, 0.0) * 1e3

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)
