"""In-memory span tracing by rebinding module attributes.

A ``Tracer`` keeps every span in a list until the run ends. ``Patcher``
replaces a function wherever a module binds it (``from .fitbase import
assemble_system`` makes a second binding that must be rebound too) and puts
every original back on ``restore``. Only one thread may call traced code,
because the open-span stack is shared.
"""

from __future__ import annotations

import functools
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    trace_id: str
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans with name, start, end, parent index and a per-run trace id."""

    def __init__(self, trace_id: str | None = None, clock: Callable[[], float] = time.perf_counter):
        self.trace_id = trace_id or uuid.uuid4().hex
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def open(self, name: str) -> int:
        if threading.get_ident() != self._thread:
            raise RuntimeError(f"span {name!r} opened outside the tracer's thread; run with one worker")
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, self.trace_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        return span

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``count(counts, args, kwargs, result)`` adds work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if count is not None:
                count(span.counts, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's durations.

        Spans open and close on one thread in stack order, so a span's
        children are disjoint and lie inside it.
        """
        out = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.duration
        return out

    def records(self) -> Iterable[dict]:
        for i, (span, self_s) in enumerate(zip(self.spans, self.self_times())):
            yield {
                "id": i,
                "trace_id": span.trace_id,
                "name": span.name,
                "parent": span.parent,
                "start": span.start,
                "end": span.end,
                "self_s": self_s,
                **({"counts": span.counts} if span.counts else {}),
            }


class Patcher:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, original: Callable, replacement: Callable, modules: Iterable[ModuleType]) -> int:
        """Replace every module-level binding of ``original``; returns how many."""
        hits = 0
        for module in modules:
            names = [name for name, value in vars(module).items() if value is original]
            for name in names:
                self.set(module, name, replacement)
                hits += 1
        return hits

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
