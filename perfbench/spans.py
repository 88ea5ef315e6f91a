"""In-memory spans recorded around the benchmark's calls into each layer.

A span carries a name, a start, an end and the index of the span that
caused it (its parent).  Spans stay in memory until the run ends and are
then written out in one piece, so recording costs two clock reads and a
list append.  A disabled recorder (the untraced run) does nothing at all.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; each thread nests its own spans under its own stack."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None) -> Iterator[None]:
        """Record ``name`` around the block.

        The parent defaults to the innermost open span of this thread;
        worker threads pass the span that spawned them explicitly.
        """
        if not self.enabled:
            yield
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def current(self) -> int | None:
        """Index of this thread's innermost open span (None outside any)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.seconds for span in self.spans if span.name == name)

    def self_times(self) -> dict[str, float]:
        """Per-name self time: duration minus the union its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(index, ()), key=lambda c: c.start):
                start = max(child.start, cursor)
                end = min(child.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds - covered
        return totals

    def to_list(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]
