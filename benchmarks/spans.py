"""In-memory spans recorded around calls into mtharness layers.

A span has a name, a start and an end (``time.perf_counter`` seconds),
the id of the span that was open when it started, and a run id shared
by every span of one traced pass. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(len(self.spans), name, self._open[-1] if self._open else None, self.run, time.perf_counter())
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str, run: int) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.run == run]

    def total(self, name: str, run: int) -> float:
        """Summed duration of the spans called ``name`` in one run (0 if none)."""
        return sum(s.duration for s in self.named(name, run))

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end)) for c in self.spans if c.parent == span.id
        )
        covered = 0.0
        reach = span.start
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def write(self, path: Path) -> None:
        path.write_text("".join(json.dumps(asdict(s)) + "\n" for s in self.spans), encoding="utf-8")
