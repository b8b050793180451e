"""In-memory spans around calls into the program, and self time.

A Tracer replaces a module attribute with a wrapper that records one span
per call: name, start, end, parent span and the (patient, source) it
serves. Spans stay in memory until `write_jsonl`. Tracing is single-process:
the traced run calls the program in-process at --jobs 1.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    patient: str | None = None
    source: str | None = None
    raised: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the attributes it patches until `restore`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, before=None, after=None):
        """`before(span, args, kwargs)` and `after(span, result)` run outside the timed window."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), name, parent.sid if parent else None)
            if parent is not None:
                span.patient, span.source = parent.patient, parent.source
            if before is not None:
                before(span, args, kwargs)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if after is not None:
                after(span, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, before, after))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children[span.sid]):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
            cursor = max(cursor, end)
        out.append(span.duration - covered)
    return out
