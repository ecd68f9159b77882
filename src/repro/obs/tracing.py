"""Sim-clock span tracing with parent/child links and a JSONL exporter.

A :class:`Span` is one timed phase of one operation: the put-path root
span, the PI / RB / DI index primitives under it (sync path), or the
enqueue → APS-apply pair (async path — the gap between those two spans
*is* the Figure 11 staleness window for that mutation).  Spans read time
only from the injected clock (the simulator's ``now``), so traces are
bit-identical across identically seeded runs.

Every finished span also feeds its duration into the registry histogram
``span_ms{span=<name>}``, so per-phase latency percentiles survive even
after the span retention cap is hit: the registry is bounded-memory, the
span list is the (capped) drill-down detail.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    __slots__ = ("tracer", "name", "span_id", "parent_id",
                 "start_ms", "end_ms", "tags")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], start_ms: float,
                 tags: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.tags = tags

    @property
    def duration_ms(self) -> Optional[float]:
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    def end(self, **tags: Any) -> None:
        if self.end_ms is not None:
            return  # idempotent: try/finally callers may double-end
        if tags:
            self.tags.update(tags)
        self.tracer._finish(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
            "tags": dict(sorted(self.tags.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.name} id={self.span_id} "
                f"parent={self.parent_id} dur={self.duration_ms}>")


class _NullSpan:
    """Returned when tracing is disabled: accepts the full Span surface,
    records nothing."""

    span_id = None
    parent_id = None
    name = "null"
    duration_ms = None

    def end(self, **tags: Any) -> None:
        return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSpan>"


NULL_SPAN = _NullSpan()


class Tracer:
    """Span factory and ring buffer: one per cluster, timestamps from the
    simulator clock, span durations mirrored into the metrics registry
    as ``span_ms{op=}`` histograms."""

    def __init__(self, clock: Callable[[], float],
                 registry: Optional[MetricsRegistry] = None,
                 max_spans: int = 20_000, enabled: bool = True):
        self.clock = clock
        self.registry = registry
        self.max_spans = max_spans
        self.enabled = enabled
        self.finished = 0
        self.dropped = 0
        self._next_id = 0
        self._spans: List[Span] = []
        # span name -> span_ms{span=name} histogram handle; _finish runs
        # once per span, so resolving through the registry every time was
        # a measurable slice of the mixed-workload profile.
        self._span_ms: Dict[str, Any] = {}

    def start(self, name: str,
              parent: Union[Span, _NullSpan, int, None] = None,
              **tags: Any) -> Union[Span, _NullSpan]:
        if not self.enabled:
            return NULL_SPAN
        self._next_id += 1
        if parent is None:
            parent_id = None
        elif parent.__class__ is int:
            parent_id = parent
        else:
            parent_id = parent.span_id
        return Span(self, name, self._next_id, parent_id,
                    self.clock(), tags)

    def _finish(self, span: Span) -> None:
        span.end_ms = self.clock()
        self.finished += 1
        if self.registry is not None:
            histogram = self._span_ms.get(span.name)
            if histogram is None:
                histogram = self.registry.histogram("span_ms", span=span.name)
                self._span_ms[span.name] = histogram
            histogram.observe(span.end_ms - span.start_ms)
        if len(self._spans) < self.max_spans:
            self._spans.append(span)
        else:
            self.dropped += 1

    # -- queries ----------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Span]:
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self._spans if s.parent_id == span.span_id]

    # -- export -----------------------------------------------------------

    def export_jsonl(self, path: Optional[str] = None) -> str:
        """One JSON object per finished span, ordered by (start, id) —
        a stable, diffable trace of the whole run."""
        ordered = sorted(self._spans, key=lambda s: (s.start_ms, s.span_id))
        text = "\n".join(json.dumps(s.to_dict(), sort_keys=True)
                         for s in ordered)
        if text:
            text += "\n"
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text
