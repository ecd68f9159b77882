"""Latency/throughput measurement.

The drivers record per-operation latencies into histograms; reports give
the mean/percentiles and the achieved throughput (completed operations
over the measurement window) — the two axes of Figures 7, 8 and 10.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

__all__ = ["LatencyRecorder", "OpStats"]


@dataclasses.dataclass
class OpStats:
    op: str
    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    throughput_tps: float

    def __str__(self) -> str:  # pragma: no cover - human diagnostics
        return (f"{self.op}: n={self.count} mean={self.mean_ms:.2f}ms "
                f"p95={self.p95_ms:.2f}ms tps={self.throughput_tps:.0f}")


def _percentile(ordered: Sequence[float], p: float) -> float:
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1,
               max(0, int(round(p / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


class LatencyRecorder:
    """Collects latencies per operation type within a measurement window."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = {}
        self.window_start_ms: Optional[float] = None
        self.window_end_ms: Optional[float] = None
        self.recording = True

    def begin_window(self, now_ms: float) -> None:
        """Discard warm-up samples and start the measured window."""
        self._samples.clear()
        self.window_start_ms = now_ms
        self.recording = True

    def end_window(self, now_ms: float) -> None:
        self.window_end_ms = now_ms
        self.recording = False

    def record(self, op: str, latency_ms: float) -> None:
        if self.recording:
            self._samples.setdefault(op, []).append(latency_ms)

    def stats(self, op: str) -> OpStats:
        return self._summary(op, self._samples.get(op, []))

    def overall(self) -> OpStats:
        return self._summary("all", [latency
                                     for samples in self._samples.values()
                                     for latency in samples])

    def _summary(self, op: str, samples: List[float]) -> OpStats:
        samples = sorted(samples)
        window = self._window_ms()
        tput = len(samples) / (window / 1000.0) if window > 0 else 0.0
        if not samples:
            return OpStats(op, 0, 0.0, 0.0, 0.0, 0.0, 0.0, tput)
        return OpStats(
            op=op,
            count=len(samples),
            mean_ms=sum(samples) / len(samples),
            p50_ms=_percentile(samples, 50),
            p95_ms=_percentile(samples, 95),
            p99_ms=_percentile(samples, 99),
            max_ms=samples[-1],
            throughput_tps=tput,
        )

    def _window_ms(self) -> float:
        if self.window_start_ms is None or self.window_end_ms is None:
            return 0.0
        return self.window_end_ms - self.window_start_ms
