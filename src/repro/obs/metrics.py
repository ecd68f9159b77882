"""Metrics registry: counters, gauges and fixed-bucket histograms.

Design constraints, in order:

1. **Deterministic** — no wall-clock reads, no unordered iteration.
   Snapshots sort by ``(name, labels)`` so two identically seeded
   simulation runs serialise identically.
2. **Cheap** — one dict lookup to resolve a metric handle (call sites
   hold handles, so the hot path is an integer add / a bisect), fixed
   memory per histogram regardless of sample count.
3. **Un-driftable** — Table 2's ``OpCounters`` and every probe write into
   the same registry the benchmark report snapshots, so there is one
   source of truth for every number the repo emits.

Labels are free-form keyword arguments; the same ``(name, labels)`` pair
always returns the same metric object, and reusing a name with a
different metric kind is an error.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_LATENCY_BUCKETS_MS"]

# Geometric ladder from 50 µs to ~17 simulated minutes: wide enough to
# hold both an in-memory memtable op and a saturated-AUQ staleness lag
# (the paper saw hundreds of seconds at 4000 TPS, Figure 11).
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
    25_000.0, 50_000.0, 100_000.0, 250_000.0, 500_000.0, 1_000_000.0)


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(label_key: Tuple[Tuple[str, str], ...]) -> str:
    if not label_key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in label_key) + "}"


class _Metric:
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels

    @property
    def full_name(self) -> str:
        return self.name + _render_labels(self.labels)


class Counter(_Metric):
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        super().__init__(name, labels)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge(_Metric):
    """An instantaneous level (queue depth, last observed lag).

    Tracks the high-watermark alongside the current value — for the AUQ
    depth gauge the watermark *is* the backlog peak of Figure 11.
    """

    __slots__ = ("value", "max_value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        super().__init__(name, labels)
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, n: float = 1.0) -> None:
        self.set(self.value + n)

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class Histogram(_Metric):
    """Fixed-bucket histogram with percentile estimation.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket
    catches everything above the last edge.  Percentiles interpolate
    linearly inside the target bucket and clamp to the exact observed
    ``[min, max]``, so an empty histogram reports 0.0 and a single-sample
    histogram reports that sample exactly at every percentile.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = (),
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS):
        super().__init__(name, labels)
        ordered = tuple(float(b) for b in bounds)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram {name}: bounds must be non-empty, sorted, "
                f"unique: {bounds!r}")
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        if value.__class__ is not float:
            value = float(value)
        if self.count == 0:
            self.min = self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += 1
        self.sum += value
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        target = max(1.0, p / 100.0 * self.count)
        cumulative = 0
        lower = 0.0
        for i, n in enumerate(self.bucket_counts):
            upper = (self.bounds[i] if i < len(self.bounds) else self.max)
            if n and cumulative + n >= target:
                fraction = (target - cumulative) / n
                estimate = lower + fraction * (upper - lower)
                return min(self.max, max(self.min, estimate))
            cumulative += n
            lower = upper
        return self.max  # pragma: no cover - unreachable (counts sum up)

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.name} vs {other.name}")
        if other.count == 0:
            return
        if self.count == 0:
            self.min, self.max = other.min, other.max
        else:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.count += other.count
        self.sum += other.sum
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """The cluster-wide metric namespace."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Tuple], _Metric] = {}
        # Raw-kwargs memo: call sites that re-resolve (name, labels) per
        # operation skip _label_key's sort+str entirely after the first
        # hit.  Keyed on the unsorted items tuple (order-sensitive — at
        # worst a few extra entries per metric) plus cls, so kind
        # mismatches still fall through to the checked slow path.
        self._raw_cache: Dict[Tuple, _Metric] = {}

    def _resolve(self, cls, name: str, labels: Dict[str, Any],
                 **kwargs) -> _Metric:
        try:
            raw = (cls, name, tuple(labels.items()))
            cached = self._raw_cache.get(raw)
            if cached is not None:
                return cached
        except TypeError:            # unhashable label value
            raw = None
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise ValueError(
                f"metric {name!r}{_render_labels(key[1])} already registered "
                f"as {type(metric).__name__}, requested {cls.__name__}")
        if raw is not None:
            self._raw_cache[raw] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._resolve(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._resolve(Gauge, name, labels)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
                  **labels: Any) -> Histogram:
        metric = self._resolve(Histogram, name, labels, bounds=bounds)
        return metric

    # -- queries ----------------------------------------------------------

    def find(self, name: str) -> List[_Metric]:
        """Every metric registered under ``name``, sorted by labels."""
        return [metric for key, metric in sorted(self._metrics.items())
                if key[0] == name]

    def merged_histogram(self, name: str) -> Histogram:
        """Merge every same-named histogram (e.g. per-server ``auq_lag_ms``)
        into one cluster-wide view."""
        parts = [m for m in self.find(name) if isinstance(m, Histogram)]
        merged = Histogram(name, bounds=parts[0].bounds
                           if parts else DEFAULT_LATENCY_BUCKETS_MS)
        for part in parts:
            merged.merge(part)
        return merged

    def total(self, name: str) -> float:
        """Sum of every same-named counter/gauge value across labels."""
        return sum(m.value for m in self.find(name)
                   if isinstance(m, (Counter, Gauge)))

    # -- snapshot ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A plain-dict, deterministically ordered view of every metric —
        what the bench report embeds next to each result."""
        out: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if isinstance(metric, Counter):
                out["counters"][metric.full_name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][metric.full_name] = {
                    "value": metric.value, "max": metric.max_value}
            else:
                out["histograms"][metric.full_name] = metric.summary()
        return out
