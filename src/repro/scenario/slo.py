"""Windowed SLO accounting.

The scenario runner samples each tenant's compliance in fixed windows:
every completed operation lands in the open window's accumulator, and at
each window boundary the sampler freezes a :class:`WindowReport` —
read/update p95 against the tenant's targets plus the worst index
staleness the tracker observed inside the window.  The frozen window is
also the adaptive controller's sensor input (see
:meth:`repro.core.adaptive.AdaptiveController.observe_slo`).

p95 here is an exact order statistic over the window's samples (windows
hold tens-to-hundreds of ops, so holding them is cheap); windows with
fewer than ``MIN_SAMPLES`` of an op kind hold that bound vacuously — a
tenant cannot violate a read SLO in a window where it barely read.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.core.adaptive import SloSignal
from repro.scenario.spec import SloSpec
from repro.ycsb.workload import OpType

__all__ = ["WindowAccumulator", "WindowReport", "MIN_SAMPLES"]

# Below this many samples of an op kind in a window, its SLO bound is
# held vacuously (too little evidence to call a violation).
MIN_SAMPLES = 5


def _p95(samples: List[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[int(0.95 * (len(ordered) - 1))]


@dataclasses.dataclass
class WindowReport:
    """One tenant × one window, frozen."""

    index: int
    start_ms: float
    end_ms: float
    ops: int
    reads: int
    updates: int
    failed: int
    shed: int
    read_p95_ms: float
    update_p95_ms: float
    staleness_max_ms: float
    offered_update_fraction: float
    scheme: str
    read_ok: bool
    update_ok: bool
    staleness_ok: bool

    @property
    def compliant(self) -> bool:
        return self.read_ok and self.update_ok and self.staleness_ok

    def slo_signal(self) -> SloSignal:
        return SloSignal(read_violated=not self.read_ok,
                         update_violated=not self.update_ok,
                         staleness_violated=not self.staleness_ok)

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.index,
            "start_ms": round(self.start_ms, 3),
            "end_ms": round(self.end_ms, 3),
            "ops": self.ops,
            "reads": self.reads,
            "updates": self.updates,
            "failed": self.failed,
            "shed": self.shed,
            "read_p95_ms": round(self.read_p95_ms, 3),
            "update_p95_ms": round(self.update_p95_ms, 3),
            "staleness_max_ms": round(self.staleness_max_ms, 3),
            "offered_update_fraction": round(
                self.offered_update_fraction, 3),
            "scheme": self.scheme,
            "read_ok": self.read_ok,
            "update_ok": self.update_ok,
            "staleness_ok": self.staleness_ok,
            "compliant": self.compliant,
        }


class WindowAccumulator:
    """Mutable per-tenant accumulator for the currently open window."""

    def __init__(self, slo: SloSpec):
        self.slo = slo
        self.reset()

    def reset(self) -> None:
        self.read_lat: List[float] = []
        self.write_lat: List[float] = []
        self.failed = 0
        self.shed = 0

    def record(self, op: str, latency_ms: float) -> None:
        if op in OpType.WRITES:
            self.write_lat.append(latency_ms)
        else:
            self.read_lat.append(latency_ms)

    def record_failure(self) -> None:
        self.failed += 1

    def record_shed(self) -> None:
        self.shed += 1

    def freeze(self, index: int, start_ms: float, end_ms: float,
               staleness_max_ms: float, offered_update_fraction: float,
               scheme: str) -> WindowReport:
        """Close the window: evaluate the SLO and reset for the next."""
        slo = self.slo
        read_p95 = _p95(self.read_lat)
        update_p95 = _p95(self.write_lat)

        def holds(bound: Optional[float], p95: float,
                  samples: int) -> bool:
            if bound is None or samples < MIN_SAMPLES:
                return True
            return p95 <= bound

        report = WindowReport(
            index=index, start_ms=start_ms, end_ms=end_ms,
            ops=len(self.read_lat) + len(self.write_lat),
            reads=len(self.read_lat), updates=len(self.write_lat),
            failed=self.failed, shed=self.shed,
            read_p95_ms=read_p95, update_p95_ms=update_p95,
            staleness_max_ms=staleness_max_ms,
            offered_update_fraction=offered_update_fraction,
            scheme=scheme,
            read_ok=holds(slo.read_p95_ms, read_p95, len(self.read_lat)),
            update_ok=holds(slo.update_p95_ms, update_p95,
                            len(self.write_lat)),
            staleness_ok=(slo.max_staleness_ms is None
                          or staleness_max_ms <= slo.max_staleness_ms),
        )
        self.reset()
        return report
