"""Declarative scenario specifications.

A :class:`ScenarioSpec` is everything a :class:`~repro.scenario.runner.
ScenarioRunner` needs to stage an end-to-end run: the cluster shape,
the tenants (each a table + index + SLO + traffic model), and the
failure-storm schedule.  Specs are plain data — no simulator objects —
so they can be rendered into the scenario report verbatim and two runs
from the same spec + seed are identical.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.core.schemes import ConsistencyLevel, IndexScheme
from repro.scenario.arrival import (HotspotSchedule, MixSchedule, RateCurve)

__all__ = ["SloSpec", "TenantSpec", "StormEvent", "ScenarioSpec"]


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """Per-tenant service-level objective, checked per sampling window.

    ``read_p95_ms`` / ``update_p95_ms`` bound the windowed p95 latency
    of index reads and updates; ``max_staleness_ms`` bounds the worst
    index-completion lag the staleness tracker observed in the window
    (meaningful for tenants on an async scheme — sync tenants hold it
    trivially).  ``None`` disables a bound."""

    read_p95_ms: Optional[float] = None
    update_p95_ms: Optional[float] = None
    max_staleness_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, Optional[float]]:
        return {"read_p95_ms": self.read_p95_ms,
                "update_p95_ms": self.update_p95_ms,
                "max_staleness_ms": self.max_staleness_ms}


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One tenant: a table of its own, a title index under a maintenance
    scheme, an arrival process, and an SLO the scenario holds it to.

    ``adaptive`` arms a per-tenant :class:`repro.core.adaptive.
    AdaptiveController` (SLO-signal-driven, online ALTER actuation)
    inside ``consistency`` — the scenario's controller-in-the-loop
    piece.  ``insert_keys`` makes write traffic target FRESH rows
    (beyond the loaded dataset) instead of updating loaded ones; the
    failure-storm scenario uses it so acked-write durability can be
    audited by existence after recovery."""

    name: str
    records: int
    scheme: IndexScheme
    arrival: RateCurve
    mix: MixSchedule
    slo: SloSpec
    consistency: ConsistencyLevel = ConsistencyLevel.EVENTUAL
    adaptive: bool = False
    distribution: str = "uniform"
    hotspots: HotspotSchedule = HotspotSchedule()
    title_cardinality: Optional[int] = None     # None → records // 5
    insert_keys: bool = False

    @property
    def table(self) -> str:
        return self.name

    @property
    def index_name(self) -> str:
        return f"{self.name}_title"


@dataclasses.dataclass(frozen=True)
class StormEvent:
    """One timed chaos action.

    kinds:

    * ``"kill"``      — crash server ``target`` (coordinator detection +
      recovery/promotion follow inside simulated time);
    * ``"degrade"``   — add ``extra_ms`` one-way delay on every link
      INTO ``target`` (a sick NIC / saturated switch port);
    * ``"clear"``     — remove all link degradation (recovery window);
    * ``"fault_rate"`` — set the RPC fault-injection probability to
      ``probability`` (0 restores a clean fabric).
    """

    at_ms: float
    kind: str
    target: Optional[str] = None
    extra_ms: float = 0.0
    probability: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("kill", "degrade", "clear", "fault_rate"):
            raise ValueError(f"unknown storm event kind {self.kind!r}")
        if self.kind in ("kill", "degrade") and not self.target:
            raise ValueError(f"{self.kind} event needs a target server")

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"at_ms": self.at_ms, "kind": self.kind}
        if self.target:
            out["target"] = self.target
        if self.kind == "degrade":
            out["extra_ms"] = self.extra_ms
        if self.kind == "fault_rate":
            out["probability"] = self.probability
        return out


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """The whole scenario: cluster shape, tenants, storm, sampling."""

    name: str
    duration_ms: float
    window_ms: float
    tenants: Tuple[TenantSpec, ...]
    storm: Tuple[StormEvent, ...] = ()
    num_servers: int = 4
    replication_factor: int = 1
    heartbeat_timeout_ms: float = 2000.0
    base_regions_per_tenant: int = 2
    index_regions_per_tenant: int = 2
    description: str = ""

    def __post_init__(self) -> None:
        if self.duration_ms <= 0 or self.window_ms <= 0:
            raise ValueError("duration_ms and window_ms must be > 0")
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
