"""Open-loop arrival processes for scenario orchestration.

The paper's Figure 11 open-loop driver offers a *constant* Poisson rate;
real traffic does not.  A scenario's load is a non-homogeneous Poisson
process: the instantaneous rate follows a :class:`RateCurve` (a diurnal
sinusoid, a flash-crowd spike stack, or any composition), and arrivals
are generated by Lewis & Shedler thinning — sample candidate arrivals at
the curve's peak rate, accept each with probability ``rate(t)/peak``.
Thinning keeps the generator exact for any bounded curve and, fed from a
:class:`repro.sim.random.RandomStream`, fully deterministic per seed.

Alongside the *when* of load, this module shapes the *where* and the
*what*:

* :class:`HotspotSchedule` / :class:`HotspotChooser` — time-windowed key
  hotspots: during a flash crowd a configurable fraction of ops lands in
  a narrow slice of the key space (the hot range a balancer must spread
  and a cache must absorb);
* :class:`MixSchedule` — time-varying operation mixes: a flash crowd is
  not just more traffic, it is *different* traffic (read-heavy celebrity
  lookups on a normally write-heavy table) — the shift that forces the
  adaptive controller's hand.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Generator, Optional, Tuple

from repro.sim.random import RandomStream
from repro.ycsb.distributions import KeyChooser
from repro.ycsb.workload import MixSchedule

__all__ = ["RateCurve", "ConstantRate", "DiurnalRate", "SpikedRate",
           "poisson_arrivals", "expected_ops", "HotspotPhase",
           "HotspotSchedule", "HotspotChooser", "MixSchedule"]


class RateCurve:
    """Instantaneous offered load (transactions per simulated second) as
    a function of simulated time."""

    def rate_tps(self, t_ms: float) -> float:  # pragma: no cover
        raise NotImplementedError

    @property
    def peak_tps(self) -> float:  # pragma: no cover
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class ConstantRate(RateCurve):
    """The classic homogeneous Poisson process (Figure 11's driver)."""

    tps: float

    def rate_tps(self, t_ms: float) -> float:
        return self.tps

    @property
    def peak_tps(self) -> float:
        return self.tps


@dataclasses.dataclass(frozen=True)
class DiurnalRate(RateCurve):
    """A sinusoidal day curve: rate oscillates between ``trough_tps`` and
    ``crest_tps`` with period ``period_ms`` (one simulated "day", however
    compressed the scenario chooses to run it).  ``phase`` shifts where
    in the day the scenario starts: 0.0 starts at the trough-to-crest
    midpoint on the way up, 0.25 starts at the crest."""

    trough_tps: float
    crest_tps: float
    period_ms: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.trough_tps < 0 or self.crest_tps < self.trough_tps:
            raise ValueError(
                f"need 0 <= trough <= crest, got {self.trough_tps}"
                f"/{self.crest_tps}")
        if self.period_ms <= 0:
            raise ValueError(f"period_ms must be > 0, got {self.period_ms}")

    def rate_tps(self, t_ms: float) -> float:
        mid = (self.crest_tps + self.trough_tps) / 2.0
        amp = (self.crest_tps - self.trough_tps) / 2.0
        return mid + amp * math.sin(
            2.0 * math.pi * (t_ms / self.period_ms + self.phase))

    @property
    def peak_tps(self) -> float:
        return self.crest_tps


@dataclasses.dataclass(frozen=True)
class SpikedRate(RateCurve):
    """A base curve with multiplicative flash-crowd spikes stacked on
    top: each ``(start_ms, end_ms, multiplier)`` window scales the base
    rate while active (overlapping spikes multiply)."""

    base: RateCurve
    spikes: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        for start, end, mult in self.spikes:
            if end <= start:
                raise ValueError(f"spike window empty: [{start}, {end})")
            if mult <= 0:
                raise ValueError(f"spike multiplier must be > 0: {mult}")

    def rate_tps(self, t_ms: float) -> float:
        rate = self.base.rate_tps(t_ms)
        for start, end, mult in self.spikes:
            if start <= t_ms < end:
                rate *= mult
        return rate

    @property
    def peak_tps(self) -> float:
        peak = self.base.peak_tps
        worst = 1.0
        for start, end, mult in self.spikes:
            if mult > 1.0:
                worst *= mult
        return peak * worst


def expected_ops(curve: RateCurve, start_ms: float, end_ms: float,
                 steps: int = 2000) -> float:
    """Trapezoidal integral of the rate curve over ``[start, end)`` —
    the expected arrival count of the non-homogeneous process (the unit
    tests check the generator against this)."""
    if end_ms <= start_ms:
        return 0.0
    dt = (end_ms - start_ms) / steps
    total = 0.0
    prev = curve.rate_tps(start_ms)
    for i in range(1, steps + 1):
        cur = curve.rate_tps(start_ms + i * dt)
        total += (prev + cur) / 2.0 * dt
        prev = cur
    return total / 1000.0    # tps × ms → ops


def poisson_arrivals(curve: RateCurve, rng: RandomStream,
                     start_ms: float, end_ms: float,
                     ) -> Generator[float, None, None]:
    """Absolute arrival times of a non-homogeneous Poisson process over
    ``[start, end)`` by thinning: candidates at the peak rate, accepted
    with probability ``rate(t)/peak``.  Deterministic per ``rng`` seed."""
    peak = curve.peak_tps
    if peak <= 0:
        return
    peak_per_ms = peak / 1000.0
    t = start_ms
    while True:
        t += rng.expovariate(peak_per_ms)
        if t >= end_ms:
            return
        if rng.random() * peak <= curve.rate_tps(t):
            yield t


# ---------------------------------------------------------------------------
# Hotspot shifts over the key space
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class HotspotPhase:
    """During ``[start_ms, end_ms)``, ``weight`` of the key draws target
    the contiguous key slice centred at ``center`` (fraction of the key
    space, 0..1) spanning ``width`` of it."""

    start_ms: float
    end_ms: float
    center: float
    width: float
    weight: float = 0.9

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ValueError("hotspot window is empty")
        if not 0.0 <= self.center <= 1.0 or not 0.0 < self.width <= 1.0:
            raise ValueError("center in [0,1], width in (0,1] required")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must be within [0, 1]")


@dataclasses.dataclass(frozen=True)
class HotspotSchedule:
    """An ordered set of hotspot phases; at most one is active at a time
    (the first whose window contains ``t`` wins)."""

    phases: Tuple[HotspotPhase, ...] = ()

    def active(self, t_ms: float) -> Optional[HotspotPhase]:
        for phase in self.phases:
            if phase.start_ms <= t_ms < phase.end_ms:
                return phase
        return None


class HotspotChooser:
    """A :class:`repro.ycsb.distributions.KeyChooser` decorator: outside
    any hotspot phase it delegates to the base chooser; inside one, the
    phase's ``weight`` of draws falls uniformly in the hot slice.  The
    clock is injected so the chooser follows *simulated* time."""

    def __init__(self, base: KeyChooser, schedule: HotspotSchedule,
                 item_count: int, clock):
        self.base = base
        self.schedule = schedule
        self.item_count = item_count
        self.clock = clock

    def next_index(self, rng: RandomStream) -> int:
        phase = self.schedule.active(self.clock())
        if phase is not None and rng.random() < phase.weight:
            span = max(1, int(self.item_count * phase.width))
            lo = int(self.item_count * phase.center) - span // 2
            lo = max(0, min(lo, self.item_count - span))
            return lo + rng.randint(0, span - 1)
        return self.base.next_index(rng)
