"""Adaptive scheme selection — the paper's stated future work (§10):
"In future work we plan to investigate workload-aware scheme selection."

The controller implements exactly the decision structure §3.4 sketches:
the application *declares* the weakest consistency it can tolerate (that
cannot be observed from the workload), and the controller observes the
workload — read/write ratio over a sliding window — to pick the best
scheme *within* that consistency class:

* class CAUSAL (or stronger): choose between sync-full and sync-insert —
  sync-insert when updates dominate (its read penalty is paid rarely),
  sync-full when reads dominate;
* class EVENTUAL / SESSION: async when updates dominate, sync-full when
  reads dominate (a consistent index read is also the cheapest read, so
  a read-heavy eventual workload still prefers it);
* read-your-writes requirement pins async-session.

Each switch is an online ALTER job
(:meth:`repro.cluster.cluster.MiniCluster.change_index_scheme`, kept in
``jobs``) that runs inside simulated time and scrubs stale entries when
moving from a lazily-repaired scheme to one whose reads do not
double-check.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Optional, Tuple, TYPE_CHECKING

from repro.core.schemes import ConsistencyLevel, IndexScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import MiniCluster

__all__ = ["AdaptivePolicy", "AdaptiveController", "Decision", "SloSignal"]


@dataclasses.dataclass
class AdaptivePolicy:
    """Tunables for the §3.4-style decision rule."""

    # Above this fraction of updates, the workload is "update-dominated".
    write_heavy_threshold: float = 0.7
    # Below this fraction of updates, it is "read-dominated".
    read_heavy_threshold: float = 0.3
    window_ops: int = 200           # sliding window size
    min_ops_to_act: int = 50        # don't flap on tiny samples
    cooldown_ops: int = 100         # ops between consecutive switches


@dataclasses.dataclass(frozen=True)
class SloSignal:
    """Windowed SLO compliance handed to the controller by an external
    sampler (the scenario layer's window reports, an operator's alerting
    pipeline, ...).  The controller cannot observe latency targets from
    the op stream alone — violations are *declared*, exactly like the
    consistency class — and a violation overrides the read/write-ratio
    heuristic until a signal saying otherwise arrives."""

    read_violated: bool = False
    update_violated: bool = False
    staleness_violated: bool = False

    @property
    def any_violation(self) -> bool:
        return (self.read_violated or self.update_violated
                or self.staleness_violated)


@dataclasses.dataclass
class Decision:
    index_name: str
    current: IndexScheme
    recommended: IndexScheme
    update_fraction: float
    acted: bool
    reason: str = "ratio"

    @property
    def is_switch(self) -> bool:
        return self.recommended is not self.current


class AdaptiveController:
    """Per-index workload monitor + scheme switcher."""

    def __init__(self, cluster: "MiniCluster", index_name: str,
                 required_consistency: ConsistencyLevel,
                 needs_read_your_writes: bool = False,
                 policy: Optional[AdaptivePolicy] = None):
        self.cluster = cluster
        self.index_name = index_name
        self.required_consistency = required_consistency
        self.needs_read_your_writes = needs_read_your_writes
        self.policy = policy or AdaptivePolicy()
        self._window: Deque[str] = deque(maxlen=self.policy.window_ops)
        self._ops_since_switch = 0
        self._slo: Optional[SloSignal] = None
        self.switches: list = []
        self.switch_events: list = []   # dicts: at_ms/from/to/reason
        self.jobs: list = []     # DdlJob handles, one per switch

    # -- observation hooks (call from the application / driver) ---------------

    def observe_update(self) -> None:
        self._window.append("update")
        self._ops_since_switch += 1

    def observe_read(self) -> None:
        self._window.append("read")
        self._ops_since_switch += 1

    def observe_slo(self, signal: Optional[SloSignal]) -> None:
        """Feed the latest windowed SLO compliance (see
        :class:`SloSignal`); ``None`` clears it and returns the
        controller to pure ratio-driven selection."""
        self._slo = signal

    @property
    def update_fraction(self) -> float:
        if not self._window:
            return 0.5
        return sum(1 for op in self._window if op == "update") \
            / len(self._window)

    # -- decision --------------------------------------------------------------

    def _candidates(self) -> Tuple[IndexScheme, ...]:
        if self.needs_read_your_writes:
            return (IndexScheme.ASYNC_SESSION,)
        if self.required_consistency in (ConsistencyLevel.CAUSAL,
                                         ConsistencyLevel.CAUSAL_READ_REPAIR):
            # The index entry must exist by put-ack; validation's blind
            # ship cannot promise that, so it is out of this class.
            return (IndexScheme.SYNC_FULL, IndexScheme.SYNC_INSERT)
        if self.required_consistency is ConsistencyLevel.VALIDATED:
            # "Reads never see stale hits" without the put-ack guarantee:
            # validation joins the sync pair (DESIGN.md §14).
            return (IndexScheme.SYNC_FULL, IndexScheme.SYNC_INSERT,
                    IndexScheme.VALIDATION)
        return (IndexScheme.SYNC_FULL, IndexScheme.SYNC_INSERT,
                IndexScheme.ASYNC_SIMPLE, IndexScheme.VALIDATION)

    def _cheapest_update_scheme(self, candidates) -> IndexScheme:
        """The cheapest allowed update path (§3.4 principle (3)/(4);
        validation beats sync-insert but loses to a pure async
        enqueue)."""
        if IndexScheme.ASYNC_SIMPLE in candidates:
            return IndexScheme.ASYNC_SIMPLE
        if IndexScheme.VALIDATION in candidates:
            return IndexScheme.VALIDATION
        return IndexScheme.SYNC_INSERT

    def recommend_with_reason(self) -> Tuple[IndexScheme, str]:
        candidates = self._candidates()
        if len(candidates) == 1:
            return candidates[0], "pinned"
        # An SLO violation overrides the ratio heuristic: the sampler has
        # told us which side of the latency/staleness trade-off is
        # actually hurting, which beats inferring it from the mix.
        slo = self._slo
        if slo is not None and slo.any_violation:
            if ((slo.read_violated or slo.staleness_violated)
                    and IndexScheme.SYNC_FULL in candidates
                    and not slo.update_violated):
                # Reads (or freshness) are hurting and updates are fine:
                # pay at write time, read clean (§3.4 principle (2); a
                # sync index has no staleness and no read-time check).
                reason = ("slo-read" if slo.read_violated
                          else "slo-staleness")
                return IndexScheme.SYNC_FULL, reason
            if slo.update_violated and not slo.read_violated:
                return self._cheapest_update_scheme(candidates), "slo-update"
            # Both sides violated (overload, not scheme choice): fall
            # through to the ratio rule rather than flapping.
        fraction = self.update_fraction
        if fraction >= self.policy.write_heavy_threshold:
            return self._cheapest_update_scheme(candidates), "ratio"
        if fraction <= self.policy.read_heavy_threshold:
            # Read latency is what matters (§3.4 principle (2)).
            return IndexScheme.SYNC_FULL, "ratio"
        # Mixed zone: keep the current scheme (hysteresis).
        return self.current_scheme(), "hysteresis"

    def recommend(self) -> IndexScheme:
        return self.recommend_with_reason()[0]

    def current_scheme(self) -> IndexScheme:
        return self.cluster.index_descriptor(self.index_name).scheme

    def evaluate(self) -> Decision:
        """Recommend and, if warranted, perform the switch."""
        current = self.current_scheme()
        recommended, reason = self.recommend_with_reason()
        decision = Decision(self.index_name, current, recommended,
                            self.update_fraction, acted=False,
                            reason=reason)
        if (recommended is current
                or len(self._window) < self.policy.min_ops_to_act
                or self._ops_since_switch < self.policy.cooldown_ops):
            return decision
        self.jobs.append(self.cluster.change_index_scheme(self.index_name,
                                                          recommended))
        self._ops_since_switch = 0
        now = self.cluster.sim.now()
        self.switches.append((now, current, recommended))
        self.switch_events.append({
            "at_ms": round(now, 3), "index": self.index_name,
            "from": current.value, "to": recommended.value,
            "reason": reason})
        decision.acted = True
        return decision
