"""The Diff-Index scheme spectrum (paper Figure 4) plus validation.

Each index independently chooses one of five maintenance schemes; the
enum also encodes the paper's selection principles (§3.4) in
:func:`recommend_scheme` so applications can ask for advice from the
workload's requirements.  The fifth scheme — VALIDATION — follows
Luo & Carey's validation strategy for LSM secondary indexes: updates
ship blindly with no read-before-write, reads filter stale hits against
the base rows' indexed-column timestamps, and a background cleaner
garbage-collects the entries the filter discovers (DESIGN.md §14).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional

__all__ = ["IndexScheme", "ConsistencyLevel", "WorkloadProfile",
           "recommend_scheme", "SCHEME_LABELS", "scheme_from_label"]


class IndexScheme(enum.Enum):
    """The paper's four differentiated maintenance schemes (§4–§5) —
    sync-full, sync-insert, async-simple and async-session — plus the
    validation scheme (Luo & Carey): the consistency/latency trade-off
    an index is created with."""

    SYNC_FULL = "sync-full"
    SYNC_INSERT = "sync-insert"
    ASYNC_SIMPLE = "async-simple"
    ASYNC_SESSION = "async-session"
    VALIDATION = "validation"

    @property
    def is_async(self) -> bool:
        return self in (IndexScheme.ASYNC_SIMPLE, IndexScheme.ASYNC_SESSION)

    @property
    def is_lazy(self) -> bool:
        """Schemes whose index table tolerates stale entries and relies
        on a read-time check to hide them (sync-insert's double-check,
        validation's filter).  Lazy indexes never need a scrub when the
        scheme changes between two lazy members, and their stale entries
        are eligible for the compaction-time dead-entry purge."""
        return self in (IndexScheme.SYNC_INSERT, IndexScheme.VALIDATION)

    @property
    def consistency(self) -> "ConsistencyLevel":
        return _CONSISTENCY[self]


class ConsistencyLevel(enum.Enum):
    """What the client can assume about the index after a put SUCCESS."""

    CAUSAL = "causal"                      # sync-full
    CAUSAL_READ_REPAIR = "causal-with-read-repair"  # sync-insert
    EVENTUAL = "eventual"                  # async-simple
    SESSION = "session"                    # async-session
    VALIDATED = "validated"                # validation: filtered, not repaired


_CONSISTENCY = {
    IndexScheme.SYNC_FULL: ConsistencyLevel.CAUSAL,
    IndexScheme.SYNC_INSERT: ConsistencyLevel.CAUSAL_READ_REPAIR,
    IndexScheme.ASYNC_SIMPLE: ConsistencyLevel.EVENTUAL,
    IndexScheme.ASYNC_SESSION: ConsistencyLevel.SESSION,
    IndexScheme.VALIDATION: ConsistencyLevel.VALIDATED,
}


# The one registry every CLI / bench / driver consumes.  The paper's
# shorthand: "we use async for async-simple, full for sync-full, insert
# for sync-insert, and null for no index"; "validation" is ours.
SCHEME_LABELS: Dict[str, Optional[IndexScheme]] = {
    "null": None,
    "insert": IndexScheme.SYNC_INSERT,
    "full": IndexScheme.SYNC_FULL,
    "async": IndexScheme.ASYNC_SIMPLE,
    "session": IndexScheme.ASYNC_SESSION,
    "validation": IndexScheme.VALIDATION,
}


def scheme_from_label(label: str) -> Optional[IndexScheme]:
    return SCHEME_LABELS[label]


@dataclasses.dataclass
class WorkloadProfile:
    """Inputs to the paper's general scheme-selection principles (§3.4)."""

    needs_consistency: bool = False
    read_latency_critical: bool = False
    update_latency_critical: bool = False
    needs_read_your_writes: bool = False
    # Fraction of operations that are updates, when known (0.0–1.0).
    # Drives the validation recommendation: a write-heavy, read-light
    # workload amortises the read-time validation over few reads while
    # saving the per-update base read sync-insert would pay.
    update_fraction: Optional[float] = None


# A workload is write-heavy enough for validation when at least this
# fraction of its operations are updates (mirrors AdaptivePolicy's
# write_heavy_threshold).
VALIDATION_UPDATE_FRACTION = 0.7


def recommend_scheme(profile: WorkloadProfile) -> IndexScheme:
    """The §3.4 principles, verbatim, plus the validation extension:

    (1) use sync-full or sync-insert when consistency is needed;
    (2) use sync-full when read latency is critical;
    (3) use sync-insert when update latency is critical;
    (4) use async-simple or async-session when consistency is not a concern;
    (5) use async-session when read-your-write semantics is needed;
    (6) use validation when consistency is needed and the workload is
        write-heavy/read-light — it drops even sync-insert's blind index
        put from the ack path and pushes all checking to the (rare) reads.
    """
    if profile.needs_read_your_writes:
        return IndexScheme.ASYNC_SESSION
    if profile.needs_consistency:
        write_heavy = (profile.update_fraction is not None
                       and profile.update_fraction >= VALIDATION_UPDATE_FRACTION)
        if write_heavy and not profile.read_latency_critical:
            return IndexScheme.VALIDATION
        if profile.update_latency_critical and not profile.read_latency_critical:
            return IndexScheme.SYNC_INSERT
        return IndexScheme.SYNC_FULL
    return IndexScheme.ASYNC_SIMPLE
