"""Pluggable compaction policies (DESIGN.md §14).

The tree used to hard-wire one size-tiered trigger; now the policy is a
per-table choice: ``create_table`` / ``create_index`` take a
``compaction_policy`` label, resolved here into the ``compaction`` field
of the table's :class:`~repro.lsm.tree.LSMConfig`:

* :class:`SizeTieredPolicy` — the extracted original behaviour: merge
  the oldest ``max_files`` once ``min_files`` accumulate; every
  ``major_every``-th round is major.
* :class:`LeveledPolicy` — single-run leveling: once ``min_files``
  accumulate, merge *everything* into one run.  Every compaction is
  major, which is what gives index tables under lazy schemes
  (sync-insert, validation) their dead-entry purge opportunities — the
  ts−δ discipline needs a major merge to drop invalidated entries.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple, Type

from repro.lsm.compaction import CompactionPolicy
from repro.lsm.sstable import SSTable

__all__ = ["SizeTieredPolicy", "LeveledPolicy", "POLICY_LABELS",
           "compaction_policy_from_label"]


@dataclasses.dataclass
class SizeTieredPolicy(CompactionPolicy):
    """The store's historical behaviour, now one policy among several.

    All the picking logic lives on the base class (kept there so ancient
    callers constructing a bare ``CompactionPolicy`` keep working); this
    subclass pins the registry label.
    """

    label = "size_tiered"


@dataclasses.dataclass
class LeveledPolicy(CompactionPolicy):
    """Single-run leveling: every compaction merges the full SSTable set
    into one run (always major).  Write-amplifying but read-optimal, and
    the guaranteed-major property makes it the natural partner of the
    index dead-entry purge."""

    label = "leveled"

    def pick(self, sstables: Sequence[SSTable],
             compactions_done: int) -> Tuple[List[SSTable], bool]:
        if len(sstables) < self.min_files:
            return [], False
        return list(sstables), True


POLICY_LABELS: Dict[str, Type[CompactionPolicy]] = {
    "size_tiered": SizeTieredPolicy,
    "leveled": LeveledPolicy,
}


def compaction_policy_from_label(label: str, **kwargs) -> CompactionPolicy:
    """Resolve a ``compaction_policy`` label."""
    try:
        cls = POLICY_LABELS[label]
    except KeyError:
        raise ValueError(
            f"unknown compaction policy {label!r}; "
            f"known: {sorted(POLICY_LABELS)}") from None
    return cls(**kwargs)
