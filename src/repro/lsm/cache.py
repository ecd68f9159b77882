"""Scan-resistant block cache, shared by all regions on one server.

The paper sizes its block cache at 25% of the region-server heap and
notes that base-table reads are disk-bound while the (much smaller) index
table stays cached — that size difference is exactly why sync-full index
reads are fast and sync-insert's double-check (base reads) is slow.  A
real cache over (sstable, block) ids reproduces that behaviour once table
sizes are scaled.

The policy is a two-segment LRU, after HBase's ``LruBlockCache`` with its
single- and multi-access priorities (DESIGN.md §13.6).  A missed block
enters a *probationary* segment; a hit there promotes it to a *protected*
segment, capped at ``PROTECTED_SHARE`` of capacity, whose LRU overflow is
demoted back to probation's MRU end.  Victims come from probation's LRU
end, and from the protected segment only when probation is empty.  So a
sweep of one-shot blocks (an index range scan) cycles through probation
and leaves the protected segment's twice-read blocks alone.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, List, Tuple

__all__ = ["BlockCache", "PROTECTED_SHARE"]

# The protected (multi-access) segment's cap, as a share of capacity.
# HBase 0.94 keeps 25% of its cache for single-access blocks and the
# rest for multi-access and in-memory ones; this store has no in-memory
# families, so probation keeps HBase's quarter.
PROTECTED_SHARE = 3 / 4


class BlockCache:
    """Byte-capacity segmented LRU of block identifiers (contents stay in
    the SSTable)."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity_bytes = capacity_bytes
        self._protected_cap = capacity_bytes * PROTECTED_SHARE
        self._probation: "OrderedDict[Hashable, int]" = OrderedDict()
        self._protected: "OrderedDict[Hashable, int]" = OrderedDict()
        self._used = 0
        self._protected_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Optional repro.obs handles (bind_metrics); None keeps the cache
        # usable without a registry (unit tests, standalone trees).
        self._obs_hits = None
        self._obs_misses = None

    def bind_metrics(self, registry, **labels) -> None:
        """Publish hit/miss counters through a MetricsRegistry so bench
        snapshots carry block-cache behaviour per server."""
        self._obs_hits = registry.counter("block_cache_hits", **labels)
        self._obs_misses = registry.counter("block_cache_misses", **labels)
        if self.hits:
            self._obs_hits.inc(self.hits)
        if self.misses:
            self._obs_misses.inc(self.misses)

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    @property
    def used_bytes(self) -> int:
        return self._used

    def block_ids(self) -> List[Hashable]:
        """Resident block ids: probation's, then the protected segment's,
        each least recently used first."""
        return [*self._probation, *self._protected]

    def access(self, block_id: Hashable, block_bytes: int) -> bool:
        """Record a block access; returns True on hit.  A hit on a
        probationary block promotes it; on a miss the block is admitted
        to probation (and victims evicted)."""
        protected = self._protected
        probation = self._probation
        if block_id in protected:
            protected.move_to_end(block_id)
        elif block_id in probation:
            size = probation.pop(block_id)
            protected[block_id] = size
            self._protected_used += size
            while self._protected_used > self._protected_cap:
                victim, victim_bytes = protected.popitem(last=False)
                self._protected_used -= victim_bytes
                probation[victim] = victim_bytes
        else:
            self.misses += 1
            if self._obs_misses is not None:
                self._obs_misses.inc()
            self._admit(block_id, block_bytes)
            return False
        self.hits += 1
        if self._obs_hits is not None:
            self._obs_hits.inc()
        return True

    def _admit(self, block_id: Hashable, block_bytes: int) -> None:
        if block_bytes > self.capacity_bytes:
            return  # too big to ever cache
        probation = self._probation
        while self._used + block_bytes > self.capacity_bytes:
            if probation:
                _victim, victim_bytes = probation.popitem(last=False)
            else:
                _victim, victim_bytes = self._protected.popitem(last=False)
                self._protected_used -= victim_bytes
            self._used -= victim_bytes
            self.evictions += 1
        probation[block_id] = block_bytes
        self._used += block_bytes

    def invalidate_sstable(self, sstable_id: int) -> None:
        """Drop blocks of a compacted-away SSTable from both segments."""
        for segment in (self._probation, self._protected):
            victims = [bid for bid in segment
                       if isinstance(bid, tuple) and bid
                       and bid[0] == sstable_id]
            for bid in victims:
                self._used -= segment.pop(bid)
        self._protected_used = sum(self._protected.values())

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @staticmethod
    def block_id(sstable_id: int, block_index: int) -> Tuple[int, int]:
        return (sstable_id, block_index)
