"""The in-memory, append-only component of the LSM tree.

A memtable never updates in place: every put adds a new :class:`Cell`
version, every delete adds a tombstone cell.  When the memtable reaches
its flush threshold it is *sealed* (made immutable) and written out as an
SSTable — the flush step of Figure 2 in the paper.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.errors import ImmutableError
from repro.lsm.arraymap import ArrayMap
from repro.lsm.types import Cell, KeyRange, cell_size

__all__ = ["MemTable"]


class MemTable:
    """Multi-version ordered buffer keyed by byte keys."""

    def __init__(self) -> None:
        self._map = ArrayMap()
        self._sealed = False
        self._bytes = 0
        self._cells = 0

    # -- size accounting ----------------------------------------------------

    @property
    def approximate_bytes(self) -> int:
        return self._bytes

    @property
    def cell_count(self) -> int:
        return self._cells

    def __len__(self) -> int:
        return self._cells

    def seal(self) -> None:
        """Freeze the memtable prior to flushing it."""
        self._sealed = True

    # -- writes -------------------------------------------------------------

    def add(self, cell: Cell) -> None:
        """Append one version.  Same (key, ts) overwrites — LSM semantics:
        for a given key a value with a more recent write wins at equal ts."""
        if self._sealed:
            raise ImmutableError("memtable is sealed")
        versions: List[Cell] = self._map.obtain(cell.key)
        new_tomb = cell.value is None
        # One pass over the newest-first chain: overwrite the same
        # (ts, kind) cell, or insert after every version with ts >= cell.ts.
        # Stops at the first older one — for a fresh newest ts, the head.
        ts = cell.ts
        index = 0
        for existing in versions:
            if existing.ts < ts:
                break
            if existing.ts == ts and (existing.value is None) == new_tomb:
                self._bytes += cell_size(cell) - cell_size(existing)
                versions[index] = cell
                return
            index += 1
        versions.insert(index, cell)
        # cell_size inlined: this is once per write on the hot path.
        value = cell.value
        self._bytes += len(cell.key) + (len(value) if value is not None else 0) + 24
        self._cells += 1

    # -- reads ----------------------------------------------------------------

    def cells_for(self, key: bytes) -> List[Cell]:
        """All versions (values and tombstones) of ``key``, newest first —
        the chain itself: callers read, never mutate.  Bounding by
        timestamp and resolving tombstones happen one layer up, across
        memtables and SSTables (``LSMTree.get``)."""
        return self._map.get(key) or []

    def scan(self, key_range: KeyRange) -> Iterator[Tuple[bytes, List[Cell]]]:
        """Ordered iteration of ``(key, versions-newest-first)`` in range."""
        end = key_range.end
        for key, versions in self._map.items_from(key_range.start):
            if end is not None and key >= end:
                return
            # The version list is yielded directly — consumers
            # (merge_key_streams, _scan_remix) copy before combining.
            yield key, versions

    def all_cells(self) -> Iterator[Cell]:
        """Every cell in key order then newest-first — the flush stream."""
        for _key, versions in self._map.items():
            yield from versions
