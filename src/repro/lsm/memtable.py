"""The in-memory, append-only component of the LSM tree.

A memtable never updates in place: every put adds a new :class:`Cell`
version, every delete adds a tombstone cell.  When the memtable reaches
its flush threshold it is *sealed* (made immutable) and written out as an
SSTable — the flush step of Figure 2 in the paper.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

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

    @property
    def is_sealed(self) -> bool:
        return self._sealed

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
        for i, existing in enumerate(versions):
            if existing.ts == cell.ts and (existing.value is None) == new_tomb:
                self._bytes += cell_size(cell) - cell_size(existing)
                versions[i] = cell
                return
        # Positional insert preserving newest-first order.  Equivalent to
        # the old append + stable sort by -ts: the new cell lands after
        # every existing version with ts >= cell.ts.  The common case is a
        # fresh newest timestamp, so scan from the front.
        ts = cell.ts
        index = 0
        for existing in versions:
            if existing.ts < ts:
                break
            index += 1
        versions.insert(index, cell)
        # cell_size inlined: this is once per write on the hot path.
        value = cell.value
        self._bytes += len(cell.key) + (len(value) if value is not None else 0) + 24
        self._cells += 1

    # -- reads ----------------------------------------------------------------

    def cells_for(self, key: bytes, max_ts: Optional[int] = None) -> List[Cell]:
        """All versions (values and tombstones) of ``key`` with ts <= max_ts,
        newest first.  Resolution against tombstones happens one layer up so
        it can merge across memtable and SSTables."""
        versions: Optional[List[Cell]] = self._map.get(key)
        if not versions:
            return []
        if max_ts is None:
            return versions   # callers read, never mutate (tree._collect_cells)
        return [c for c in versions if c.ts <= max_ts]

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
