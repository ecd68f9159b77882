"""Regions: the unit of partitioning and recovery.

A region owns one contiguous key range of one table and stores it as an
LSM tree (paper §2.2: "each column family is partitioned and stored on
multiple nodes, and on each node it is stored as a LSM-tree").  Rows are
stored as one cell per column with the composite LSM key
``row ⊕ 0x00 ⊕ qualifier``; index tables are key-only so their cell key
is the index key itself.

Regions also provide per-row locks: HBase serialises writes to one row,
and the paper's sync-full correctness (SU3 reading the version right
before SU1's timestamp) relies on that serialisation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.lsm.cache import BlockCache
from repro.lsm.tree import LSMTree, ReadStats
from repro.lsm.types import Cell, KeyRange, cell_size
from repro.cluster.table import TableDescriptor
from repro.sim.kernel import RESOLVED_NONE, Future, Simulator

__all__ = ["Region", "RowLocks", "compose_cell_key", "split_cell_key"]

_SEP = b"\x00"


def compose_cell_key(row: bytes, qualifier: str) -> bytes:
    """LSM key for one column of one row.

    Rows of base tables must not contain 0x00 (workload keys are ASCII);
    index-table rows are raw index keys stored with an empty qualifier —
    they never compose with a qualifier, so arbitrary bytes are fine there.
    """
    if not qualifier:
        return row
    return row + _SEP + qualifier.encode()


def split_cell_key(cell_key: bytes) -> Tuple[bytes, str]:
    row, sep, qualifier = cell_key.partition(_SEP)
    if not sep:
        return cell_key, ""
    return row, qualifier.decode()


class RowLocks:
    """FIFO per-row mutexes, allocated on demand and freed when idle."""

    def __init__(self) -> None:
        self._queues: Dict[bytes, List[Future]] = {}

    def acquire(self, row: bytes) -> Future:
        queue = self._queues.get(row)
        if queue is None:
            self._queues[row] = []
            return RESOLVED_NONE
        future = Future()
        queue.append(future)
        return future

    def release(self, row: bytes) -> None:
        queue = self._queues.get(row)
        if queue is None:
            raise SimulationError(f"row lock released but never held: {row!r}")
        if queue:
            queue.pop(0).set_result(None)
        else:
            del self._queues[row]

    @property
    def held(self) -> int:
        return len(self._queues)


class Region:
    def __init__(self, name: str, table: TableDescriptor, key_range: KeyRange,
                 cache: Optional[BlockCache] = None):
        self.name = name
        self.table = table
        self.key_range = key_range
        self.tree = LSMTree(name=name, config=table.storage, cache=cache)
        self.locks = RowLocks()
        self.flushing = False
        # Set while a split/migration close is in progress: writes are
        # rejected (stale-route retry) but reads keep serving — the APS
        # must still be able to plan against this region or the close's
        # own drain-before-flush would deadlock.
        self.closing = False
        # Request accounting for the placement layer: reset implicitly when
        # a region object is recreated (move/recovery) — the balancer clamps
        # on delta, so a reset reads as a quiet interval, never as negative.
        self.reads = 0
        self.writes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Region {self.name} {self.key_range!r}>"

    def contains_row(self, row: bytes) -> bool:
        return self.key_range.contains(row)

    # -- placement accounting --------------------------------------------------

    def note_read(self) -> None:
        self.reads += 1

    def note_write(self) -> None:
        self.writes += 1

    @property
    def requests(self) -> int:
        return self.reads + self.writes

    def owned_bytes(self) -> int:
        """Approximate bytes of visible data INSIDE this region's key
        range.  ``tree.total_bytes`` would overcount after a split: both
        daughters adopt the parent's full store files (the reference-file
        analogue), so raw file size stays at the parent's size until a
        compaction — and a split policy keyed on it would cascade."""
        return sum(cell_size(cell)
                   for cell in self.tree.scan(KeyRange(self.key_range.start,
                                                       self.key_range.end)))

    def split_point(self, min_distinct: int = 2) -> Optional[bytes]:
        """Midpoint-of-keys split policy: the median distinct routable key,
        or None if the region holds too few distinct keys to cut.

        For base tables the routable key is the ROW (cells compose
        ``row ⊕ 0x00 ⊕ qualifier``; reserved leading-0x00 keys are local-
        index entries and not routable); index tables route on the raw
        cell key.  The returned key is strictly inside ``key_range`` —
        ``keys`` is strictly increasing, so with ≥ 2 entries the median
        exceeds ``keys[0] ≥ key_range.start``, and every key scanned is
        below ``key_range.end``.
        """
        keys: List[bytes] = []
        last: Optional[bytes] = None
        for cell in self.tree.scan(KeyRange(self.key_range.start,
                                            self.key_range.end)):
            if self.table.is_index:
                key = cell.key
            else:
                if cell.key.startswith(_SEP):
                    continue
                key = split_cell_key(cell.key)[0]
            if key != last:
                keys.append(key)
                last = key
        if len(keys) < max(min_distinct, 2):
            return None
        return keys[len(keys) // 2]

    # -- row-level reads (pure; server charges the ReadStats) -----------------

    def read_row(self, row: bytes, columns: Optional[List[str]] = None,
                 max_ts: Optional[int] = None,
                 stats: Optional[ReadStats] = None,
                 ) -> Dict[str, Tuple[bytes, int]]:
        """Visible value and ts per column: ``{qualifier: (value, ts)}``."""
        if self.table.is_index:
            raise SimulationError("read_row on an index table; use scan")
        out: Dict[str, Tuple[bytes, int]] = {}
        if columns is None:
            cells = self.tree.scan(
                KeyRange(row + _SEP, row + _SEP + b"\xff"),
                max_ts=max_ts, stats=stats)
            for cell in cells:
                _row, qualifier = split_cell_key(cell.key)
                out[qualifier] = (cell.value, cell.ts)
        else:
            for qualifier in columns:
                cell = self.tree.get(compose_cell_key(row, qualifier),
                                     max_ts=max_ts, stats=stats)
                if cell is not None:
                    out[qualifier] = (cell.value, cell.ts)
        return out

    def scan_rows(self, key_range: KeyRange, limit: Optional[int] = None,
                  max_ts: Optional[int] = None,
                  stats: Optional[ReadStats] = None) -> List[Cell]:
        """Raw visible cells in range (index-table scans, verification)."""
        clamped = key_range.clamp(
            KeyRange(self.key_range.start, self.key_range.end))
        if clamped.is_empty():
            return []
        cells = self.tree.scan(clamped, max_ts=max_ts, limit=limit,
                               stats=stats)
        if not self.table.is_index:
            # The region's reserved keyspace (leading 0x00: local-index
            # entries) is invisible to row-level scans.
            cells = [c for c in cells if not c.key.startswith(_SEP)]
        return cells

    def iter_base_rows(self) -> Iterator[Tuple[bytes, Dict[str, Tuple[bytes, int]]]]:
        """Cost-free full iteration of visible rows (verification only)."""
        current_row: Optional[bytes] = None
        current: Dict[str, Tuple[bytes, int]] = {}
        for cell in self.tree.scan(KeyRange(self.key_range.start,
                                            self.key_range.end)):
            if cell.key.startswith(_SEP):
                continue  # reserved keyspace (local-index entries)
            row, qualifier = split_cell_key(cell.key)
            if row != current_row:
                if current_row is not None:
                    yield current_row, current
                current_row, current = row, {}
            current[qualifier] = (cell.value, cell.ts)
        if current_row is not None:
            yield current_row, current
