"""Write-ahead log.

One WAL per region server (as in HBase): every mutation is appended,
tagged with its region, *before* it is applied to the memtable.  The log
lives on the simulated replicated file system so it survives the death of
the server that wrote it.

``roll_forward(region, seqno)`` discards records a flush has persisted —
the step the paper's drain-AUQ-before-flush protocol must wait for,
because once a record leaves the WAL it can no longer be replayed to
rebuild a lost AUQ entry (§5.3 requirement (1)).

Storage layout: records are kept **per region** (the durable backing is a
``{region_name: [WalRecord]}`` dict owned by SimHDFS) with a running byte
counter, so the per-flush ``roll_forward`` and the recovery-time
``split`` never scan other regions' records — a server hosting many
regions pays O(own records) per flush, not O(total WAL).  Seqnos are
assigned from one global counter and every append takes a fresh one, so
each region's list is seqno-ascending and the interleaved total order
(``records()``) is recoverable by sorting.

Both cuts on a region's list are one bisect on that order:
``roll_forward`` drops the prefix at or below a flush point, and
``records_after(region, seqno, limit)`` — the replication ship's read —
slices at most ``limit`` records above a channel's watermark, so a ship
costs O(log tail + batch), never a walk of the un-rolled tail.

``append_batch`` logs several records in one call — how recovery and
promotion re-log a region's records.  Each keeps its own
:class:`WalRecord` and seqno (flush ``roll_forward`` boundaries and
WAL-as-AUQ-log replay are untouched).
"""

from __future__ import annotations

import dataclasses
import itertools
from bisect import bisect_right
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lsm.types import Cell

__all__ = ["WalRecord", "WriteAheadLog"]

_record_seq = itertools.count(1)
_seqno = attrgetter("seqno")


@dataclasses.dataclass(frozen=True)
class WalRecord:
    """One logged mutation: all cells of one row-level put or delete."""

    seqno: int
    region_name: str
    table: str
    cells: Tuple[Cell, ...]
    # True when the mutation has async index maintenance attached; replay
    # must re-enqueue such records into the AUQ (paper §5.3 requirement (2)).
    indexed: bool = False

    @property
    def approximate_bytes(self) -> int:
        return sum(len(c.key) + (len(c.value) or 0 if c.value else 0) + 32
                   for c in self.cells)


class WriteAheadLog:
    """Region-server WAL stored as per-region record lists in SimHDFS.

    The storage is a plain dict-of-lists owned by the durable-FS layer;
    this class is the append/split/roll-forward logic over it.
    """

    def __init__(self,
                 backing: Optional[Dict[str, List[WalRecord]]] = None):
        # ``backing`` is the durable per-region map (lives in SimHDFS);
        # mutations to it survive the server object being discarded.
        self._regions: Dict[str, List[WalRecord]] = (
            backing if backing is not None else {})
        # Derived bookkeeping, rebuilt from the backing on construction
        # (a recovered server re-opens a non-empty durable map).
        self._count = sum(len(records) for records in self._regions.values())
        self._bytes = sum(r.approximate_bytes
                          for records in self._regions.values()
                          for r in records)

    def __len__(self) -> int:
        return self._count

    def _append_record(self, record: WalRecord) -> None:
        self._regions.setdefault(record.region_name, []).append(record)
        self._count += 1
        # Size sum inlined (no genexpr frame): append is once per write.
        total = 0
        for c in record.cells:
            value = c.value
            total += len(c.key) + (len(value) if value else 0) + 32
        self._bytes += total

    def append(self, region_name: str, table: str, cells: Tuple[Cell, ...],
               indexed: bool = False) -> WalRecord:
        record = WalRecord(next(_record_seq), region_name, table,
                           tuple(cells), indexed)
        self._append_record(record)
        return record

    def append_batch(self, mutations: Sequence[Tuple[str, str,
                                                     Tuple[Cell, ...], bool]],
                     ) -> List[WalRecord]:
        """Log several ``(region_name, table, cells, indexed)``
        mutations back to back.  Every mutation still gets its own record
        and seqno — recovery replay and flush roll-forward see exactly
        what N single appends would have produced."""
        records: List[WalRecord] = []
        for region_name, table, cells, indexed in mutations:
            record = WalRecord(next(_record_seq), region_name, table,
                               tuple(cells), indexed)
            self._append_record(record)
            records.append(record)
        return records

    def records(self) -> List[WalRecord]:
        """Every record in global seqno (append) order."""
        out = [r for records in self._regions.values() for r in records]
        out.sort(key=lambda r: r.seqno)
        return out

    def records_after(self, region_name: str, seqno: int, limit: int,
                      ) -> Tuple[List[WalRecord], bool]:
        """The oldest ``limit`` records of ``region_name`` with seqno >
        ``seqno``, and whether that is all of them.  One bisect and one
        slice: O(log tail + limit), whatever the tail's length."""
        records = self._regions.get(region_name)
        if not records:
            return [], True
        start = bisect_right(records, seqno, key=_seqno)
        return (records[start:start + limit],
                len(records) - start <= limit)

    def split(self) -> Dict[str, List[WalRecord]]:
        """Split the whole log per region, as ZooKeeper-driven recovery does."""
        return {region: list(records)
                for region, records in self._regions.items() if records}

    def roll_forward(self, region_name: str, up_to_seqno: int) -> int:
        """Drop records of ``region_name`` with seqno <= ``up_to_seqno``
        (their data has been flushed).  Returns how many were dropped.
        Touches only this region's records — unrelated regions hosted on
        the same server cost nothing."""
        records = self._regions.get(region_name)
        if not records:
            return 0
        # Seqnos ascend within a region: the flushed records are a prefix.
        flushed = bisect_right(records, up_to_seqno, key=_seqno)
        if flushed == 0:
            return 0
        dropped = records[:flushed]
        # In-place so the durable backing (SimHDFS) observes the roll.
        del records[:flushed]
        if not records:
            self._regions.pop(region_name, None)
        self._count -= len(dropped)
        self._bytes -= sum(r.approximate_bytes for r in dropped)
        return len(dropped)

    def max_seqno(self, region_name: str) -> int:
        records = self._regions.get(region_name)
        # Append order == seqno order within a region.
        return records[-1].seqno if records else 0

    @property
    def approximate_bytes(self) -> int:
        """Running byte counter — O(1), not a re-sum of every record."""
        return self._bytes
