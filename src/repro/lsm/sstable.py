"""Immutable on-disk sorted runs (HBase HFiles).

An SSTable is a list of *blocks*, each holding a contiguous run of cells
sorted by ``(key asc, ts desc)``, plus a sparse block index, a bloom
filter and a timestamp sidecar.  The builder never splits one key's
versions across blocks, so a point lookup touches at most one block.

The **timestamp sidecar** (DESIGN.md §14.6) holds each key's newest
timestamp and a tombstone bit, sorted by ``(qualifier, row)`` and
prefix-compressed, so one column's entries sit in a few dense blocks: a
reader that needs only "how new is this cell?" opens one small sidecar
block instead of a data block.  Sidecar block ``n`` (from 1) has the
negative block id ``-n``, which keeps it apart from the data blocks in
the shared block cache.

SSTables carry no timing themselves; the LSM tree charges block reads to
the block cache or the simulated disk, which is where the paper's
"read is many times slower than write" asymmetry comes from.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left, bisect_right
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.errors import StorageError
from repro.lsm.bloom import BloomFilter
from repro.lsm.iterators import newest_run
from repro.lsm.types import Cell, KeyRange, cell_size

__all__ = ["SSTable", "SSTableBuilder", "DEFAULT_BLOCK_BYTES",
           "compressed_block_bytes"]

DEFAULT_BLOCK_BYTES = 4096
# Every SIDECAR_RESTART_INTERVAL-th entry of a sidecar block stores its
# full row key, so a reader can binary-search the block's restart array.
SIDECAR_RESTART_INTERVAL = 16

_sstable_ids = itertools.count(1)


def shared_prefix(a: bytes, b: bytes) -> int:
    """How many leading bytes ``a`` and ``b`` share."""
    return len(os.path.commonprefix((a, b)))


def compressed_block_bytes(block: Sequence[Cell]) -> int:
    """On-disk footprint of one block under PREFIX COMPRESSION — the index
    compression the paper cites as future work (§10, [5]).

    Index keys are ``enc(value) ⊕ rowkey``: consecutive entries share long
    prefixes (same indexed value), so each cell stores only the suffix
    beyond its shared prefix with the previous key, plus a 2-byte prefix
    length.  The simulation keeps full keys in memory; only the
    *accounted* size (what the block cache and flush costs see) shrinks.
    """
    total = 0
    previous_key = b""
    for cell in block:
        suffix = len(cell.key) - shared_prefix(previous_key, cell.key)
        value_len = len(cell.value) if cell.value is not None else 0
        total += suffix + 2 + value_len + 24
        previous_key = cell.key
    return total


def sidecar_entry_bytes(slot: int, previous_row: bytes, row: bytes) -> int:
    """Accounted bytes of a sidecar block's ``slot``-th entry (from 0):
    2 bytes of shared/unshared lengths, the row-key bytes past the prefix
    shared with the previous entry's row, and 8 bytes of ts with the
    tombstone flag in the top bit.  Every
    :data:`SIDECAR_RESTART_INTERVAL`-th entry is a restart point: it
    stores the whole row key and adds a 4-byte slot to the block's
    restart array."""
    if slot % SIDECAR_RESTART_INTERVAL == 0:
        return 2 + len(row) + 8 + 4
    return 2 + len(row) - shared_prefix(previous_row, row) + 8


def sidecar_order(key: bytes) -> Tuple[bytes, bytes, bytes]:
    """Where a cell key ``row ⊕ 0x00 ⊕ qualifier`` sits in a sidecar: by
    qualifier, then row.  The separator is kept, so distinct keys never
    tie (a key without one, e.g. an index entry, sorts first)."""
    row, sep, qualifier = key.partition(b"\x00")
    return qualifier, sep, row


class SSTable:
    """Sealed sorted run.  Construct through :class:`SSTableBuilder`."""

    def __init__(self, blocks: List[List[Cell]], bloom: BloomFilter,
                 name: str = "", prefix_compressed: bool = False,
                 block_bytes: int = DEFAULT_BLOCK_BYTES):
        if not blocks:
            raise StorageError("SSTable must contain at least one block")
        self.sstable_id = next(_sstable_ids)
        self.name = name or f"sstable-{self.sstable_id}"
        self._blocks = blocks
        self._block_first_keys = [block[0].key for block in blocks]
        self.bloom = bloom
        self.prefix_compressed = prefix_compressed
        self.min_key = blocks[0][0].key
        self.max_key = blocks[-1][-1].key
        self.cell_count = sum(len(block) for block in blocks)
        if prefix_compressed:
            self._block_sizes = [compressed_block_bytes(b) for b in blocks]
        else:
            self._block_sizes = [sum(cell_size(c) for c in b)
                                 for b in blocks]
        self.total_bytes = sum(self._block_sizes)
        all_ts = [c.ts for block in blocks for c in block]
        self.min_ts = min(all_ts)
        self.max_ts = max(all_ts)
        self._target_block_bytes = block_bytes
        # The sidecar's layout: each block's first entry in sidecar order
        # and each block's accounted bytes.  Built on the first probe.
        self._sidecar_first: Optional[List[Tuple[bytes, bytes, bytes]]] = None
        self._sidecar_sizes: List[int] = []

    def block_bytes(self, block_id: int) -> int:
        """Accounted size of one block: a data block (possibly compressed)
        or, for a negative id, a sidecar block."""
        if block_id < 0:
            return self._sidecar_sizes[-block_id - 1]
        return self._block_sizes[block_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SSTable {self.name} cells={self.cell_count} "
                f"[{self.min_key!r}..{self.max_key!r}]>")

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    def get_block(self, block_id: int) -> Sequence[Cell]:
        return self._blocks[block_id]

    def cell_at(self, block_id: int, slot: int) -> Cell:
        """Direct pointer dereference — how a REMIX cursor fetches the one
        winning version without re-searching the block."""
        return self._blocks[block_id][slot]

    # -- lookup planning ------------------------------------------------------

    def may_contain(self, key: bytes) -> bool:
        """Cheap pre-checks a reader runs before paying for a block read."""
        if key < self.min_key or key > self.max_key:
            return False
        return self.bloom.might_contain(key)

    def block_for_key(self, key: bytes) -> Optional[int]:
        """The single block that could hold ``key``, or ``None``."""
        if key < self.min_key or key > self.max_key:
            return None
        return bisect_right(self._block_first_keys, key) - 1

    def blocks_for_range(self, key_range: KeyRange) -> range:
        """Ids of blocks overlapping ``key_range`` (possibly empty).

        Clamped on both sides: an empty or inverted range, a range ending
        at or below the table's first key, and a range whose (exclusive)
        end equals a block's first key all exclude the non-overlapping
        blocks rather than returning them for the scan loop to discard.
        """
        if key_range.is_empty():
            return range(0)
        if key_range.end is not None and key_range.end <= self.min_key:
            return range(0)
        if key_range.start > self.max_key:
            return range(0)
        first_keys = self._block_first_keys
        if key_range.start <= self.min_key:
            start_idx = 0
        else:
            start_idx = bisect_right(first_keys, key_range.start) - 1
        if key_range.end is None:
            return range(start_idx, len(self._blocks))
        # bisect_left: a block whose FIRST key equals the exclusive end
        # holds only keys >= end and must not be opened.
        end_idx = bisect_left(first_keys, key_range.end, start_idx)
        return range(start_idx, min(end_idx, len(self._blocks)))

    # -- timestamp sidecar ----------------------------------------------------

    def probe_ts(self, key: bytes) -> Tuple[Optional[Tuple[int, bool]], int]:
        """``key``'s newest timestamp here and whether a tombstone sits at
        it, or None, plus the id of the sidecar block that holds (or, for a
        bloom false positive, would hold) its entry.  Callers run
        :meth:`may_contain` first, as before a data-block read."""
        if self._sidecar_first is None:
            self._build_sidecar()
        position = bisect_right(self._sidecar_first, sidecar_order(key))
        block_id = self.block_for_key(key)
        run = () if block_id is None else newest_run(self._blocks[block_id],
                                                     key)
        entry = None
        if run:
            entry = (run[0].ts, any(cell.value is None for cell in run))
        return entry, -max(position, 1)

    def _build_sidecar(self) -> None:
        """Lay the sidecar out: entries in sidecar order, packed into
        blocks the way the builder packs data blocks (cut once a block
        reaches ``block_bytes``), except that a block never holds two
        qualifiers: a probe of one column never pulls another column's
        entries into the cache.  A block stores its qualifier once, as a
        2-byte length plus the bytes, then its entries
        (:func:`sidecar_entry_bytes`).  The simulation keeps every cell
        in memory, so the entries themselves are read off the data
        blocks; only the layout is materialised."""
        # One bucket of rows per qualifier.  A key's row part ends at its
        # first 0x00, so a bucket filled in data order is in row order.
        columns: Dict[Tuple[bytes, bytes], List[bytes]] = {}
        last = None
        for block in self._blocks:
            for cell in block:
                if cell.key != last:
                    last = cell.key
                    qualifier, sep, row = sidecar_order(last)
                    columns.setdefault((qualifier, sep), []).append(row)
        first: List[Tuple[bytes, bytes, bytes]] = []
        sizes: List[int] = []
        for (qualifier, sep), rows in sorted(columns.items()):
            for n, row in enumerate(rows):
                if n == 0 or sizes[-1] >= self._target_block_bytes:
                    first.append((qualifier, sep, row))
                    sizes.append(2 + len(qualifier))
                    slot, previous = 0, b""
                sizes[-1] += sidecar_entry_bytes(slot, previous, row)
                slot, previous = slot + 1, row
        self._sidecar_first = first
        self._sidecar_sizes = sizes

    # -- direct (cost-free) access for compaction & tests ---------------------

    def all_cells(self) -> Iterator[Cell]:
        for block in self._blocks:
            yield from block

    def scan(self, key_range: KeyRange) -> Iterator[Cell]:
        for block_id in self.blocks_for_range(key_range):
            for cell in self._blocks[block_id]:
                if cell.key < key_range.start:
                    continue
                if key_range.end is not None and cell.key >= key_range.end:
                    return
                yield cell


class SSTableBuilder:
    """Streams sorted cells into blocks; cuts blocks only at key boundaries."""

    def __init__(self, block_bytes: int = DEFAULT_BLOCK_BYTES,
                 bloom_fp_rate: float = 0.01, name: str = "",
                 prefix_compression: bool = False):
        self.block_bytes = block_bytes
        self.bloom_fp_rate = bloom_fp_rate
        self.name = name
        self.prefix_compression = prefix_compression
        self._blocks: List[List[Cell]] = []
        self._current: List[Cell] = []
        self._current_bytes = 0
        self._keys: List[bytes] = []
        self._last: Optional[Tuple[bytes, int]] = None

    def add(self, cell: Cell) -> None:
        if self._last is not None:
            last_key, last_ts = self._last
            if cell.key < last_key:
                raise StorageError(
                    f"cells out of order: {cell.key!r} after {last_key!r}")
            if cell.key == last_key and cell.ts > last_ts:
                raise StorageError(
                    f"versions out of order for {cell.key!r}: ts {cell.ts} "
                    f"after ts {last_ts}")
        new_key = self._last is None or cell.key != self._last[0]
        if new_key:
            if self._current_bytes >= self.block_bytes and self._current:
                self._blocks.append(self._current)
                self._current = []
                self._current_bytes = 0
            self._keys.append(cell.key)
        self._current.append(cell)
        self._current_bytes += cell_size(cell)
        self._last = (cell.key, cell.ts)

    def add_all(self, cells: Iterable[Cell]) -> None:
        for cell in cells:
            self.add(cell)

    @property
    def is_empty(self) -> bool:
        return not self._blocks and not self._current

    def finish(self) -> SSTable:
        if self._current:
            self._blocks.append(self._current)
            self._current = []
        if not self._blocks:
            raise StorageError("cannot build an empty SSTable")
        bloom = BloomFilter.build(self._keys, expected_items=len(self._keys),
                                  false_positive_rate=self.bloom_fp_rate)
        return SSTable(self._blocks, bloom, name=self.name,
                       prefix_compressed=self.prefix_compression,
                       block_bytes=self.block_bytes)
