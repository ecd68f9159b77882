"""Immutable on-disk sorted runs (HBase HFiles).

An SSTable is a list of *blocks*, each holding a contiguous run of cells
sorted by ``(key asc, ts desc)``, plus a sparse block index and a bloom
filter.  The builder never splits one key's versions across blocks, so a
point lookup touches at most one block.

SSTables carry no timing themselves; the LSM tree charges block reads to
the block cache or the simulated disk, which is where the paper's
"read is many times slower than write" asymmetry comes from.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.lsm.bloom import BloomFilter
from repro.lsm.learned import DEFAULT_EPSILON, LearnedBlockIndex, MIN_BLOCKS
from repro.lsm.types import Cell, KeyRange, cell_size

__all__ = ["SSTable", "SSTableBuilder", "DEFAULT_BLOCK_BYTES",
           "compressed_block_bytes"]

DEFAULT_BLOCK_BYTES = 4096

_sstable_ids = itertools.count(1)


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
        shared = 0
        limit = min(len(previous_key), len(cell.key))
        while shared < limit and previous_key[shared] == cell.key[shared]:
            shared += 1
        suffix = len(cell.key) - shared
        value_len = len(cell.value) if cell.value is not None else 0
        total += suffix + 2 + value_len + 24
        previous_key = cell.key
    return total


class SSTable:
    """Sealed sorted run.  Construct through :class:`SSTableBuilder`."""

    def __init__(self, blocks: List[List[Cell]], bloom: BloomFilter,
                 name: str = "", prefix_compressed: bool = False,
                 learned_epsilon: Optional[int] = DEFAULT_EPSILON):
        if not blocks:
            raise StorageError("SSTable must contain at least one block")
        self.sstable_id = next(_sstable_ids)
        self.name = name or f"sstable-{self.sstable_id}"
        self._blocks = blocks
        self._block_first_keys = [block[0].key for block in blocks]
        # Learned block index (repro.lsm.learned): built lazily on first
        # lookup, and only when the block index is big enough to beat a
        # plain bisect.  ``None`` epsilon disables the model for good.
        self._learned_epsilon = learned_epsilon
        self._learned: Optional[LearnedBlockIndex] = None
        self._learned_obs: Optional[Tuple] = None
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

    def block_bytes(self, block_id: int) -> int:
        """Accounted (possibly compressed) size of one block."""
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

    # -- learned block index --------------------------------------------------

    @property
    def learned_index(self) -> Optional[LearnedBlockIndex]:
        """The PLR model over ``_block_first_keys`` (lazily built; ``None``
        when disabled or the table is too small to benefit)."""
        if self._learned is None and self._learned_epsilon is not None \
                and len(self._block_first_keys) >= MIN_BLOCKS:
            self._learned = LearnedBlockIndex(self._block_first_keys,
                                              self._learned_epsilon)
            if self._learned_obs is not None:
                self._learned.bind_metrics(*self._learned_obs)
        return self._learned

    def bind_learned_metrics(self, error_histogram, fallback_counter) -> None:
        """Wire probe-error / fallback accounting (set by the hosting LSM
        tree; kept even if the model is not built yet)."""
        self._learned_obs = (error_histogram, fallback_counter)
        if self._learned is not None:
            self._learned.bind_metrics(error_histogram, fallback_counter)

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
        learned = self.learned_index
        if learned is not None:
            return learned.lookup(key)
        idx = bisect_right(self._block_first_keys, key) - 1
        return max(idx, 0)

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
            learned = self.learned_index
            if learned is not None:
                start_idx = learned.lookup(key_range.start)
            else:
                start_idx = max(bisect_right(first_keys,
                                             key_range.start) - 1, 0)
        if key_range.end is None:
            return range(start_idx, len(self._blocks))
        # bisect_left: a block whose FIRST key equals the exclusive end
        # holds only keys >= end and must not be opened.
        end_idx = bisect_left(first_keys, key_range.end, start_idx)
        return range(start_idx, min(end_idx, len(self._blocks)))

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
                 prefix_compression: bool = False,
                 learned_epsilon: Optional[int] = DEFAULT_EPSILON):
        self.block_bytes = block_bytes
        self.bloom_fp_rate = bloom_fp_rate
        self.name = name
        self.prefix_compression = prefix_compression
        self.learned_epsilon = learned_epsilon
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
                       learned_epsilon=self.learned_epsilon)
