"""Compaction policies: merging SSTables and discarding dead versions.

The paper's Figure 2(c): periodically, disk stores are compacted to
consolidate multi-versions of a record into a single place.  Two flavours:

* **minor** — merge some SSTables; tombstones are preserved (an older
  file outside the merge set may still hold cells they mask);
* **major** — merge *all* SSTables; tombstones and the versions they mask
  are dropped for good.

Version retention: at most ``max_versions`` live values per key survive a
compaction (HBase's ``VERSIONS``).  Diff-Index needs old versions to stay
readable until the AUQ has processed their puts — the store keeps
``max_versions >= 3`` by default so ``RB(k, t_new − δ)`` can find the old
value (see DESIGN.md §5.3).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.lsm.iterators import merge_key_streams
from repro.lsm.sstable import SSTable, SSTableBuilder
from repro.lsm.types import Cell

__all__ = ["CompactionPolicy", "compact_sstables", "CompactionResult"]


@dataclasses.dataclass
class CompactionPolicy:
    """Size-tiered trigger: compact once enough files accumulate.

    A per-table value (``create_table`` / ``create_index`` take one).
    ``major_every=1`` makes every round a major merge of every file —
    single-run leveling, which gives the index dead-entry purge of
    DESIGN.md §14 a chance every round."""

    min_files: int = 4          # fewest files worth merging
    max_files: int = 10         # merge at most this many at once
    major_every: int = 4        # every Nth compaction is major

    def pick(self, sstables: Sequence[SSTable],
             compactions_done: int) -> Tuple[List[SSTable], bool]:
        """Choose the files to merge.  Returns ``(files, is_major)``;
        an empty list means nothing to do."""
        if len(sstables) < self.min_files:
            return [], False
        is_major = (compactions_done + 1) % self.major_every == 0
        if is_major:
            return list(sstables), True
        # Oldest files first: size-tiered stores accumulate newest at the
        # front, so take from the back.
        chosen = list(sstables[-self.max_files:])
        return chosen, len(chosen) == len(sstables)


@dataclasses.dataclass
class CompactionResult:
    output: Optional[SSTable]
    cells_read: int
    cells_written: int
    dropped_tombstones: int
    dropped_versions: int
    # Live index entries a major compaction proved dead against the base
    # table (validation / sync-insert GC, DESIGN.md §14).
    dropped_dead_entries: int = 0


def _sstable_stream(sstable: SSTable) -> Iterator[Tuple[bytes, List[Cell]]]:
    """Group an SSTable's cell stream by key (cells are key-ordered)."""
    current_key: Optional[bytes] = None
    bucket: List[Cell] = []
    for cell in sstable.all_cells():
        if cell.key != current_key:
            if bucket:
                yield current_key, bucket  # type: ignore[misc]
            current_key = cell.key
            bucket = []
        bucket.append(cell)
    if bucket:
        yield current_key, bucket  # type: ignore[misc]


def compact_sstables(sstables: Sequence[SSTable], max_versions: int,
                     major: bool, block_bytes: int,
                     name: str = "",
                     prefix_compression: bool = False,
                     dead_entry_filter: Optional[Callable[[Cell], bool]] = None,
                     ) -> CompactionResult:
    """Pure merge of ``sstables`` into one output table.

    ``dead_entry_filter`` (major compactions of index tables under lazy
    schemes) is asked about every surviving live cell; a True verdict
    means the entry can never validate again — its base row was
    overwritten before ts−δ — so it is dropped and counted in
    ``dropped_dead_entries``.  Ignored on minor compactions: a file
    outside the merge set may hold a version the verdict depends on.
    """
    builder = SSTableBuilder(block_bytes=block_bytes, name=name,
                             prefix_compression=prefix_compression)
    cells_read = 0
    cells_written = 0
    dropped_tombstones = 0
    dropped_versions = 0
    dropped_dead_entries = 0

    streams = [_sstable_stream(t) for t in sstables]
    for key, cells in merge_key_streams(streams):
        cells_read += len(cells)
        out = _resolve_for_compaction(cells, max_versions, major)
        dropped = len(cells) - len(out)
        tombs_in = sum(1 for c in cells if c.is_tombstone)
        tombs_out = sum(1 for c in out if c.is_tombstone)
        dropped_tombstones += tombs_in - tombs_out
        dropped_versions += dropped - (tombs_in - tombs_out)
        if major and dead_entry_filter is not None:
            kept = [c for c in out
                    if c.is_tombstone or not dead_entry_filter(c)]
            dropped_dead_entries += len(out) - len(kept)
            out = kept
        for cell in out:
            builder.add(cell)
            cells_written += 1

    output = None if builder.is_empty else builder.finish()
    return CompactionResult(output, cells_read, cells_written,
                            dropped_tombstones, dropped_versions,
                            dropped_dead_entries)


def _resolve_for_compaction(cells: List[Cell], max_versions: int,
                            major: bool) -> List[Cell]:
    """What survives a compaction for one key, newest-first by ts."""
    tomb_ts = -1
    newest_tomb: Optional[Cell] = None
    for cell in cells:
        if cell.is_tombstone and cell.ts > tomb_ts:
            tomb_ts = cell.ts
            newest_tomb = cell

    live: List[Cell] = []
    seen_ts = set()
    for cell in sorted(cells, key=lambda c: -c.ts):
        if cell.is_tombstone or cell.ts <= tomb_ts:
            continue
        if cell.ts in seen_ts:
            continue
        seen_ts.add(cell.ts)
        live.append(cell)
    live = live[:max_versions]

    if major or newest_tomb is None:
        # Major compaction covers every file, so masked versions and the
        # tombstone itself can all disappear.
        return live
    # Minor: keep only the newest tombstone (it subsumes older ones).
    out = live + [newest_tomb]
    out.sort(key=lambda c: -c.ts)
    return out
