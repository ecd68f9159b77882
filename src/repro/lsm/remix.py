"""REMIX-style cross-SSTable sorted view.

``LSMTree.scan`` classically K-way heap-merges one iterator per memtable
and per SSTable, touching every block of every overlapping sorted run.
REMIX ("REMIX: Efficient Range Query for LSM-trees", FAST'21) persists a
*globally sorted view* over the whole SSTable set instead: one sorted key
run where each key carries pointers to all of its physical versions.  A
range scan then becomes a single cursor walk — no per-key heap ops, and
(because the pointers carry timestamps and tombstone flags) no block read
for any version that cannot win version resolution.

This module is the pure data structure:

* :class:`RemixView` — immutable sorted arrays ``keys[i] -> entries[i]``
  where an entry is a list of pointers ``(ts, tomb, table_id, block_id,
  slot)`` ordered newest-first (ties: tombstones before values, newer
  tables before older — exactly the precedence of
  :func:`repro.lsm.iterators.resolve_versions` over the heap-merged
  stream, so the two paths resolve identically);
* incremental maintenance: :meth:`merge_flush` folds one new (newest)
  SSTable into an existing view and :meth:`merge_compaction` retires the
  compacted inputs and folds in the (oldest) output — both O(view), never
  a from-scratch rebuild over all tables;
* a freshness check, :meth:`covers`: a view is usable only for exactly
  the SSTable set it was built over.  Stale views (store relink during
  split / move / promotion, or any racing mutation) make the tree fall
  back to the heap-merge path, so correctness never depends on view
  freshness.

The tombstone flag in the pointer is the "skip metadata": a cursor walk
that sees a tombstone as the newest admissible version skips the key
without fetching a single block.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.lsm.sstable import SSTable

__all__ = ["RemixView", "RemixPointer"]

# (ts, tombstone, table_id, block_id, slot) — newest-first within a key.
RemixPointer = Tuple[int, bool, int, int, int]


def _rank(pointer: RemixPointer) -> Tuple[int, int]:
    """Resolution precedence: higher ts first; at equal ts a tombstone
    masks a value (resolve_versions drops values with ts <= tomb_ts)."""
    return (-pointer[0], 0 if pointer[1] else 1)


def _merge_pointers(newer: List[RemixPointer],
                    older: List[RemixPointer]) -> List[RemixPointer]:
    """Merge two newest-first pointer lists; ``newer`` wins full ties
    (matches the heap path, where the newer component's stream index is
    lower and resolve_versions keeps the first cell it sees per ts)."""
    if not newer:
        return older
    if not older:
        return newer
    out: List[RemixPointer] = []
    i = j = 0
    ni, nj = len(newer), len(older)
    while i < ni and j < nj:
        if _rank(newer[i]) <= _rank(older[j]):
            out.append(newer[i])
            i += 1
        else:
            out.append(older[j])
            j += 1
    out.extend(newer[i:])
    out.extend(older[j:])
    return out


def _table_entries(table: SSTable) -> Tuple[List[bytes],
                                            List[List[RemixPointer]]]:
    """One table's sorted ``(keys, pointer-lists)`` arrays."""
    keys: List[bytes] = []
    entries: List[List[RemixPointer]] = []
    tid = table.sstable_id
    current: Optional[bytes] = None
    bucket: List[RemixPointer] = []
    for block_id in range(table.num_blocks):
        block = table.get_block(block_id)
        for slot, cell in enumerate(block):
            if cell.key != current:
                if bucket:
                    keys.append(current)  # type: ignore[arg-type]
                    entries.append(sorted(bucket, key=_rank))
                current = cell.key
                bucket = []
            bucket.append((cell.ts, cell.is_tombstone, tid, block_id, slot))
    if bucket:
        keys.append(current)  # type: ignore[arg-type]
        entries.append(sorted(bucket, key=_rank))
    return keys, entries


class RemixView:
    """Immutable sorted view over one SSTable set (see module docstring)."""

    __slots__ = ("table_ids", "keys", "entries")

    def __init__(self, table_ids: FrozenSet[int], keys: List[bytes],
                 entries: List[List[RemixPointer]]):
        self.table_ids = table_ids
        self.keys = keys
        self.entries = entries

    # -- construction --------------------------------------------------------

    @classmethod
    def empty(cls) -> "RemixView":
        return cls(frozenset(), [], [])

    @classmethod
    def build(cls, sstables: Sequence[SSTable]) -> "RemixView":
        """Full build over a table set (store adoption / relink): fold the
        tables oldest-first so each fold is a plain merge_flush."""
        view = cls.empty()
        for table in reversed(list(sstables)):   # sstables are newest-first
            view = view.merge_flush(table)
        return view

    def merge_flush(self, table: SSTable) -> "RemixView":
        """Fold one freshly flushed (newest) table into this view."""
        new_keys, new_entries = _table_entries(table)
        keys, entries = self._merge_runs(new_keys, new_entries,
                                         new_is_newer=True)
        return RemixView(self.table_ids | {table.sstable_id}, keys, entries)

    def merge_compaction(self, retired_ids: Iterable[int],
                         output: Optional[SSTable]) -> "RemixView":
        """Retire the compacted inputs' pointers and fold in the output
        table (the oldest layer; a major compaction that drops everything
        has ``output=None``).  Keys left with no pointers disappear."""
        retired = frozenset(retired_ids)
        keys: List[bytes] = []
        entries: List[List[RemixPointer]] = []
        for key, pointers in zip(self.keys, self.entries):
            kept = [p for p in pointers if p[2] not in retired]
            if kept:
                keys.append(key)
                entries.append(kept)
        table_ids = self.table_ids - retired
        survivor = RemixView(table_ids, keys, entries)
        if output is None:
            return survivor
        out_keys, out_entries = _table_entries(output)
        keys, entries = survivor._merge_runs(out_keys, out_entries,
                                             new_is_newer=False)
        return RemixView(table_ids | {output.sstable_id}, keys, entries)

    def _merge_runs(self, other_keys: List[bytes],
                    other_entries: List[List[RemixPointer]],
                    new_is_newer: bool) -> Tuple[List[bytes],
                                                 List[List[RemixPointer]]]:
        """Two-run sorted merge of ``(keys, entries)`` arrays."""
        keys: List[bytes] = []
        entries: List[List[RemixPointer]] = []
        a_keys, a_entries = self.keys, self.entries
        i = j = 0
        na, nb = len(a_keys), len(other_keys)
        while i < na and j < nb:
            ka, kb = a_keys[i], other_keys[j]
            if ka < kb:
                keys.append(ka)
                entries.append(a_entries[i])
                i += 1
            elif kb < ka:
                keys.append(kb)
                entries.append(other_entries[j])
                j += 1
            else:
                if new_is_newer:
                    merged = _merge_pointers(other_entries[j], a_entries[i])
                else:
                    merged = _merge_pointers(a_entries[i], other_entries[j])
                keys.append(ka)
                entries.append(merged)
                i += 1
                j += 1
        while i < na:
            keys.append(a_keys[i])
            entries.append(a_entries[i])
            i += 1
        while j < nb:
            keys.append(other_keys[j])
            entries.append(other_entries[j])
            j += 1
        return keys, entries

    # -- use ----------------------------------------------------------------

    def covers(self, sstables: Sequence[SSTable]) -> bool:
        """Fresh iff built over exactly this SSTable set."""
        if len(self.table_ids) != len(sstables):
            return False
        return all(t.sstable_id in self.table_ids for t in sstables)

    def cursor(self, start: bytes,
               end: Optional[bytes]) -> Tuple[int, int]:
        """Index window ``[lo, hi)`` of keys inside ``[start, end)`` — the
        whole planning cost of a REMIX scan: two binary searches, once."""
        lo = bisect_left(self.keys, start)
        hi = len(self.keys) if end is None else bisect_left(self.keys, end,
                                                            lo)
        return lo, hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RemixView tables={sorted(self.table_ids)} "
                f"keys={len(self.keys)}>")
