"""Version/tombstone resolution and merge iteration across LSM components.

The masking rule implemented here is the LSM property the whole paper
leans on (§4.3): *a tombstone at timestamp T masks every version of the
same key with ts <= T*, regardless of physical write order.  Diff-Index
deletes old index entries at ``t_new − δ`` so that a late-arriving
re-insert of the stale entry (AUQ re-delivery, out-of-order APS workers)
lands below the tombstone and stays invisible.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.lsm.types import Cell

__all__ = ["resolve_versions", "resolve_get", "newest_run",
           "merge_key_streams"]


def resolve_versions(cells: Iterable[Cell],
                     max_versions: Optional[int] = None) -> List[Cell]:
    """Reduce all physical versions of ONE key to its visible versions.

    ``cells`` may arrive in any order and may contain duplicates (crash
    replay re-delivers cells with identical timestamps — idempotent by
    design).  Returns live value cells newest-first, at most
    ``max_versions`` of them.
    """
    tomb_ts = -1
    seen_ts = set()
    values: List[Cell] = []
    for cell in cells:
        if cell.is_tombstone:
            if cell.ts > tomb_ts:
                tomb_ts = cell.ts
    # Memtable/SSTable version lists usually arrive already newest-first;
    # detect order while filtering and only sort on an actual violation.
    ordered = True
    prev_ts = None
    for cell in cells:
        if cell.is_tombstone or cell.ts <= tomb_ts:
            continue
        if cell.ts in seen_ts:
            continue  # idempotent duplicate (same key, same ts)
        seen_ts.add(cell.ts)
        if prev_ts is not None and cell.ts > prev_ts:
            ordered = False
        prev_ts = cell.ts
        values.append(cell)
    if not ordered:
        values.sort(key=lambda c: -c.ts)
    if max_versions is not None:
        values = values[:max_versions]
    return values


def resolve_get(cells: Iterable[Cell]) -> Optional[Cell]:
    """The single newest visible version, or None if absent/deleted."""
    visible = resolve_versions(cells, max_versions=1)
    return visible[0] if visible else None


def newest_run(cells: Sequence[Cell], key: bytes,
               max_ts: Optional[int] = None) -> Sequence[Cell]:
    """All a point read needs from ONE component: the cells of ``key`` at
    its newest timestamp ``<= max_ts`` there — a value, a tombstone, or
    both — or an empty run.  ``cells`` is sorted ``(key asc, ts desc)``,
    which a memtable version chain and an SSTable block both are."""
    newest = float("-inf") if max_ts is None else -max_ts
    start = end = bisect_left(cells, (key, newest),
                              key=lambda c: (c.key, -c.ts))
    while (end < len(cells) and cells[end].key == key
           and cells[end].ts == cells[start].ts):
        end += 1
    return cells[start:end]


def merge_key_streams(
    streams: Sequence[Iterator[Tuple[bytes, List[Cell]]]],
) -> Iterator[Tuple[bytes, List[Cell]]]:
    """Heap-merge several ordered ``(key, versions)`` streams into one,
    combining the version lists of equal keys newest-first.

    Each input stream must yield strictly increasing keys, with each
    version list newest-first (every component satisfies both).  When
    several streams collide on one key, the merged list is sorted
    newest-first ONCE here — a single stable pass over mostly-sorted
    input — so downstream consumers (``resolve_versions``, compaction)
    hit their already-ordered fast path instead of re-sorting per key.
    The stable sort preserves stream priority at equal timestamps: the
    lower-indexed (newer) stream's cells stay first.  Used by scans
    (memtable + every SSTable) and by compaction.
    """
    heap: List[Tuple[bytes, int, List[Cell], Iterator[Tuple[bytes, List[Cell]]]]] = []
    for idx, stream in enumerate(streams):
        try:
            key, cells = next(stream)
        except StopIteration:
            continue
        heap.append((key, idx, cells, stream))
    heapq.heapify(heap)

    while heap:
        key, idx, cells, stream = heapq.heappop(heap)
        merged = list(cells)
        collided = False
        # Pull every stream currently positioned at the same key.
        while heap and heap[0][0] == key:
            _, nidx, ncells, nstream = heapq.heappop(heap)
            merged.extend(ncells)
            collided = True
            _advance(heap, nidx, nstream)
        _advance(heap, idx, stream)
        if collided:
            merged.sort(key=lambda c: -c.ts)
        yield key, merged


def _advance(heap: List, idx: int,
             stream: Iterator[Tuple[bytes, List[Cell]]]) -> None:
    try:
        key, cells = next(stream)
    except StopIteration:
        return
    heapq.heappush(heap, (key, idx, cells, stream))
