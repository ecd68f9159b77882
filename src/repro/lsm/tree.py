"""The LSM tree: one per (region, table) — HBase's "Store".

All data-structure operations here are pure and instantaneous; timing is
the caller's job.  Reads fill in a :class:`ReadStats` describing exactly
what was touched (memtables probed, bloom filters consulted, blocks from
cache vs. disk), and the region server converts that into simulated
service time through the :class:`~repro.sim.latency.LatencyModel`.  This
split keeps the engine unit-testable without a simulator.

Flush is a two-phase affair (``prepare_flush`` / ``complete_flush``) so
the server can run the paper's pre-flush coprocessor hook — pause and
drain the AUQ — between sealing the memtable and rolling the WAL forward
(§5.3, Figure 5).
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from bisect import bisect_left
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.lsm.cache import BlockCache
from repro.lsm.compaction import CompactionPolicy, CompactionResult, compact_sstables
from repro.lsm.iterators import (merge_key_streams, newest_run, resolve_get,
                                 resolve_versions)
from repro.lsm.learned import DEFAULT_EPSILON
from repro.lsm.memtable import MemTable
from repro.lsm.remix import RemixView
from repro.lsm.sstable import DEFAULT_BLOCK_BYTES, SSTable, SSTableBuilder
from repro.lsm.types import Cell, KeyRange

__all__ = ["LSMConfig", "ReadStats", "LSMTree", "FlushHandle"]

_flush_ids = itertools.count(1)


@dataclasses.dataclass(frozen=True)
class LSMConfig:
    flush_threshold_bytes: int = 256 * 1024
    block_bytes: int = DEFAULT_BLOCK_BYTES
    max_versions: int = 3
    bloom_fp_rate: float = 0.01
    # Prefix-compress on-disk blocks (index tables benefit most: entries
    # sharing an indexed value share long key prefixes) — §10 future work.
    prefix_compression: bool = False
    # Range-scan engine (DESIGN.md §13): keep a REMIX-style cross-SSTable
    # sorted view so scans are one cursor walk instead of a K-way heap
    # merge.  Off = the classic merge_key_streams path, which also serves
    # as the fallback whenever the view is stale.
    remix_enabled: bool = True
    # Learned (greedy-PLR, ε-bounded) per-SSTable block index replacing
    # the bisect over _block_first_keys; falls back to exact search when
    # the error bound is violated.
    learned_index: bool = True
    learned_epsilon: int = DEFAULT_EPSILON
    compaction: CompactionPolicy = dataclasses.field(default_factory=CompactionPolicy)


@dataclasses.dataclass
class ReadStats:
    """What one logical read touched (consumed by the latency model)."""

    memtable_probes: int = 0
    bloom_probes: int = 0
    blocks_from_cache: int = 0
    blocks_from_disk: int = 0

    def merge(self, other: "ReadStats") -> None:
        self.memtable_probes += other.memtable_probes
        self.bloom_probes += other.bloom_probes
        self.blocks_from_cache += other.blocks_from_cache
        self.blocks_from_disk += other.blocks_from_disk


@dataclasses.dataclass
class FlushHandle:
    """A sealed memtable on its way to disk."""

    flush_id: int
    memtable: MemTable
    wal_seqno: int   # roll the WAL forward to here once the flush lands


class LSMTree:
    def __init__(self, name: str = "lsm", config: Optional[LSMConfig] = None,
                 cache: Optional[BlockCache] = None):
        self.name = name
        self.config = config or LSMConfig()
        self.cache = cache
        self._memtable = MemTable()
        self._flushing: List[FlushHandle] = []
        self._sstables: List[SSTable] = []   # newest first
        self._compactions_done = 0
        self.last_applied_seqno = 0
        # Optional observability hooks (see bind_metrics): the engine stays
        # simulator-free, but a hosting region server can point these at
        # its cluster registry.
        self._obs_memtable_cells = None
        self._obs_flushes = None
        self._obs_flush_cells = None
        self._obs_compactions = None
        self._obs_compaction_cells = None
        self._obs_remix_builds = None
        self._obs_remix_build_ms = None
        self._obs_remix_cursor = None
        self._obs_remix_fallback = None
        self._obs_learned_error = None
        self._obs_learned_fallbacks = None
        # The REMIX sorted view over the current SSTable set (DESIGN.md
        # §13).  Maintained incrementally at flush/compaction and rebuilt
        # on store relink; None only when the engine is disabled.
        self._remix_view: Optional[RemixView] = (
            RemixView.empty() if self.config.remix_enabled else None)

    def bind_metrics(self, registry, **labels) -> None:
        """Attach this tree's memtable/flush/compaction counters to a
        :class:`repro.obs.metrics.MetricsRegistry` (labelled, typically,
        by hosting server).  Safe to call again on region reassignment —
        same name+labels resolve to the same counters."""
        self._obs_memtable_cells = registry.counter("lsm_memtable_cells",
                                                    **labels)
        self._obs_flushes = registry.counter("lsm_flushes", **labels)
        self._obs_flush_cells = registry.counter("lsm_flush_cells", **labels)
        self._obs_compactions = registry.counter("lsm_compactions", **labels)
        self._obs_compaction_cells = registry.counter(
            "lsm_compaction_cells_read", **labels)
        self._obs_remix_builds = registry.counter("remix_view_builds_total",
                                                  **labels)
        self._obs_remix_build_ms = registry.histogram("remix_build_ms",
                                                      **labels)
        self._obs_remix_cursor = registry.counter("remix_cursor_scans_total",
                                                  **labels)
        self._obs_remix_fallback = registry.counter(
            "remix_fallback_scans_total", **labels)
        self._obs_learned_error = registry.histogram(
            "learned_index_probe_error", **labels)
        self._obs_learned_fallbacks = registry.counter(
            "learned_index_fallbacks_total", **labels)
        # Which compaction policy governs this store, as a gauge-label
        # (value is constant 1; the label carries the information).
        registry.gauge("compaction_policy",
                       policy=self.config.compaction.label, **labels).set(1)
        for sstable in self._sstables:
            self._bind_table_obs(sstable)

    def _bind_table_obs(self, sstable: SSTable) -> None:
        if self._obs_learned_error is not None:
            sstable.bind_learned_metrics(self._obs_learned_error,
                                         self._obs_learned_fallbacks)

    def _table_builder(self, name: str) -> SSTableBuilder:
        config = self.config
        return SSTableBuilder(
            block_bytes=config.block_bytes,
            bloom_fp_rate=config.bloom_fp_rate, name=name,
            prefix_compression=config.prefix_compression,
            learned_epsilon=(config.learned_epsilon
                             if config.learned_index else None))

    # ------------------------------------------------------------- remix view

    @property
    def remix_view(self) -> Optional[RemixView]:
        return self._remix_view

    @property
    def remix_fresh(self) -> bool:
        """True when the next scan will walk the view (no fallback)."""
        return (self._remix_view is not None
                and self._remix_view.covers(self._sstables))

    def invalidate_remix_view(self) -> None:
        """Drop the view; scans fall back to the heap merge until the next
        flush/compaction/relink rebuilds it."""
        self._remix_view = None

    def rebuild_remix_view(self) -> None:
        """Full rebuild over the current SSTable set (store relink)."""
        if not self.config.remix_enabled:
            return
        self._set_remix_view(lambda: RemixView.build(self._sstables))

    def _set_remix_view(self, build) -> None:
        """Run one view build/merge step, with build-time accounting."""
        start = time.perf_counter()
        self._remix_view = build()
        if self._obs_remix_builds is not None:
            self._obs_remix_builds.inc()
            self._obs_remix_build_ms.observe(
                (time.perf_counter() - start) * 1000.0)

    # ------------------------------------------------------------------ write

    def add(self, cell: Cell, seqno: int = 0) -> None:
        self._memtable.add(cell)
        if self._obs_memtable_cells is not None:
            self._obs_memtable_cells.inc()
        if seqno > self.last_applied_seqno:
            self.last_applied_seqno = seqno

    def add_many(self, cells: Tuple[Cell, ...], seqno: int = 0) -> None:
        for cell in cells:
            self._memtable.add(cell)
        if self._obs_memtable_cells is not None:
            self._obs_memtable_cells.inc(len(cells))
        if seqno > self.last_applied_seqno:
            self.last_applied_seqno = seqno

    @property
    def memtable_bytes(self) -> int:
        return self._memtable.approximate_bytes

    @property
    def needs_flush(self) -> bool:
        return (self._memtable.approximate_bytes
                >= self.config.flush_threshold_bytes
                and len(self._memtable) > 0)

    # ------------------------------------------------------------------ flush

    def prepare_flush(self) -> Optional[FlushHandle]:
        """Seal the active memtable; returns None if there is nothing in it."""
        if len(self._memtable) == 0:
            return None
        sealed = self._memtable
        sealed.seal()
        handle = FlushHandle(next(_flush_ids), sealed, self.last_applied_seqno)
        self._flushing.append(handle)
        self._memtable = MemTable()
        return handle

    def complete_flush(self, handle: FlushHandle) -> SSTable:
        """Materialise the sealed memtable as an SSTable (Figure 2(b))."""
        if handle not in self._flushing:
            raise StorageError("unknown flush handle")
        builder = self._table_builder(f"{self.name}/flush-{handle.flush_id}")
        builder.add_all(handle.memtable.all_cells())
        sstable = builder.finish()
        self._bind_table_obs(sstable)
        if self.config.remix_enabled:
            # Incremental view maintenance: fold the new (newest) table
            # into the retiring view rather than rebuilding from scratch.
            # A stale/absent view is rebuilt over the full new set.
            old = self._remix_view
            if old is not None and old.covers(self._sstables):
                self._set_remix_view(lambda: old.merge_flush(sstable))
            else:
                self._set_remix_view(
                    lambda: RemixView.build([sstable] + self._sstables))
        self._sstables.insert(0, sstable)
        self._flushing.remove(handle)
        if self._obs_flushes is not None:
            self._obs_flushes.inc()
            self._obs_flush_cells.inc(len(handle.memtable))
        return sstable

    def adopt_sstables(self, sstables) -> None:
        """Re-link flushed store files during region recovery: the files
        persisted in the durable FS and simply become this tree's disk
        components again (newest-first order preserved)."""
        if self._sstables:
            raise StorageError("adopt_sstables on a non-empty tree")
        self.relink_sstables(sstables)

    def relink_sstables(self, sstables) -> None:
        """Swap the disk component set wholesale (split/move adoption,
        follower relink, promotion).  Any existing REMIX view was built
        over the OLD set, so it is invalidated and rebuilt over the new
        files — the freshness check would otherwise force every scan onto
        the fallback path until the next flush."""
        self._sstables = list(sstables)
        for sstable in self._sstables:
            self._bind_table_obs(sstable)
        self._remix_view = None
        if self.config.remix_enabled:
            self.rebuild_remix_view()

    # ------------------------------------------------------------- compaction

    @property
    def sstable_count(self) -> int:
        return len(self._sstables)

    @property
    def needs_compaction(self) -> bool:
        return len(self._sstables) >= self.config.compaction.min_files

    def compact(self, dead_entry_filter=None) -> Optional[CompactionResult]:
        """Run one compaction round if the policy asks for one.

        ``dead_entry_filter`` (index tables under lazy schemes) only
        applies when the policy picked a MAJOR round — minor merges
        cannot prove an entry dead (see ``compact_sstables``)."""
        chosen, is_major = self.config.compaction.pick(
            self._sstables, self._compactions_done)
        if not chosen:
            return None
        result = compact_sstables(
            chosen, max_versions=self.config.max_versions, major=is_major,
            block_bytes=self.config.block_bytes,
            name=f"{self.name}/compact-{self._compactions_done + 1}",
            prefix_compression=self.config.prefix_compression,
            learned_epsilon=(self.config.learned_epsilon
                             if self.config.learned_index else None),
            dead_entry_filter=dead_entry_filter if is_major else None)
        chosen_ids = {t.sstable_id for t in chosen}
        remaining = [t for t in self._sstables if t.sstable_id not in chosen_ids]
        if result.output is not None:
            self._bind_table_obs(result.output)
            remaining.append(result.output)  # merged data is the oldest layer
        if self.config.remix_enabled:
            # Incremental view maintenance: drop the retired inputs'
            # pointers from the retiring view and fold in the output (the
            # oldest surviving layer); full rebuild only if already stale.
            old = self._remix_view
            if old is not None and old.covers(self._sstables):
                self._set_remix_view(
                    lambda: old.merge_compaction(chosen_ids, result.output))
            else:
                self._set_remix_view(lambda: RemixView.build(remaining))
        self._sstables = remaining
        if self.cache is not None:
            for table in chosen:
                self.cache.invalidate_sstable(table.sstable_id)
        self._compactions_done += 1
        if self._obs_compactions is not None:
            self._obs_compactions.inc()
            self._obs_compaction_cells.inc(result.cells_read)
        return result

    # ------------------------------------------------------------------- read

    def _sources(self, key: bytes, stats: Optional[ReadStats],
                 skip=lambda sstable: False) -> Iterator[Sequence[Cell]]:
        """The point-read walk: each memtable's version chain for ``key``,
        then the one (charged) block that could hold it from every
        SSTable not ``skip``-ped that passes its bloom filter.  Lazy on
        purpose: ``skip`` sees what the consumer has learned so far."""
        for memtable in [self._memtable] + [h.memtable for h in self._flushing]:
            if stats is not None:
                stats.memtable_probes += 1
            yield memtable.cells_for(key)
        for sstable in self._sstables:
            if skip(sstable):
                continue
            if stats is not None:
                stats.bloom_probes += 1
            if sstable.may_contain(key):
                block_id = sstable.block_for_key(key)
                self._charge_block(sstable, block_id, stats)
                yield sstable.get_block(block_id)

    def _collect_cells(self, key: bytes, max_ts: Optional[int],
                       stats: Optional[ReadStats]) -> List[Cell]:
        """EVERY version at or before ``max_ts`` from every component:
        what ``get_versions`` needs, and the exhaustive reference the
        property tests hold ``get``'s bounded walk to."""
        return [c for source in self._sources(key, stats) for c in source
                if c.key == key and (max_ts is None or c.ts <= max_ts)]

    def _charge_block(self, sstable: SSTable, block_id: int,
                      stats: Optional[ReadStats]) -> None:
        if stats is None:
            return
        if self.cache is None:
            stats.blocks_from_disk += 1
            return
        hit = self.cache.access(BlockCache.block_id(sstable.sstable_id,
                                                    block_id),
                                sstable.block_bytes(block_id))
        if hit:
            stats.blocks_from_cache += 1
        else:
            stats.blocks_from_disk += 1

    def get(self, key: bytes, max_ts: Optional[int] = None,
            stats: Optional[ReadStats] = None) -> Optional[Cell]:
        """Newest visible version of ``key`` at or before ``max_ts``.

        Takes each component's newest admissible run and skips, before
        its bloom probe, a file whose timestamp window cannot hold the
        deciding cell.  Exact (DESIGN.md §13.6): only the cells at the
        key's highest admissible ts matter, and a skipped file has none.
        Strictly ``<``: an equal-ts tombstone there would mask the value."""
        cells: List[Cell] = []
        best_ts = -1

        def skip(sstable: SSTable) -> bool:
            return sstable.max_ts < best_ts or (
                max_ts is not None and sstable.min_ts > max_ts)

        for source in self._sources(key, stats, skip):
            run = newest_run(source, key, max_ts)
            if run and run[0].ts >= best_ts:
                best_ts = run[0].ts
                cells.extend(run)
        return resolve_get(cells)

    def get_versions(self, key: bytes, n: int, max_ts: Optional[int] = None,
                     stats: Optional[ReadStats] = None) -> List[Cell]:
        return resolve_versions(self._collect_cells(key, max_ts, stats),
                                max_versions=n)

    # ------------------------------------------------------------------- scan

    def _memtable_stream(self, memtable: MemTable, key_range: KeyRange,
                         ) -> Iterator[Tuple[bytes, List[Cell]]]:
        return memtable.scan(key_range)

    def _sstable_stream(self, sstable: SSTable, key_range: KeyRange,
                        stats: Optional[ReadStats],
                        ) -> Iterator[Tuple[bytes, List[Cell]]]:
        current_key: Optional[bytes] = None
        bucket: List[Cell] = []
        last_block = -1
        for block_id in sstable.blocks_for_range(key_range):
            for cell in sstable.get_block(block_id):
                if cell.key < key_range.start:
                    continue
                if key_range.end is not None and cell.key >= key_range.end:
                    break
                if block_id != last_block:
                    self._charge_block(sstable, block_id, stats)
                    last_block = block_id
                if cell.key != current_key:
                    if bucket:
                        yield current_key, bucket  # type: ignore[misc]
                    current_key = cell.key
                    bucket = []
                bucket.append(cell)
        if bucket:
            yield current_key, bucket  # type: ignore[misc]

    def scan(self, key_range: KeyRange, max_ts: Optional[int] = None,
             limit: Optional[int] = None,
             stats: Optional[ReadStats] = None) -> List[Cell]:
        """Visible newest version per key within ``key_range``, key order.

        Dispatches to the REMIX cursor walk when the sorted view is fresh
        (DESIGN.md §13); a stale or disabled view falls back to the
        classic K-way heap merge, so results never depend on view
        freshness — only the touched-block accounting does.
        """
        if self.config.remix_enabled:
            view = self._remix_view
            if view is not None and view.covers(self._sstables):
                if self._obs_remix_cursor is not None:
                    self._obs_remix_cursor.inc()
                return self._scan_remix(view, key_range, max_ts, limit, stats)
            if self._obs_remix_fallback is not None:
                self._obs_remix_fallback.inc()
        return self._scan_heap(key_range, max_ts, limit, stats)

    def _scan_heap(self, key_range: KeyRange, max_ts: Optional[int],
                   limit: Optional[int],
                   stats: Optional[ReadStats]) -> List[Cell]:
        """The classic path: heap-merge one stream per component."""
        streams: List[Iterator[Tuple[bytes, List[Cell]]]] = []
        for memtable in [self._memtable] + [h.memtable for h in self._flushing]:
            streams.append(self._memtable_stream(memtable, key_range))
            if stats is not None:
                stats.memtable_probes += 1
        for sstable in self._sstables:
            streams.append(self._sstable_stream(sstable, key_range, stats))

        out: List[Cell] = []
        for _key, cells in merge_key_streams(streams):
            if max_ts is not None:
                cells = [c for c in cells if c.ts <= max_ts]
            visible = resolve_get(cells)
            if visible is not None:
                out.append(visible)
                if limit is not None and len(out) >= limit:
                    break
        return out

    def _scan_remix(self, view: RemixView, key_range: KeyRange,
                    max_ts: Optional[int], limit: Optional[int],
                    stats: Optional[ReadStats]) -> List[Cell]:
        """One cursor walk over the sorted view, merged with the (few,
        usually one) memtable streams by plain comparison — no ``heapq``,
        no per-SSTable iterators, and a block fetch only for the single
        winning version of each key.  Tombstone skip metadata in the
        pointers means a deleted key costs zero block reads."""
        tables = {t.sstable_id: t for t in self._sstables}
        heads: List[List] = []   # [key, versions, iterator], live memtables
        for memtable in [self._memtable] + [h.memtable for h in self._flushing]:
            if stats is not None:
                stats.memtable_probes += 1
            stream = memtable.scan(key_range)
            try:
                key, versions = next(stream)
            except StopIteration:
                continue
            heads.append([key, versions, stream])

        vi, vend = view.cursor(key_range.start, key_range.end)
        keys, entries = view.keys, view.entries
        charged = set()   # (table_id, block_id) pairs already accounted
        out: List[Cell] = []

        resolve = self._resolve_at_cursor
        while True:
            view_key = keys[vi] if vi < vend else None
            next_key = view_key
            for head in heads:
                key = head[0]
                if next_key is None or key < next_key:
                    next_key = key
            if next_key is None:
                break

            at_view = view_key == next_key and view_key is not None
            if heads:
                mem_cells: List[Cell] = []
                for head in heads:
                    if head[0] == next_key:
                        mem_cells.extend(head[1])
            else:
                mem_cells = []
            pointers = entries[vi] if at_view else ()

            visible = resolve(mem_cells, pointers, tables,
                              max_ts, stats, charged)
            if visible is not None:
                out.append(visible)
                if limit is not None and len(out) >= limit:
                    break

            if at_view:
                vi += 1
            i = 0
            while i < len(heads):
                head = heads[i]
                if head[0] == next_key:
                    try:
                        head[0], head[1] = next(head[2])
                    except StopIteration:
                        heads.pop(i)
                        continue
                i += 1
        return out

    def _resolve_at_cursor(self, mem_cells: List[Cell], pointers,
                           tables, max_ts: Optional[int],
                           stats: Optional[ReadStats],
                           charged: set) -> Optional[Cell]:
        """Version resolution for ONE key straight off the view pointers.

        Both inputs are newest-first with tombstones ordered before values
        at equal ts, which is exactly the precedence
        :func:`resolve_versions` applies to the merged heap stream: the
        first admissible (ts <= max_ts) item decides — a tombstone masks
        everything at or below its ts, a value wins outright.  Memtable
        cells outrank pointers on full ties (same ts, same kind), matching
        the heap path's stream ordering; either way the bytes agree, since
        equal-ts duplicates are idempotent re-deliveries by design.

        The first admissible item in merged rank order is simply the
        minimum-rank admissible item, so no sort or merge walk is needed:
        one pass picks the best admissible memtable cell (version lists
        sort by ts only and concatenation across memtables isn't ordered
        at all, so every candidate is inspected), the first admissible
        pointer is best on the pointer side (pointers ARE rank-ordered),
        and a single comparison decides between them."""
        best_cell: Optional[Cell] = None
        best_ts = 0
        best_tomb = False
        for cell in mem_cells:
            ts = cell.ts
            if max_ts is not None and ts > max_ts:
                continue
            tomb = cell.value is None
            if (best_cell is None or ts > best_ts
                    or (ts == best_ts and tomb and not best_tomb)):
                best_cell, best_ts, best_tomb = cell, ts, tomb
        for pointer in pointers:
            ts = pointer[0]
            if max_ts is not None and ts > max_ts:
                continue
            tomb = pointer[1]
            if best_cell is not None and (
                    best_ts > ts
                    or (best_ts == ts and (best_tomb or not tomb))):
                break   # memtable wins (including full ties)
            if tomb:
                return None   # skip metadata: masked key, zero block reads
            _ts, _tomb, table_id, block_id, slot = pointer
            sstable = tables[table_id]
            if (table_id, block_id) not in charged:
                charged.add((table_id, block_id))
                self._charge_block(sstable, block_id, stats)
            return sstable.cell_at(block_id, slot)
        if best_cell is None or best_tomb:
            return None
        return best_cell

    # ----------------------------------------------------------------- stats

    @property
    def total_cells(self) -> int:
        return (len(self._memtable)
                + sum(len(h.memtable) for h in self._flushing)
                + sum(t.cell_count for t in self._sstables))

    @property
    def total_bytes(self) -> int:
        return (self._memtable.approximate_bytes
                + sum(h.memtable.approximate_bytes for h in self._flushing)
                + sum(t.total_bytes for t in self._sstables))
