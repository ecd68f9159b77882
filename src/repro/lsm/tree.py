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
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.lsm.cache import BlockCache
from repro.lsm.compaction import CompactionPolicy, CompactionResult, compact_sstables
from repro.lsm.iterators import newest_run, resolve_get, resolve_versions
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
    compaction: CompactionPolicy = dataclasses.field(default_factory=CompactionPolicy)


@dataclasses.dataclass
class ReadStats:
    """What one logical read touched (consumed by the latency model)."""

    memtable_probes: int = 0
    bloom_probes: int = 0
    blocks_from_cache: int = 0
    blocks_from_disk: int = 0


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
        self._obs_bisect_probes = None
        # The REMIX sorted view over the current SSTable set (DESIGN.md
        # §13): maintained incrementally at flush/compaction, rebuilt on
        # store relink, and rebuilt by a scan that finds it stale.
        self._remix_view = RemixView.empty()

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
        # Every block-index probe is the exact bisect.  The benchmark
        # contract (BENCHMARK.json, ledger/layers.py) still derives
        # ratio.learned_fallback from this counter, so it counts each
        # point-read probe (the ratio reads 1.0) until the contract drops
        # that name (ROADMAP.md item 11(g)); then this counter goes too.
        self._obs_bisect_probes = registry.counter(
            "learned_index_fallbacks_total", **labels)

    def _table_builder(self, name: str) -> SSTableBuilder:
        config = self.config
        return SSTableBuilder(
            block_bytes=config.block_bytes,
            bloom_fp_rate=config.bloom_fp_rate, name=name,
            prefix_compression=config.prefix_compression)

    # ------------------------------------------------------------- remix view

    @property
    def remix_view(self) -> RemixView:
        return self._remix_view

    @property
    def remix_fresh(self) -> bool:
        """True when the view covers the current SSTable set, so the next
        scan walks it without a rebuild."""
        return self._remix_view.covers(self._sstables)

    def rebuild_remix_view(self) -> None:
        """Full rebuild over the current SSTable set (store relink)."""
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

    def newest_ts(self) -> int:
        """The largest timestamp any component holds (0 when empty): the
        memtables' cells and each SSTable's recorded ``max_ts``."""
        newest = max((sstable.max_ts for sstable in self._sstables),
                     default=0)
        for memtable in [self._memtable] + [h.memtable for h in self._flushing]:
            for cell in memtable.all_cells():
                if cell.ts > newest:
                    newest = cell.ts
        return newest

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
        # Incremental view maintenance: fold the new (newest) table into
        # the retiring view rather than rebuilding from scratch.  A stale
        # view is rebuilt over the full new set.
        old = self._remix_view
        if old.covers(self._sstables):
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
        follower relink, promotion).  The REMIX view was built over the
        OLD set, so it is rebuilt over the new files here rather than by
        the next scan."""
        self._sstables = list(sstables)
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
            dead_entry_filter=dead_entry_filter if is_major else None)
        chosen_ids = {t.sstable_id for t in chosen}
        remaining = [t for t in self._sstables if t.sstable_id not in chosen_ids]
        if result.output is not None:
            remaining.append(result.output)  # merged data is the oldest layer
        # Incremental view maintenance: drop the retired inputs' pointers
        # from the retiring view and fold in the output (the oldest
        # surviving layer); full rebuild only if already stale.
        old = self._remix_view
        if old.covers(self._sstables):
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
        purpose: ``skip`` sees what the consumer has read so far."""
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
                if self._obs_bisect_probes is not None:
                    self._obs_bisect_probes.inc()
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
            stats: Optional[ReadStats] = None,
            tombstones: bool = False) -> Optional[Cell]:
        """Newest visible version of ``key`` at or before ``max_ts``, or
        with ``tombstones`` a deleted key's masking tombstone in place of
        None (from the same walk, at no extra charge).

        Takes each component's newest admissible run and skips, before
        its bloom probe, a file whose timestamp window cannot hold the
        deciding cell.  Exact (DESIGN.md §13.5): only the cells at the
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
        found = resolve_get(cells)
        if found is None and tombstones and cells:
            # No value outlives every tombstone, so one sits at best_ts.
            return next(c for c in cells
                        if c.ts == best_ts and c.is_tombstone)
        return found

    def probe_ts(self, key: bytes, stats: Optional[ReadStats] = None,
                 ) -> Optional[Tuple[int, bool]]:
        """``key``'s newest cell as ``(ts, is_tombstone)``, or None: the
        timestamp check of the validation read (DESIGN.md §14.6).

        The same timestamp-bounded walk as :meth:`get` (memtables, then
        SSTables newest first, skipping a file whose ``max_ts`` is below
        the best ts in hand, then its bloom filter), but each file it opens
        charges one sidecar block and no data block.  At equal ts a
        tombstone outranks a value, as it masks it."""
        best: Optional[Tuple[int, bool]] = None
        for memtable in [self._memtable] + [h.memtable for h in self._flushing]:
            if stats is not None:
                stats.memtable_probes += 1
            run = newest_run(memtable.cells_for(key), key)
            if run:
                entry = (run[0].ts, any(c.value is None for c in run))
                if best is None or entry > best:
                    best = entry
        for sstable in self._sstables:
            if best is not None and sstable.max_ts < best[0]:
                continue
            if stats is not None:
                stats.bloom_probes += 1
            if sstable.may_contain(key):
                entry, block_id = sstable.probe_ts(key)
                self._charge_block(sstable, block_id, stats)
                if entry is not None and (best is None or entry > best):
                    best = entry
        return best

    def get_versions(self, key: bytes, n: int, max_ts: Optional[int] = None,
                     stats: Optional[ReadStats] = None) -> List[Cell]:
        return resolve_versions(self._collect_cells(key, max_ts, stats),
                                max_versions=n)

    # ------------------------------------------------------------------- scan

    def scan(self, key_range: KeyRange, max_ts: Optional[int] = None,
             limit: Optional[int] = None,
             stats: Optional[ReadStats] = None) -> List[Cell]:
        """Visible newest version per key within ``key_range``, key order:
        one REMIX cursor walk (DESIGN.md §13).

        A view that does not cover the current SSTable set (a relink site
        that bypassed :meth:`relink_sstables`) is rebuilt first and the
        scan counted in ``remix_fallback_scans_total``, so results never
        depend on view freshness and the counter still names the miss."""
        view = self._remix_view
        if view.covers(self._sstables):
            if self._obs_remix_cursor is not None:
                self._obs_remix_cursor.inc()
        else:
            if self._obs_remix_fallback is not None:
                self._obs_remix_fallback.inc()
            self.rebuild_remix_view()
            view = self._remix_view
        return self._scan_remix(view, key_range, max_ts, limit, stats)

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
