"""The region server: request handling, AUQ/APS, flush & compaction loops.

This is the HBase RegionServer of §2.2 with the Diff-Index server-side
components of §7 attached: when a put arrives it is timestamped, written
to the WAL on SimHDFS, applied to the memtable, and then the registered
coprocessors run (synchronous index maintenance inline, asynchronous
enqueue into the AUQ).  Background processes per server:

* ``aps_worker`` × N — drain the AUQ (Algorithm 4);
* ``maintenance_loop`` — flush memtables over threshold, following the
  drain-AUQ-before-flush recovery protocol (Figure 5), then trigger
  compactions;
* ``heartbeat_loop`` — liveness signal for the coordinator.

Queueing model: each request occupies one *handler* slot for its whole
lifetime (HBase handler threads); random reads occupy the *disk*; WAL
appends serialise on the *log* device.  Saturating any of these produces
the latency growth in Figures 7/8 and the AUQ backlog of Figure 11.
"""

from __future__ import annotations

import dataclasses
from typing import (Any, Dict, Generator, List, Optional, Set, Tuple,
                    TYPE_CHECKING)

from repro.errors import (EncodingError, NoSuchRegionError, RpcError,
                          ServerDownError)
from repro.core.auq import IndexTask, aps_worker, maintain_indexes
from repro.core.coprocessor import IndexOpContext
from repro.core.encoding import decode_index_key
from repro.core.index import IndexState, extract_index_values
from repro.core.local import (is_reserved_key, local_scan_range,
                              plan_local_index_cells)
from repro.core.observers import build_observers
from repro.lsm.cache import BlockCache
from repro.lsm.tree import ReadStats
from repro.lsm.types import DELTA_MS, Cell, KeyRange
from repro.lsm.wal import WriteAheadLog
from repro.cluster.region import Region, compose_cell_key
from repro.cluster.table import TableDescriptor
from repro.replication.replica import FollowerReplica
from repro.replication.ship import replication_ship_loop
from repro.sim.kernel import Timeout
from repro.sim.resources import AsyncQueue, Gate, Latch, Resource, use
from repro.sim.scatter import FANOUT_BUCKETS

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import MiniCluster

__all__ = ["ServerConfig", "RegionServer"]


@dataclasses.dataclass
class ServerConfig:
    num_handlers: int = 10
    num_aps_workers: int = 2
    aps_batch_size: int = 16
    # Bound on concurrent outbound index ops when one mutation fans its
    # PI/DI statement group out to several index regions at once.
    scatter_max_fanout: int = 16
    disk_parallelism: int = 2
    block_cache_bytes: int = 2 * 1024 * 1024
    maintenance_interval_ms: float = 50.0
    heartbeat_interval_ms: float = 500.0
    # Recovery-protocol knobs (ablations; see DESIGN.md §5).
    drain_auq_before_flush: bool = True
    # strict: the AUQ intake gate stays closed through the flush I/O, as in
    # Figure 5; if False it reopens right after the memtable is sealed
    # (safe: post-seal puts survive the WAL roll-forward).
    strict_flush_gate: bool = False
    # AUQ backpressure (§4's overflow fallback): at the high watermark an
    # enqueue degrades to synchronous apply instead of growing the queue
    # without bound.  None disables the guard (the Figure 11 backlog
    # reproduction sets it to None explicitly).
    auq_high_watermark: Optional[int] = 25_000


class RegionServer:
    def __init__(self, name: str, cluster: "MiniCluster",
                 config: Optional[ServerConfig] = None):
        self.name = name
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config or ServerConfig()
        self.alive = True

        self.regions: Dict[str, Region] = {}
        self.cache = BlockCache(self.config.block_cache_bytes)
        self.wal = WriteAheadLog(cluster.hdfs.create_wal(name))

        # Replication state (inert at replication_factor=1).  Follower
        # replicas hosted HERE, keyed by region name; the leader-side
        # acked ship watermark per (region, follower); and the latest
        # flush point per led region — (rolled_seqno, prepare_time),
        # recorded synchronously with each WAL roll-forward so it can be
        # piggybacked on ship batches race-free.
        self.follower_regions: Dict[str, FollowerReplica] = {}
        self.ship_state: Dict[Tuple[str, str], int] = {}
        self.ship_inflight: Set[Tuple[str, str]] = set()
        self.flush_points: Dict[str, Tuple[int, float]] = {}

        # Devices.  Index-table ops get their own handler pool: a put
        # handler blocks on remote index puts, so sharing one pool would
        # deadlock two servers whose put handlers wait on each other — the
        # cross-coprocessor-RPC hazard HBase avoids with priority queues.
        self.handlers = Resource(self.sim, self.config.num_handlers,
                                 name=f"{name}/handlers")
        self.index_handlers = Resource(self.sim, self.config.num_handlers,
                                       name=f"{name}/index-handlers")
        self.disk = Resource(self.sim, self.config.disk_parallelism,
                             name=f"{name}/disk")
        self.log_device = Resource(self.sim, 1, name=f"{name}/log")

        # Diff-Index server-side state.
        self.auq = AsyncQueue(self.sim, name=f"{name}/auq")
        self.auq_gate = Gate(self.sim, name=f"{name}/auq-gate")
        # Operator toggle: closing this gate suspends APS processing while
        # the queue keeps accepting work — used by tests and demos to hold
        # a staleness window open deterministically.
        self.aps_gate = Gate(self.sim, name=f"{name}/aps-gate")
        self.auq_inflight = Latch(self.sim, name=f"{name}/auq-inflight")
        self.put_inflight = Latch(self.sim, name=f"{name}/put-inflight")
        self.op_context = IndexOpContext(self)
        self.staleness = cluster.staleness
        self.aps_retries = 0

        # Observability probes (repro.obs): handles are resolved once here
        # so the hot paths pay a plain attribute access, not a registry
        # lookup.  The AUQ depth gauge and lag histogram are the live
        # Figure 11 instrumentation.
        metrics = cluster.metrics
        self.tracer = cluster.tracer
        self.obs_auq_depth = metrics.gauge("auq_depth", server=name)
        self.obs_auq_lag = metrics.histogram("auq_lag_ms", server=name)
        self.obs_auq_lag_last = metrics.gauge("auq_lag_last_ms", server=name)
        self.obs_aps_retries = metrics.counter("aps_retries", server=name)
        self.obs_degraded = metrics.counter("degraded_tasks", server=name)
        self.obs_auq_degraded = metrics.counter("auq_degraded_total",
                                                server=name)
        self.obs_flush_gate_wait = metrics.histogram("flush_gate_wait_ms",
                                                     server=name)
        # Group-commit width: how many mutations shared one WAL write —
        # the amortization the batched foreground path (and the APS's
        # batched deliveries) buys is read straight off this histogram.
        self.obs_wal_group = metrics.histogram("wal_group_commit_size",
                                               bounds=FANOUT_BUCKETS,
                                               server=name)
        # Block-cache visibility: hit/miss counters tick inline with each
        # access; the derived hit_rate gauge refreshes every maintenance
        # tick (cheap, deterministic, fresh enough for bench snapshots).
        self.cache.bind_metrics(metrics, server=name)
        self.obs_cache_hit_rate = metrics.gauge("block_cache_hit_rate",
                                                server=name)
        # Replication probes: follower-read and quorum-repair counters
        # resolve once here; the per-region replication_lag_ms histogram
        # is looked up at observe time (ship cadence, not a hot path).
        self.obs_follower_reads = metrics.counter("follower_reads_total",
                                                  server=name)
        self.obs_quorum_repairs = metrics.counter("quorum_repairs_total",
                                                  server=name)
        # Index entries a major compaction proved dead against the base
        # table (lazy schemes' GC; DESIGN.md §14).
        self.obs_dead_purged = metrics.counter(
            "compaction_dead_entries_purged_total", server=name)

        # Monotonic per-server timestamps: System.currentTimeMillis() is
        # non-decreasing; we additionally break ties so that two writes to
        # the same row (serialised by its row lock) never share a ts,
        # keeping the δ arithmetic of §4.3 exact.
        self._last_ts = 0

        self.last_heartbeat = self.sim.now()
        self.flushes_completed = 0
        self.compactions_completed = 0
        self.flush_gate_wait_ms = 0.0    # total put-path delay from drains

        self._background: List[Any] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RegionServer {self.name} regions={len(self.regions)}>"

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        for worker_id in range(self.config.num_aps_workers):
            self._background.append(self.sim.spawn(
                aps_worker(self, worker_id), name=f"{self.name}/aps{worker_id}"))
        self._background.append(self.sim.spawn(
            self._maintenance_loop(), name=f"{self.name}/maintenance"))
        self._background.append(self.sim.spawn(
            self._heartbeat_loop(), name=f"{self.name}/heartbeat"))
        if self.cluster.replication.enabled:
            # Spawned only when replication is on: single-copy runs stay
            # event-for-event identical to the pre-replication cluster.
            self._background.append(self.sim.spawn(
                replication_ship_loop(self), name=f"{self.name}/ship"))

    def kill(self) -> None:
        """Crash: memtables and AUQ contents die with the process; the WAL
        and flushed store files survive in SimHDFS."""
        self.alive = False
        # Release APS workers parked on the queue so they observe death.
        for _ in range(self.config.num_aps_workers):
            self.auq.put(None)

    # -- region hosting -------------------------------------------------------

    def add_region(self, region: Region) -> None:
        region.tree.cache = self.cache
        region.tree.bind_metrics(self.cluster.metrics, server=self.name)
        self.regions[region.name] = region

    def remove_region(self, region_name: str) -> Optional[Region]:
        self.flush_points.pop(region_name, None)
        for key in [k for k in self.ship_state if k[0] == region_name]:
            del self.ship_state[key]
        return self.regions.pop(region_name, None)

    def add_follower(self, replica: FollowerReplica) -> None:
        """Host a follower replica: same cache/metrics binding as a led
        region, but it lives in ``follower_regions`` — invisible to the
        write path, the maintenance loop and ``region_for`` routing."""
        replica.region.tree.cache = self.cache
        replica.region.tree.bind_metrics(self.cluster.metrics,
                                         server=self.name)
        self.follower_regions[replica.region_name] = replica

    def remove_follower(self, region_name: str) -> Optional[FollowerReplica]:
        return self.follower_regions.pop(region_name, None)

    def handle_split_close(self, table: str, region_name: str,
                           ) -> Generator[Any, Any, None]:
        """Close a region for a split or migration: stop serving it, wait
        out in-flight row work, then flush and roll the WAL so the durable
        store files are the COMPLETE region image.

        Idempotent: a region this server no longer hosts reports success —
        a previous close attempt (possibly by a runner that crashed before
        committing) already did the work, and the resumed runner must be
        able to proceed to the commit.

        The region stays hosted and readable while ``closing`` is set:
        only writes are rejected (stale-route retry).  Reads MUST keep
        serving — the drain inside :meth:`flush_region` needs the APS to
        plan base reads against this very region, and removing it outright
        would deadlock the close against its own drain."""
        self._check_alive()
        region = self.regions.get(region_name)
        if region is None or region.table.name != table:
            return
        region.closing = True
        try:
            while region.locks.held or region.flushing:
                yield Timeout(1.0)
            yield from self.flush_region(region)
        except BaseException:
            region.closing = False   # reopen rather than strand the range
            raise

    def region_for(self, table: str, row: bytes) -> Optional[Region]:
        for region in self.regions.values():
            if region.table.name == table and region.contains_row(row):
                return region
        return None

    def _require_region(self, table: str, row: bytes) -> Region:
        region = self.region_for(table, row)
        if region is None:
            raise NoSuchRegionError(
                f"{self.name} hosts no region of {table!r} for {row!r}")
        return region

    def _require_open_region(self, table: str, row: bytes) -> Region:
        """Like :meth:`_require_region` but for WRITE paths: a region that
        is closing for a split/migration rejects new writes so the close's
        lock-drain terminates; the caller retries after a layout refresh."""
        region = self._require_region(table, row)
        if region.closing:
            raise NoSuchRegionError(
                f"region {region.name} on {self.name} is closing "
                f"for a split/migration")
        return region

    def _check_alive(self) -> None:
        if not self.alive:
            raise ServerDownError(f"{self.name} is down")

    # -- timestamps ------------------------------------------------------------

    def assign_timestamp(self) -> int:
        # Per-server monotonic milliseconds, like currentTimeMillis() with
        # same-ms ties broken locally.  (A cluster-WIDE tie-break would be
        # wrong: above ~1000 puts/s it would outrun the wall clock and
        # distort every T2−T1 staleness measurement.)
        ts = max(int(self.sim.now()), self._last_ts + 1)
        self._last_ts = ts
        if ts > self.cluster.ts_floor:
            self.cluster.ts_floor = ts
        return ts

    def assign_repair_timestamp(self) -> int:
        """A timestamp strictly above every timestamp ever assigned in the
        cluster — used by repair inserts, which must out-rank a tombstone
        another server may have written at its own 'future' time."""
        ts = max(int(self.sim.now()), self._last_ts + 1,
                 self.cluster.ts_floor + 1)
        self._last_ts = ts
        self.cluster.ts_floor = ts
        return ts

    # -- cost charging -----------------------------------------------------------

    def charge_read(self, stats: ReadStats) -> Generator[Any, Any, None]:
        """Convert a read's ReadStats into simulated service time."""
        model = self.cluster.model
        if stats.blocks_from_disk:
            yield from use(self.disk,
                           stats.blocks_from_disk * model._v(model.disk_read_ms))
        cheap = model.read_cost(0, stats.blocks_from_cache, stats.bloom_probes,
                                stats.memtable_probes)
        if cheap > 0:
            yield Timeout(cheap)

    def local_read_row(self, region: Region, row: bytes,
                       columns: Optional[List[str]], max_ts: Optional[int],
                       background: bool,
                       ) -> Generator[Any, Any, Dict[str, Tuple[bytes, int]]]:
        region.note_read()
        stats = ReadStats()
        result = region.read_row(row, columns, max_ts=max_ts, stats=stats)
        yield from self.charge_read(stats)
        counters = self.cluster.counters
        counters.incr("async_base_read" if background else "base_read")
        return result

    # ======================================================================
    # RPC handlers (run inside a handler slot; invoked via Network.call)
    # ======================================================================

    def _with_handler(self, body, pool: Optional[Resource] = None,
                      ) -> Generator[Any, Any, Any]:
        self._check_alive()
        pool = pool or self.handlers
        yield pool.acquire()
        try:
            yield Timeout(self.cluster.model._v(self.cluster.model.rpc_cpu_ms))
            result = yield from body()
            return result
        finally:
            pool.release()

    # -- base-table writes -------------------------------------------------------

    @staticmethod
    def _observer_hook(hook, span, *args) -> Generator[Any, Any, None]:
        """Invoke a coprocessor hook, handing it the put/delete root span.

        Third-party observers written before the observability subsystem
        take no ``span`` parameter; a signature mismatch surfaces at
        generator *creation* (before any body code runs), so falling back
        on TypeError here cannot swallow an error from the hook itself.
        """
        try:
            gen = hook(*args, span=span)
        except TypeError:
            gen = hook(*args)
        yield from gen

    @staticmethod
    def _check_row_key(row: bytes) -> None:
        """Row keys must stay out of the reserved (leading-0x00) keyspace
        that hosts local-index entries, and must not be empty."""
        if not row:
            from repro.errors import ClusterError
            raise ClusterError("empty row key")
        if row.startswith(b"\x00"):
            from repro.errors import ClusterError
            raise ClusterError(
                f"row keys must not start with 0x00 (reserved): {row!r}")

    def _gate_entry(self, table: str) -> Generator[Any, Any, bool]:
        """Wait out a pre-flush drain BEFORE taking a handler slot (waiting
        inside the slot would let gated puts starve the APS deliveries the
        drain itself is waiting for).  Returns True when the caller was
        admitted and must decrement ``put_inflight`` when done."""
        if not self.cluster.descriptor(table).has_indexes:
            return False
        if not self.auq_gate.is_open:
            wait_start = self.sim.now()
            yield self.auq_gate.wait_open()
            waited = self.sim.now() - wait_start
            self.flush_gate_wait_ms += waited
            self.obs_flush_gate_wait.observe(waited)
        self.put_inflight.increment()
        return True

    def handle_put(self, table: str, row: bytes, values: Dict[str, bytes],
                   return_old: bool = False,
                   ) -> Generator[Any, Any, Tuple[int, Optional[Dict]]]:
        """The write path: WAL → memtable → coprocessors → ack (§2.2, Alg. 1/3).

        Returns ``(ts, old_values)``; ``old_values`` is only read (and only
        for the indexed columns) when ``return_old`` — the extra base read
        session consistency pays for (§5.2).
        """
        self._check_row_key(row)
        gated = yield from self._gate_entry(table)
        try:
            return (yield from self._with_handler(
                lambda: self._put_body(table, row, values, return_old)))
        finally:
            if gated:
                self.put_inflight.decrement()

    def _put_body(self, table: str, row: bytes, values: Dict[str, bytes],
                  return_old: bool,
                  ) -> Generator[Any, Any, Tuple[int, Optional[Dict]]]:
        region = self._require_open_region(table, row)
        region.note_write()
        descriptor = region.table
        model = self.cluster.model
        yield region.locks.acquire(row)
        span = self.tracer.start("put", server=self.name, table=table)
        try:
            ts = self.assign_timestamp()

            old_values: Optional[Dict[str, Tuple[bytes, int]]] = None
            if return_old:
                columns = descriptor.indexed_columns()
                if columns:
                    old_values = yield from self.local_read_row(
                        region, row, columns, max_ts=ts - 1, background=False)

            cells = tuple(Cell(compose_cell_key(row, col), ts, value)
                          for col, value in sorted(values.items()))
            local_indexes = [ix for ix in descriptor.indexes.values()
                             if ix.is_local]
            if local_indexes:
                # Local-index cells ride in the SAME WAL record as the base
                # put: the index is crash-atomic with its row (§3.1 —
                # co-location pays off here).
                extra = yield from plan_local_index_cells(
                    self, region, row, values, ts, local_indexes)
                cells = cells + tuple(extra)
            record = self.wal.append(region.name, table, cells,
                                     indexed=descriptor.has_indexes)
            wal_span = self.tracer.start("wal_append", parent=span,
                                         server=self.name)
            # ``use(self.log_device, ...)`` inlined: the put path is hot
            # enough that the extra generator frame per write shows up.
            log_device = self.log_device
            wal_cost = model.wal_append()
            yield log_device.acquire()
            try:
                if wal_cost > 0:
                    yield Timeout(wal_cost)
            finally:
                log_device.release()
            wal_span.end()
            region.tree.add_many(cells, seqno=record.seqno)
            yield Timeout(model.memtable_op() * len(cells))
            self.cluster.counters.incr("base_put")

            for observer in self.cluster.observers_for(table):
                yield from self._observer_hook(
                    observer.post_put, span,
                    self, descriptor, row, values, ts)
            return ts, old_values
        finally:
            span.end()
            region.locks.release(row)

    def handle_delete(self, table: str, row: bytes, columns: List[str],
                      return_old: bool = False,
                      ) -> Generator[Any, Any, Tuple[int, Optional[Dict]]]:
        """Row delete: a tombstone per column plus index maintenance —
        "deletion is handled similarly as put in LSM" (§4.3)."""
        self._check_row_key(row)
        gated = yield from self._gate_entry(table)
        try:
            return (yield from self._with_handler(
                lambda: self._delete_body(table, row, columns, return_old)))
        finally:
            if gated:
                self.put_inflight.decrement()

    def _delete_body(self, table: str, row: bytes, columns: List[str],
                     return_old: bool,
                     ) -> Generator[Any, Any, Tuple[int, Optional[Dict]]]:
        region = self._require_open_region(table, row)
        region.note_write()
        descriptor = region.table
        model = self.cluster.model
        yield region.locks.acquire(row)
        span = self.tracer.start("delete", server=self.name, table=table)
        try:
            ts = self.assign_timestamp()
            old_values: Optional[Dict[str, Tuple[bytes, int]]] = None
            if return_old:
                indexed = descriptor.indexed_columns()
                if indexed:
                    old_values = yield from self.local_read_row(
                        region, row, indexed, max_ts=ts - 1, background=False)
            cells = tuple(Cell(compose_cell_key(row, col), ts, None)
                          for col in sorted(columns))
            local_indexes = [ix for ix in descriptor.indexes.values()
                             if ix.is_local]
            if local_indexes:
                extra = yield from plan_local_index_cells(
                    self, region, row, None, ts, local_indexes)
                cells = cells + tuple(extra)
            record = self.wal.append(region.name, table, cells,
                                     indexed=descriptor.has_indexes)
            wal_span = self.tracer.start("wal_append", parent=span,
                                         server=self.name)
            # ``use(self.log_device, ...)`` inlined: the put path is hot
            # enough that the extra generator frame per write shows up.
            log_device = self.log_device
            wal_cost = model.wal_append()
            yield log_device.acquire()
            try:
                if wal_cost > 0:
                    yield Timeout(wal_cost)
            finally:
                log_device.release()
            wal_span.end()
            region.tree.add_many(cells, seqno=record.seqno)
            yield Timeout(model.memtable_op() * len(cells))
            self.cluster.counters.incr("base_put")

            for observer in self.cluster.observers_for(table):
                yield from self._observer_hook(
                    observer.post_delete, span, self, descriptor, row, ts)
            return ts, old_values
        finally:
            span.end()
            region.locks.release(row)

    # -- batched base-table writes ---------------------------------------------

    def handle_multi_put(self, table: str,
                         mutations: List[Tuple[str, bytes, Any]],
                         ) -> Generator[Any, Any, List[Tuple[str, Any]]]:
        """Batched write path: apply several row mutations under ONE
        handler slot and ONE group-committed WAL write (§8.2's batching,
        foregrounded).

        ``mutations`` is a list of ``("put", row, values_dict)`` or
        ``("del", row, columns_list)``.  Returns a result per mutation, in
        input order: ``("ok", ts)`` for applied rows, ``("retry", reason)``
        for rows this server cannot serve (region moved, or closing for a
        split) — a partial batch never fails the whole RPC, the client
        re-routes just the rejected rows.

        Lock-ordering rule: row locks are taken in sorted key order (each
        row from its own region's lock table) and released in reverse, so
        two concurrent batches with overlapping row sets cannot deadlock.
        """
        for mutation in mutations:
            self._check_row_key(mutation[1])
        gated = yield from self._gate_entry(table)
        try:
            return (yield from self._with_handler(
                lambda: self._multi_put_body(table, mutations)))
        finally:
            if gated:
                self.put_inflight.decrement()

    def _multi_put_body(self, table: str,
                        mutations: List[Tuple[str, bytes, Any]],
                        ) -> Generator[Any, Any, List[Tuple[str, Any]]]:
        model = self.cluster.model
        descriptor = self.cluster.descriptor(table)
        results: List[Optional[Tuple[str, Any]]] = [None] * len(mutations)

        # Admission: route every row to a hosted OPEN region; rejected
        # rows answer ("retry", ...) individually instead of poisoning
        # their batch-mates.
        admitted: List[Tuple[int, str, bytes, Any, Region]] = []
        for i, (kind, row, payload) in enumerate(mutations):
            try:
                region = self._require_open_region(table, row)
            except NoSuchRegionError as exc:
                results[i] = ("retry", str(exc))
                continue
            admitted.append((i, kind, row, payload, region))
        if not admitted:
            return results

        local_indexes = [ix for ix in descriptor.indexes.values()
                         if ix.is_local]
        # Wave split: local-index planning reads the old row at ts−δ, so
        # a duplicate row inside one batch must see its earlier mutation
        # already in the memtable — each wave holds distinct rows and gets
        # its own group commit.  Without local indexes no such read
        # happens and the whole batch is one wave.
        waves: List[List[Tuple[int, str, bytes, Any, Region]]]
        if local_indexes:
            waves = []
            current: List[Tuple[int, str, bytes, Any, Region]] = []
            seen: set = set()
            for item in admitted:
                if item[2] in seen:
                    waves.append(current)
                    current, seen = [], set()
                current.append(item)
                seen.add(item[2])
            if current:
                waves.append(current)
        else:
            waves = [admitted]

        # Row locks: sorted unique key order, duplicates share one
        # acquisition, reverse-order release (see handle_multi_put).
        row_region: Dict[bytes, Region] = {}
        for item in admitted:
            row_region.setdefault(item[2], item[4])
        locked: List[bytes] = []
        span = self.tracer.start("multi_put", server=self.name, table=table,
                                 rows=len(mutations))
        try:
            for row in sorted(row_region):
                yield row_region[row].locks.acquire(row)
                locked.append(row)

            # (kind, row, values-or-None, ts) for the observer batch hook.
            batch_rows: List[Tuple[str, bytes, Optional[Dict[str, bytes]],
                                   int]] = []
            for wave in waves:
                planned = []     # (region, cells) aligned with the wave
                wal_batch = []   # append_batch input
                total_cells = 0
                for i, kind, row, payload, region in wave:
                    region.note_write()
                    ts = self.assign_timestamp()
                    if kind == "put":
                        cells = tuple(
                            Cell(compose_cell_key(row, col), ts, value)
                            for col, value in sorted(payload.items()))
                        new_values: Optional[Dict[str, bytes]] = payload
                    else:
                        cells = tuple(
                            Cell(compose_cell_key(row, col), ts, None)
                            for col in sorted(payload))
                        new_values = None
                    if local_indexes:
                        # Same-record local index cells: crash-atomic with
                        # the base row, exactly as the single-put path.
                        extra = yield from plan_local_index_cells(
                            self, region, row, new_values, ts, local_indexes)
                        cells = cells + tuple(extra)
                    planned.append((region, cells))
                    wal_batch.append((region.name, table, cells,
                                      descriptor.has_indexes))
                    total_cells += len(cells)
                    batch_rows.append((kind, row, new_values, ts))
                    results[i] = ("ok", ts)

                # Group commit: every mutation keeps its own WAL record
                # and seqno; the log device is charged ONCE per wave.
                records = self.wal.append_batch(wal_batch)
                wal_span = self.tracer.start("wal_group_append", parent=span,
                                             server=self.name,
                                             records=len(records))
                yield from use(self.log_device,
                               model.wal_group_append(len(records)))
                wal_span.end()
                self.obs_wal_group.observe(len(records))
                for (region, cells), record in zip(planned, records):
                    region.tree.add_many(cells, seqno=record.seqno)
                yield Timeout(model.memtable_op() * total_cells)
            self.cluster.counters.incr("base_put", len(admitted))

            # Index maintenance over the WHOLE batch (all waves): the
            # coalesced hooks plan ops per row timestamp, so wave
            # boundaries do not matter here.
            for observer in self.cluster.observers_for(table):
                yield from self._observer_batch(observer, span,
                                                descriptor, batch_rows)
            return results
        finally:
            span.end()
            for row in reversed(locked):
                row_region[row].locks.release(row)

    def _observer_batch(self, observer, span, descriptor,
                        batch_rows) -> Generator[Any, Any, None]:
        """Dispatch one batch of mutations to a coprocessor: the batch
        hook when the observer has one, else the per-row hooks — so
        third-party observers written against the single-put interface
        keep working under multi_put."""
        hook = getattr(observer, "post_batch", None)
        if hook is not None:
            yield from self._observer_hook(hook, span,
                                           self, descriptor, batch_rows)
            return
        for kind, row, values, ts in batch_rows:
            if kind == "put":
                yield from self._observer_hook(
                    observer.post_put, span, self, descriptor, row, values, ts)
            else:
                yield from self._observer_hook(
                    observer.post_delete, span, self, descriptor, row, ts)

    # -- base-table reads -----------------------------------------------------

    def handle_get(self, table: str, row: bytes,
                   columns: Optional[List[str]] = None,
                   max_ts: Optional[int] = None, background: bool = False,
                   ) -> Generator[Any, Any, Dict[str, Tuple[bytes, int]]]:
        return (yield from self._with_handler(
            lambda: self._get_body(table, row, columns, max_ts, background)))

    def _get_body(self, table, row, columns, max_ts, background):
        region = self._require_region(table, row)
        result = yield from self.local_read_row(region, row, columns, max_ts,
                                                background=background)
        return result

    def handle_multi_get(self, table: str, rows: List[bytes],
                         columns: Optional[List[str]] = None,
                         max_ts: Optional[int] = None,
                         background: bool = False,
                         ) -> Generator[Any, Any, Dict[bytes, Dict]]:
        """Multiget: read several rows under ONE handler slot / round trip
        — the HBase ``multi`` RPC the parallel double-check scatters per
        server.  Each listed row is charged and counted as one base read
        (duplicates included), so Table 2 op counts match the equivalent
        sequence of single gets exactly."""
        return (yield from self._with_handler(
            lambda: self._multi_get_body(table, rows, columns, max_ts,
                                         background)))

    def _multi_get_body(self, table, rows, columns, max_ts, background):
        out: Dict[bytes, Dict[str, Tuple[bytes, int]]] = {}
        for row in rows:
            region = self._require_region(table, row)
            out[row] = yield from self.local_read_row(
                region, row, columns, max_ts, background=background)
        return out

    def handle_scan(self, table: str, key_range: KeyRange,
                    limit: Optional[int] = None,
                    max_ts: Optional[int] = None,
                    ) -> Generator[Any, Any, List[Cell]]:
        """Range scan over one region's slice of ``key_range``.

        ``max_ts`` bounds visibility to cells at or below that timestamp —
        the snapshot scan the online backfill uses so rows written after
        the DDL snapshot (already dual-written) are not double-handled."""
        return (yield from self._with_handler(
            lambda: self._scan_body(table, key_range, limit, max_ts)))

    def _scan_body(self, table, key_range, limit, max_ts=None):
        regions = [r for r in self.regions.values()
                   if r.table.name == table
                   and r.key_range.overlaps(key_range)]
        if not regions:
            raise NoSuchRegionError(
                f"{self.name} hosts no region of {table!r} in {key_range!r}")
        regions.sort(key=lambda r: r.key_range.start)
        self._check_scan_coverage(table, regions, key_range)
        out: List[Cell] = []
        for region in regions:
            region.note_read()
            stats = ReadStats()
            cells = region.scan_rows(key_range, limit=limit, max_ts=max_ts,
                                     stats=stats)
            yield Timeout(self.cluster.model._v(
                self.cluster.model.scan_open_ms))
            yield from self.charge_read(stats)
            out.extend(cells)
            if limit is not None and len(out) >= limit:
                out = out[:limit]
                break
        if not self.cluster.descriptor(table).is_index:
            self.cluster.counters.incr("base_read")
        return out

    def _check_scan_coverage(self, table: str, regions: List[Region],
                             key_range: KeyRange) -> None:
        """The hosted regions (sorted by start) must cover the WHOLE scan
        range: after a split or migration a slice may have moved to another
        server, and a silently partial result would corrupt the caller's
        merge.  Raising NoSuchRegionError instead routes the caller into
        its refresh-and-retry path."""
        cursor = key_range.start
        for region in regions:
            if region.key_range.start > cursor:
                break
            if region.key_range.end is None:
                return
            cursor = max(cursor, region.key_range.end)
            if key_range.end is not None and cursor >= key_range.end:
                return
        raise NoSuchRegionError(
            f"{self.name} no longer hosts all of {table!r} {key_range!r} "
            f"(covered up to {cursor!r})")

    # -- index-table operations ---------------------------------------------------

    def handle_index_put(self, table: str, index_key: bytes, ts: int,
                         background: bool = False,
                         ) -> Generator[Any, Any, None]:
        yield from self._with_handler(
            lambda: self._index_put_body(table, index_key, ts, background),
            pool=self.index_handlers)

    def _index_put_body(self, table, index_key, ts, background):
        region = self._require_open_region(table, index_key)
        region.note_write()
        model = self.cluster.model
        record = self.wal.append(region.name, table,
                                 (Cell(index_key, ts, b""),))
        yield from use(self.log_device, model.wal_append())
        region.tree.add(Cell(index_key, ts, b""), seqno=record.seqno)
        yield Timeout(model.memtable_op())
        self.cluster.counters.incr(
            "async_index_put" if background else "index_put")

    def handle_index_delete(self, table: str, index_key: bytes, ts: int,
                            background: bool = False,
                            ) -> Generator[Any, Any, None]:
        yield from self._with_handler(
            lambda: self._index_delete_body(table, index_key, ts, background),
            pool=self.index_handlers)

    def _index_delete_body(self, table, index_key, ts, background):
        region = self._require_open_region(table, index_key)
        region.note_write()
        model = self.cluster.model
        record = self.wal.append(region.name, table,
                                 (Cell(index_key, ts, None),))
        yield from use(self.log_device, model.wal_append())
        region.tree.add(Cell(index_key, ts, None), seqno=record.seqno)
        yield Timeout(model.memtable_op())
        self.cluster.counters.incr(
            "async_index_delete" if background else "index_delete")

    def handle_index_ops(self, ops: List[Tuple[str, str, bytes, int]],
                         background: bool = True,
                         ) -> Generator[Any, Any, None]:
        """Apply a batch of index puts/deletes under one handler slot and
        one group-committed WAL write (APS batching, and the coalesced
        index maintenance of the batched foreground path)."""
        # Pool selection mirrors the single-op handlers: background
        # (APS) deliveries compete for the REGULAR handler pool — the
        # "background AUQ competes for system resource" effect of §8.2 —
        # which is deadlock-safe because the APS holds no handler while
        # calling out.  Foreground (sync-scheme) deliveries come from a
        # put/multi_put handler that DOES hold its own slot, so they land
        # on the target's dedicated index pool, exactly like
        # handle_index_put/delete.
        pool = self.handlers if background else self.index_handlers
        yield from self._with_handler(
            lambda: self._index_ops_body(ops, background), pool=pool)

    def _index_ops_body(self, ops, background):
        model = self.cluster.model
        counters = self.cluster.counters
        # Plan the whole batch FIRST, then append it as one group commit:
        # a mid-batch routing error (region split/moved under us) leaves
        # nothing applied, so the caller's whole-delivery retry cannot
        # double-count — and the counters below only ever see ops that
        # actually landed.
        planned: List[Tuple[Region, str, Cell]] = []
        puts = dels = 0
        for op in ops:
            kind, table, key, ts = op[0], op[1], op[2], op[3]
            if len(op) > 4:
                # Epoch-tagged op (APS / DDL backfill): drop it if the
                # target index was dropped — or dropped and recreated —
                # since the op was planned.  Applying it anyway would
                # resurrect a pre-drop image in the new index.
                live = self.cluster.index_by_table.get(table)
                if live is None or live.created_epoch != op[4]:
                    continue
            region = self._require_open_region(table, key)
            value = b"" if kind == "put" else None
            planned.append((region, table, Cell(key, ts, value)))
            if kind == "put":
                puts += 1
            else:
                dels += 1
        if not planned:
            return
        # Group commit: one sequential write covers the whole batch; the
        # per-record cost beyond the first is the marginal buffer copy.
        records = self.wal.append_batch(
            [(region.name, table, (cell,), False)
             for region, table, cell in planned])
        for (region, _table, cell), record in zip(planned, records):
            region.note_write()
            region.tree.add(cell, seqno=record.seqno)
        applied = len(planned)
        yield from use(self.log_device, model.wal_group_append(applied))
        self.obs_wal_group.observe(applied)
        yield Timeout(model.memtable_op() * applied)
        if puts:
            counters.incr("async_index_put" if background else "index_put",
                          puts)
        if dels:
            counters.incr("async_index_delete" if background
                          else "index_delete", dels)

    def handle_index_scan(self, table: str, key_range: KeyRange,
                          limit: Optional[int] = None,
                          max_ts: Optional[int] = None,
                          ) -> Generator[Any, Any, List[Cell]]:
        """RI: read matching index entries (key-only cells with base ts)."""
        return (yield from self._with_handler(
            lambda: self._index_scan_body(table, key_range, limit, max_ts)))

    def _index_scan_body(self, table, key_range, limit, max_ts=None):
        result = yield from self._scan_body(table, key_range, limit, max_ts)
        self.cluster.counters.incr("index_read")
        return result

    def handle_local_index_scan(self, table: str, index_name: str,
                                inner_range: KeyRange,
                                limit: Optional[int] = None,
                                ) -> Generator[Any, Any, List[Cell]]:
        """Scan one server's slice of a LOCAL index: every hosted region
        of the base table contributes its reserved-keyspace entries.
        The broadcast nature of local-index reads (§3.1) comes from the
        client having to call this on EVERY region."""
        return (yield from self._with_handler(
            lambda: self._local_index_scan_body(table, index_name,
                                                inner_range, limit),
            pool=self.index_handlers))

    def _local_index_scan_body(self, table, index_name, inner_range, limit):
        reserved = local_scan_range(index_name, inner_range)
        out: List[Cell] = []
        regions = [r for r in self.regions.values()
                   if r.table.name == table]
        if not regions:
            raise NoSuchRegionError(
                f"{self.name} hosts no region of {table!r}")
        for region in sorted(regions, key=lambda r: r.key_range.start):
            region.note_read()
            stats = ReadStats()
            cells = region.tree.scan(reserved, limit=limit, stats=stats)
            yield Timeout(self.cluster.model._v(
                self.cluster.model.scan_open_ms))
            yield from self.charge_read(stats)
            out.extend(cells)
        self.cluster.counters.incr("index_read")
        if limit is not None:
            out = out[:limit]
        return out

    # -- replication (follower-side) ----------------------------------------------

    def _require_follower(self, table: str, region_name: str,
                          ) -> FollowerReplica:
        replica = self.follower_regions.get(region_name)
        if replica is None or replica.region.table.name != table:
            raise NoSuchRegionError(
                f"{self.name} hosts no follower of {table!r}/{region_name!r}")
        return replica

    def handle_replica_append(self, table: str, region_name: str,
                              records: Tuple, leader_time: Optional[float],
                              flush_point: Optional[Tuple[int, float]],
                              ) -> Generator[Any, Any, int]:
        """Apply one shipped WAL batch (possibly empty: a heartbeat).

        ``flush_point`` relinks the replica onto the leader's flushed
        store files first, so a batch can never reference rolled-away
        records the replica missed; ``leader_time`` (None for truncated
        batches) advances the coverage watermark.  Returns the replica's
        applied seqno — the replication high-watermark."""
        return (yield from self._with_handler(
            lambda: self._replica_append_body(table, region_name, records,
                                              leader_time, flush_point)))

    def _replica_append_body(self, table, region_name, records, leader_time,
                             flush_point):
        replica = self._require_follower(table, region_name)
        model = self.cluster.model
        if flush_point is not None and flush_point[0] > replica.relinked_seqno:
            replica.relink(
                self.cluster.hdfs.store_files(table, region_name),
                flush_point[0], flush_point[1])
        applied_cells = 0
        for record in records:
            if replica.apply(record):
                applied_cells += len(record.cells)
        if applied_cells:
            # Group framing: the batch arrived as one shipment and is
            # charged as one memtable pass — no WAL write on the
            # follower (durability is the leader WAL's job; promotion
            # re-logs from it).
            yield Timeout(model.memtable_op() * applied_cells)
        if leader_time is not None and leader_time > replica.caught_up_through:
            replica.caught_up_through = leader_time
        self.cluster.metrics.histogram(
            "replication_lag_ms", region=region_name).observe(
            replica.staleness_at(self.sim.now()))
        return replica.applied_seqno

    def handle_replica_get(self, table: str, region_name: str, row: bytes,
                           columns: Optional[List[str]] = None,
                           max_ts: Optional[int] = None,
                           ) -> Generator[Any, Any, Tuple[Dict, float]]:
        """Bounded-staleness read from a follower replica: returns
        ``(row_data, staleness_ms)`` where the advertised staleness is
        the replica's measured lag — every write acknowledged at least
        that long ago is guaranteed visible in the result."""
        return (yield from self._with_handler(
            lambda: self._replica_get_body(table, region_name, row,
                                           columns, max_ts)))

    def _replica_get_body(self, table, region_name, row, columns, max_ts):
        replica = self._require_follower(table, region_name)
        region = replica.region
        if not region.contains_row(row):
            raise NoSuchRegionError(
                f"follower {region_name} on {self.name} does not cover "
                f"{row!r}")
        region.note_read()
        stats = ReadStats()
        result = region.read_row(row, columns, max_ts=max_ts, stats=stats)
        yield from self.charge_read(stats)
        self.obs_follower_reads.inc()
        self.cluster.counters.incr("base_read")
        staleness = replica.staleness_at(self.sim.now())
        self.cluster.metrics.histogram(
            "follower_read_staleness_ms", server=self.name).observe(staleness)
        return result, staleness

    def handle_replica_repair(self, table: str, region_name: str,
                              cells: Tuple[Cell, ...],
                              ) -> Generator[Any, Any, int]:
        """Quorum read-repair: install leader-authoritative cells into a
        lagging follower's memtable.  Repairs are point fixes — they do
        not advance either watermark (the data was already durable on
        the leader, and a repair proves nothing about coverage)."""
        return (yield from self._with_handler(
            lambda: self._replica_repair_body(table, region_name, cells)))

    def _replica_repair_body(self, table, region_name, cells):
        replica = self._require_follower(table, region_name)
        for cell in cells:
            replica.region.tree.add(cell)
        if cells:
            yield Timeout(self.cluster.model.memtable_op() * len(cells))
        self.obs_quorum_repairs.inc(len(cells))
        return len(cells)

    # -- AUQ ----------------------------------------------------------------------

    def enqueue_index_task(self, task: IndexTask) -> Generator[Any, Any, None]:
        """AU1 second half: queue the index work.

        The intake gate is checked once, at put entry — a put that passed
        it must NOT wait here again (the drain barrier is already waiting
        for this very put via ``put_inflight``, so a second wait would
        deadlock the flush).  The barrier ordering stays sound: the drain
        waits for in-flight puts *before* checking queue emptiness, so an
        entry enqueued by an admitted put is always seen."""
        watermark = self.config.auq_high_watermark
        if watermark is not None and len(self.auq) >= watermark:
            yield from self._apply_degraded_sync(task)
            return
        yield Timeout(self.cluster.model._v(self.cluster.model.auq_enqueue_ms))
        self.auq.put(task)
        self.obs_auq_depth.set(len(self.auq))

    def enqueue_index_tasks(self, tasks: List[IndexTask],
                            ) -> Generator[Any, Any, None]:
        """Batched AU1: queue one batch's index tasks under ONE enqueue
        charge and ONE watermark check (the lock-hold coalescing of the
        batched write path).  Same gate semantics as the single-task
        form: the intake gate was already checked at multi_put entry."""
        if not tasks:
            return
        watermark = self.config.auq_high_watermark
        if watermark is not None and len(self.auq) >= watermark:
            for task in tasks:
                yield from self._apply_degraded_sync(task)
            return
        yield Timeout(self.cluster.model._v(self.cluster.model.auq_enqueue_ms))
        for task in tasks:
            self.auq.put(task)
        self.obs_auq_depth.set(len(self.auq))

    def _apply_degraded_sync(self, task: IndexTask) -> Generator[Any, Any, None]:
        """AUQ overflow fallback: at the high watermark the enqueue runs
        the maintenance synchronously (Algorithm 4 order, §4's bounded-queue
        degradation) instead of deepening the backlog.  Deadlock-safe for
        the same reason the sync-full path is: remote index ops land on the
        target's dedicated index-handler pool.  On RPC failure the task
        falls back into the queue — correctness over backpressure."""
        self.obs_auq_degraded.inc()
        try:
            yield from maintain_indexes(self.op_context, task,
                                        background=True, insert_first=False)
        except (NoSuchRegionError, RpcError):
            # NoSuchRegionError: the target index region moved (split or
            # migration) between locate and delivery — same retry story as
            # a lost RPC.
            self.auq.put(task)
            self.obs_auq_depth.set(len(self.auq))
            return
        self.staleness.record(task.visible_at, self.sim.now())

    def degrade_to_auq(self, task: IndexTask) -> None:
        """§6.2: a failed synchronous index op is queued for retry; causal
        consistency degrades to eventual for this entry.  Bypasses the
        intake gate — blocking here would deadlock the very drain that
        closed the gate (the failed op may come from an APS worker's peer)."""
        self.cluster.counters_degraded += 1
        self.obs_degraded.inc()
        self.auq.put(task)
        self.obs_auq_depth.set(len(self.auq))

    def drain_auq(self) -> Generator[Any, Any, None]:
        """Figure 5 step 1: pause intake and wait until the AUQ is empty
        and no task is mid-flight."""
        self.auq_gate.close()
        yield self.put_inflight.wait_zero()
        yield self.auq.wait_empty()
        yield self.auq_inflight.wait_zero()

    # -- background maintenance -----------------------------------------------------

    def _maintenance_loop(self) -> Generator[Any, Any, None]:
        while self.alive:
            yield Timeout(self.config.maintenance_interval_ms)
            if not self.alive:
                return
            placement = getattr(self.cluster, "placement", None)
            for region in list(self.regions.values()):
                if not self.alive:
                    return
                if region.tree.needs_flush and not region.flushing:
                    yield from self.flush_region(region)
                if region.tree.needs_compaction:
                    yield from self.compact_region(region)
                if placement is not None and region.name in self.regions:
                    # Split-policy check (synchronous: submits a master-
                    # side job at most; the close comes back as an RPC).
                    placement.consider_split(self, region)
            # Derived gauge refreshes once a tick; the raw hit/miss
            # counters under it tick inline with every cache access.
            self.obs_cache_hit_rate.set(self.cache.hit_rate())

    def flush_region(self, region: Region) -> Generator[Any, Any, None]:
        """The §5.3 flush protocol: 1. pause & drain, 2. flush, 3. roll WAL."""
        if region.flushing or not self.alive:
            return
        region.flushing = True
        model = self.cluster.model
        try:
            # The preFlush coprocessor hook (Figure 5): registered
            # observers may run arbitrary pre-flush work here.
            for observer in self.cluster.observers_for(region.table.name):
                yield from observer.pre_flush(self, region.name)
            drained = False
            # Only a base table with indexes can have pending AUQ work whose
            # WAL records this flush would roll away; index-table flushes
            # need no drain.
            if self.config.drain_auq_before_flush and region.table.has_indexes:
                yield from self.drain_auq()
                drained = True
            # Same synchronous step as prepare_flush: every write acked
            # by prepare_time has seqno <= handle.wal_seqno, which is
            # what makes the flush point below a valid coverage claim.
            prepare_time = self.sim.now()
            handle = region.tree.prepare_flush()
            if drained and not self.config.strict_flush_gate:
                # Safe early reopen: puts from here on hit the new memtable
                # and their WAL records outlive the roll-forward below.
                self.auq_gate.open()
                drained = False
            if handle is not None:
                yield from use(self.disk,
                               model.flush_cost(len(handle.memtable)))
                region.tree.complete_flush(handle)
                self.cluster.hdfs.set_store_files(
                    region.table.name, region.name, region.tree._sstables)
                self.wal.roll_forward(region.name, handle.wal_seqno)
                if self.cluster.replication.enabled:
                    # Recorded synchronously with the roll-forward (no
                    # yield between): ship batches carry this point, so
                    # a follower can never observe rolled records as
                    # neither-in-WAL-nor-in-store-files.
                    self.flush_points[region.name] = (handle.wal_seqno,
                                                      prepare_time)
                self.flushes_completed += 1
            if drained:
                self.auq_gate.open()
        finally:
            if not self.auq_gate.is_open:
                self.auq_gate.open()
            region.flushing = False

    def _dead_entry_filter(self, region: Region):
        """Predicate for the compaction-time index GC (DESIGN.md §14), or
        None when this region is not an index table under a lazy scheme.

        An entry is dead when it is *settled* (older than now − δ, so no
        in-flight blind ship or AUQ delivery for its own base put can
        still be racing) and the base row's current indexed values no
        longer match it.  The ts−δ discipline makes this final: a base
        row updated back to an old value re-inserts a NEW entry version,
        it never revives a purged one.  The base probe is the cost-free
        oracle read (``Region.read_row`` with no stats) — the simulated
        I/O charge stays the compaction's own ``compact_cost``.
        """
        index = self.cluster.index_by_table.get(region.table.name)
        if (index is None or not index.scheme.is_lazy
                or index.state is not IndexState.ACTIVE):
            return None
        cluster = self.cluster
        settled_before = self.sim.now() - DELTA_MS
        num_columns = len(index.columns)
        columns = list(index.columns)

        def dead(cell: Cell) -> bool:
            if cell.ts > settled_before:
                return False     # too fresh: its own delivery may be racing
            try:
                values, rowkey = decode_index_key(cell.key, num_columns)
            except EncodingError:
                return False
            try:
                server, region_name = cluster.locate(index.base_table, rowkey)
                base_region = server.regions[region_name]
            except Exception:
                return False     # recovery/move window: keep, retry later
            row_data = base_region.read_row(rowkey, columns=columns)
            current = {col: value for col, (value, _ts) in row_data.items()}
            if extract_index_values(index, current) == tuple(values):
                return False
            newest_base_ts = max(
                (ts for _col, (_value, ts) in row_data.items()), default=None)
            if newest_base_ts is not None and cell.ts > newest_base_ts:
                return False     # entry outruns the visible base row: keep
            return True

        return dead

    def compact_region(self, region: Region) -> Generator[Any, Any, None]:
        result = region.tree.compact(
            dead_entry_filter=self._dead_entry_filter(region))
        if result is None:
            return
        yield from use(self.disk,
                       self.cluster.model.compact_cost(result.cells_read))
        self.cluster.hdfs.set_store_files(
            region.table.name, region.name, region.tree._sstables)
        self.compactions_completed += 1
        if result.dropped_dead_entries:
            self.obs_dead_purged.inc(result.dropped_dead_entries)
            self.cluster.staleness.settle_debt(result.dropped_dead_entries)

    def _heartbeat_loop(self) -> Generator[Any, Any, None]:
        while self.alive:
            self.last_heartbeat = self.sim.now()
            yield Timeout(self.config.heartbeat_interval_ms)
