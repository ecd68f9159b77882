"""MiniCluster: the whole distributed store in one object.

Owns the simulator, the durable FS, the network, the master, the
coordinator and N region servers — the moral equivalent of the paper's
experimental clusters (8 region servers in-house, 40 in RC2), with
knobs for every experiment: latency model, fault injection, staleness
sampling, flush-protocol ablations.
"""

from __future__ import annotations

import dataclasses
from typing import (Any, Dict, Generator, List, Optional, Tuple,
                    TYPE_CHECKING)

from repro.errors import NoSuchIndexError, SimulationError
from repro.core.index import IndexDescriptor, IndexState, row_index_entry
from repro.core.observers import build_observers
from repro.core.staleness import StalenessTracker
from repro.lsm.compaction import CompactionPolicy
from repro.lsm.tree import LSMConfig
from repro.lsm.types import Cell
from repro.cluster.client import Client
from repro.cluster.coordinator import Coordinator
from repro.cluster.counters import OpCounters
from repro.cluster.hdfs import SimHDFS
from repro.cluster.master import Master
from repro.cluster.network import FaultPlan, Network
from repro.cluster.server import RegionServer, ServerConfig
from repro.cluster.table import TableDescriptor, TableKind
from repro.obs import MetricsRegistry, Tracer
from repro.replication.config import ReplicationConfig
from repro.sim.kernel import Process, Simulator
from repro.sim.latency import LatencyModel
from repro.sim.random import SeedFactory

if TYPE_CHECKING:  # pragma: no cover
    from repro.placement.manager import PlacementConfig

__all__ = ["MiniCluster"]


class MiniCluster:
    """The whole simulated store: simulator, SimHDFS, network, master,
    coordinator, placement manager, DDL manager and N region servers,
    plus the operator facade (``create_table`` / ``create_index`` /
    ``kill_server`` / ``quiesce`` / ``advance``) that tests and
    benchmarks drive."""

    def __init__(self, num_servers: int = 4,
                 model: Optional[LatencyModel] = None,
                 server_config: Optional[ServerConfig] = None,
                 seed: int = 42,
                 staleness_sample_rate: float = 1.0,
                 fault_plan: Optional[FaultPlan] = None,
                 heartbeat_timeout_ms: float = 2000.0,
                 placement: Optional["PlacementConfig"] = None,
                 replication: Optional[ReplicationConfig] = None,
                 storage: Optional[LSMConfig] = None):
        # Storage-engine settings of every table this cluster creates;
        # create_table overrides the per-table ones.
        self.storage = storage or LSMConfig()
        self.sim = Simulator()
        self.replication = replication or ReplicationConfig()
        self.model = model or LatencyModel()
        self.seeds = SeedFactory(seed)
        self.hdfs = SimHDFS()
        # Observability substrate: one registry + tracer per cluster; every
        # probe (Table 2 counters, AUQ gauges, RPC histograms, spans) feeds
        # these, and the bench report snapshots them.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=self.sim.now, registry=self.metrics)
        self.network = Network(self.sim, self.model,
                               rng=self.seeds.stream("network"),
                               faults=fault_plan, metrics=self.metrics)
        self.counters = OpCounters(registry=self.metrics)
        self.counters_degraded = 0
        # Highest timestamp any server has handed out (see
        # RegionServer.assign_timestamp).
        self.ts_floor = 0
        self.staleness = StalenessTracker(
            sample_rate=staleness_sample_rate,
            seed=self.seeds.seed_for("staleness") % (2 ** 31))
        # Deferred GC for the validation scheme: reads hand discovered
        # dead entries here; the worker (spawned in start()) deletes
        # them in the background (DESIGN.md §14).
        from repro.validation import ValidationCleaner  # deferred: cycle
        self.validation_cleaner = ValidationCleaner(self)

        self.server_config = server_config or ServerConfig()
        self.servers: Dict[str, RegionServer] = {}
        for i in range(num_servers):
            name = f"rs{i + 1}"
            # Each server gets its own config copy so per-server tuning
            # (or a test freezing one server's heartbeat) cannot leak.
            self.servers[name] = RegionServer(
                name, self, config=dataclasses.replace(self.server_config))

        self.master = Master(self)
        self.coordinator = Coordinator(
            self, heartbeat_timeout_ms=heartbeat_timeout_ms)
        self._observer_cache: Dict[str, Tuple] = {}
        self._started = False

        # DDL bookkeeping.  ``ddl_epoch`` increments on every index
        # create/drop; tasks and planned ops carry the epoch they were
        # created under so maintenance can never leak into a same-named
        # index recreated later.  ``index_by_table`` is the authoritative
        # live-index registry keyed by index TABLE name, consulted at op
        # delivery time.
        self.ddl_epoch = 0
        self.index_by_table: Dict[str, IndexDescriptor] = {}
        from repro.ddl.manager import DdlManager  # deferred: import cycle
        self.ddl = DdlManager(self)
        from repro.placement.manager import PlacementManager  # deferred
        self.placement = PlacementManager(self, placement)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "MiniCluster":
        if not self._started:
            for server in self.servers.values():
                server.start()
            self.coordinator.start()
            self.placement.start()
            self.sim.spawn(self.validation_cleaner.worker(),
                           name="validation-cleaner")
            self._started = True
        return self

    def kill_server(self, name: str) -> None:
        """Crash one region server; the coordinator will notice via the
        missed heartbeats and run recovery."""
        self.servers[name].kill()

    def alive_servers(self) -> List[RegionServer]:
        return [s for s in self.servers.values() if s.alive]

    # -- catalog ------------------------------------------------------------------

    def descriptor(self, table: str) -> TableDescriptor:
        return self.master.descriptor(table)

    def index_descriptor(self, index_name: str) -> IndexDescriptor:
        for descriptor in self.master.tables.values():
            index = descriptor.indexes.get(index_name)
            if index is not None:
                return index
        raise NoSuchIndexError(index_name)

    def observers_for(self, table: str) -> Tuple:
        cached = self._observer_cache.get(table)
        if cached is None:
            cached = build_observers(self.descriptor(table))
            self._observer_cache[table] = cached
        return cached

    # -- DDL -----------------------------------------------------------------------

    def _attach_index_descriptor(self, index: IndexDescriptor,
                                 state: IndexState) -> IndexDescriptor:
        """Stamp a fresh DDL epoch on the descriptor and register it in the
        catalog and the live-index registry.  Every index creation funnels
        through here so the epoch invariant (recreated index > any task
        enqueued before the recreate) holds unconditionally."""
        self.ddl_epoch += 1
        stamped = dataclasses.replace(index, state=state,
                                      created_epoch=self.ddl_epoch)
        base = self.descriptor(index.base_table)
        base.attach_index(stamped)
        if not stamped.is_local:
            self.index_by_table[stamped.table_name] = stamped
        self._observer_cache.pop(index.base_table, None)
        return stamped

    def _set_index_descriptor(self, new_descriptor: IndexDescriptor) -> None:
        """Swap an index's descriptor in place (state/scheme change; the
        DDL epoch is NOT bumped — it is still the same index)."""
        base = self.descriptor(new_descriptor.base_table)
        base.indexes[new_descriptor.name] = new_descriptor
        if not new_descriptor.is_local:
            self.index_by_table[new_descriptor.table_name] = new_descriptor
        self._observer_cache.pop(new_descriptor.base_table, None)

    def create_table(self, name: str,
                     split_keys: Optional[List[bytes]] = None,
                     max_versions: Optional[int] = None,
                     flush_threshold_bytes: Optional[int] = None,
                     compaction: Optional[CompactionPolicy] = None,
                     ) -> TableDescriptor:
        """CREATE TABLE.  A storage kwarg left at None keeps the
        cluster's ``storage`` value."""
        overrides: Dict[str, Any] = {}
        if max_versions is not None:
            overrides["max_versions"] = max_versions
        if flush_threshold_bytes is not None:
            overrides["flush_threshold_bytes"] = flush_threshold_bytes
        if compaction is not None:
            overrides["compaction"] = compaction
        descriptor = TableDescriptor(
            name, TableKind.BASE,
            storage=dataclasses.replace(self.storage, **overrides))
        self.master.create_table(descriptor, split_keys=split_keys)
        return descriptor

    def _create_index_table(self, index: IndexDescriptor,
                            split_keys: Optional[List[bytes]],
                            prefix_compression: bool,
                            compaction: Optional[CompactionPolicy],
                            ) -> TableDescriptor:
        """The key-only index table: the base table's storage settings
        with the two an index may set for itself."""
        base = self.descriptor(index.base_table).storage
        index_table = TableDescriptor(
            index.table_name, TableKind.INDEX,
            storage=dataclasses.replace(
                base, prefix_compression=prefix_compression,
                compaction=(base.compaction if compaction is None
                            else compaction)))
        self.master.create_table(index_table, split_keys=split_keys)
        return index_table

    def create_index(self, index: IndexDescriptor,
                     split_keys: Optional[List[bytes]] = None,
                     backfill: str = "offline",
                     prefix_compression: bool = False,
                     compaction: Optional[CompactionPolicy] = None,
                     ) -> TableDescriptor:
        """CREATE INDEX: create the key-only index table, register the
        descriptor in the catalog (and the base table descriptor, as
        BigInsights stores a copy there), and build entries for
        pre-existing base data.

        ``backfill`` modes:

        * ``"offline"`` — the original instantaneous, cost-free build;
        * ``"none"`` — attach only, no entries for existing rows;
        * ``"online"`` — chunked sim-time build through the repro.ddl
          state machine (see :meth:`create_index_online`, which also
          returns the job handle).
        """
        if backfill == "online":
            self.create_index_online(index, split_keys=split_keys,
                                     prefix_compression=prefix_compression,
                                     compaction=compaction)
            return self.descriptor(index.table_name if not index.is_local
                                   else index.base_table)
        if backfill not in ("offline", "none"):
            raise ValueError(f"unknown backfill mode {backfill!r}")
        base = self.descriptor(index.base_table)
        if index.name in base.indexes:
            from repro.errors import IndexExistsError
            raise IndexExistsError(index.name)
        if index.is_local:
            # No separate table: entries live in each base region's
            # reserved keyspace (co-location, §3.1).
            stamped = self._attach_index_descriptor(index, IndexState.ACTIVE)
            if backfill == "offline":
                self._backfill_local_index(stamped)
            return base
        index_table = self._create_index_table(
            index, split_keys, prefix_compression, compaction)
        stamped = self._attach_index_descriptor(index, IndexState.ACTIVE)
        if backfill == "offline":
            self._backfill_index(stamped)
        return index_table

    def create_index_online(self, index: IndexDescriptor,
                            split_keys: Optional[List[bytes]] = None,
                            prefix_compression: bool = False,
                            compaction: Optional[CompactionPolicy] = None):
        """Online CREATE INDEX (§7's creation utility, run inside simulated
        time): attach the descriptor in BUILDING state — dual-writes by the
        existing observers start immediately — then submit a DDL job that
        backfills existing rows in chunks, catches up, verifies, and flips
        the index ACTIVE.  Reads raise :class:`IndexBuildingError` until
        then.  A plain function (not a coroutine) so a workload driver can
        inject it mid-run via ``sim.call_at``; returns the
        :class:`repro.ddl.jobs.DdlJob` handle."""
        base = self.descriptor(index.base_table)
        if index.name in base.indexes:
            from repro.errors import IndexExistsError
            raise IndexExistsError(index.name)
        if index.is_local:
            raise ValueError(
                "local indexes build offline (entries are region-co-located"
                " and crash-atomic with the base rows); use "
                "backfill='offline'")
        self._create_index_table(index, split_keys, prefix_compression,
                                 compaction)
        stamped = self._attach_index_descriptor(index, IndexState.BUILDING)
        return self.ddl.submit_create(stamped)

    def change_index_scheme(self, index_name: str, new_scheme):
        """ALTER INDEX ... SCHEME (the adaptive controller's actuator; see
        :mod:`repro.core.adaptive`): returns the online DdlJob, or None
        when the index already uses ``new_scheme``.

        Moving away from a lazy scheme (sync-insert's read repair,
        validation's read filter) to a scheme whose reads trust the
        index requires removing the stale entries first: the job scrubs
        them in chunks inside simulated time, while reads keep the
        Algorithm 2 double-check (IndexState.TRANSITION).  Switching
        between two lazy schemes (sync-insert ↔ validation) never scrubs:
        both read paths tolerate the same stale entries.
        Pending AUQ work from an async phase needs no special handling:
        deliveries are idempotent and timestamped, so they stay correct
        under the new scheme."""
        index = self.index_descriptor(index_name)
        if index.scheme is new_scheme:
            return None
        # Validate before submitting: a local index stays sync-full.
        dataclasses.replace(index, scheme=new_scheme)
        return self.ddl.submit_alter(index, new_scheme)

    def drop_index(self, index_name: str, online: bool = False):
        """DROP INDEX.  ``online=True`` routes through the DDL job (a
        DROPPING record is persisted first, so a crash mid-drop resumes)
        and returns the DdlJob; the default drops instantly.  Either way,
        pending AUQ deliveries for the dropped index are cancelled by the
        epoch filter — they can no longer resurrect entries in a
        same-named recreated index."""
        if online:
            return self.ddl.submit_drop(self.index_descriptor(index_name))
        self._drop_index_now(index_name)
        return None

    def _drop_index_now(self, index_name: str) -> None:
        index = self.index_descriptor(index_name)
        base = self.descriptor(index.base_table)
        base.detach_index(index_name)
        self._observer_cache.pop(index.base_table, None)
        # Invalidate in-flight maintenance: delivery filters compare the
        # live registry against each op's planning epoch.
        self.ddl_epoch += 1
        self.index_by_table.pop(index.table_name, None)
        if index.is_local:
            # No table to drop; tombstone the reserved-keyspace entries so
            # a later same-named index cannot resurrect them.
            from repro.core.local import local_scan_range
            from repro.lsm.types import KeyRange
            reserved = local_scan_range(index.name, KeyRange())
            for info in self.master.layout[index.base_table]:
                server = self.servers[info.server_name]
                region = server.regions.get(info.region_name)
                if region is None:
                    continue
                doomed = tuple(Cell(cell.key, cell.ts, None)
                               for cell in region.tree.scan(reserved))
                if doomed:
                    record = server.wal.append(info.region_name,
                                               index.base_table, doomed)
                    region.tree.add_many(doomed, seqno=record.seqno)
            return
        self.master.drop_table(index.table_name)

    def _backfill_index(self, index: IndexDescriptor) -> None:
        """Offline index build over existing base rows (the client-side
        "utility for index creation" of §7).  Entries are WAL-logged so a
        crash cannot silently lose built entries."""
        for info in self.master.layout[index.base_table]:
            server = self.servers[info.server_name]
            region = server.regions[info.region_name]
            for row, row_data in region.iter_base_rows():
                derived = row_index_entry(index, row, row_data)
                if derived is None:
                    continue
                entry = Cell(*derived, b"")
                target_info = self.master.locate(index.table_name, entry.key)
                target = self.servers[target_info.server_name]
                target_region = target.regions[target_info.region_name]
                record = target.wal.append(target_info.region_name,
                                           index.table_name, (entry,))
                target_region.tree.add(entry, seqno=record.seqno)

    def _backfill_local_index(self, index: IndexDescriptor) -> None:
        from repro.core.local import local_entry_key
        for info in self.master.layout[index.base_table]:
            server = self.servers[info.server_name]
            region = server.regions[info.region_name]
            entries = []
            for row, row_data in region.iter_base_rows():
                derived = row_index_entry(index, row, row_data)
                if derived is not None:
                    key, ts = derived
                    entries.append(Cell(local_entry_key(index.name, key), ts,
                                        b""))
            if entries:
                record = server.wal.append(info.region_name,
                                           index.base_table, tuple(entries))
                region.tree.add_many(tuple(entries), seqno=record.seqno)

    # -- routing (server-side authoritative view) -------------------------------------

    def locate(self, table: str, row: bytes) -> Tuple[RegionServer, str]:
        info = self.master.locate(table, row)
        return self.servers[info.server_name], info.region_name

    # -- clients & driving --------------------------------------------------------------

    def new_client(self, name: str = "client") -> Client:
        return Client(self, name=name)

    def run(self, gen: Generator, name: str = "task") -> Any:
        """Blocking facade: drive the simulator until ``gen`` completes."""
        return self.sim.run_until_complete(self.sim.spawn(gen, name=name))

    def spawn(self, gen: Generator, name: str = "task") -> Process:
        return self.sim.spawn(gen, name=name)

    def advance(self, ms: float) -> None:
        """Let background work (APS, flushes, heartbeats) run for ``ms``."""
        self.sim.run(until=self.sim.now() + ms)

    # -- quiescing -----------------------------------------------------------------------

    def auq_backlog(self) -> int:
        return sum(len(s.auq) + s.auq_inflight.count
                   for s in self.alive_servers())

    def quiesce(self, step_ms: float = 20.0,
                max_wait_ms: float = 600_000.0) -> None:
        """Advance simulated time until every AUQ is drained — the
        "eventually" in eventual consistency, made explicit for tests."""
        deadline = self.sim.now() + max_wait_ms
        while self.sim.now() < deadline:
            if (self.auq_backlog() == 0
                    and self.validation_cleaner.backlog == 0
                    and not any(s.put_inflight.count
                                for s in self.alive_servers())):
                return
            self.advance(step_ms)
        raise SimulationError(
            f"AUQs not drained after {max_wait_ms} ms "
            f"(backlog={self.auq_backlog()}, "
            f"cleaner={self.validation_cleaner.backlog})")
