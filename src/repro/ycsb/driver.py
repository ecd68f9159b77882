"""Workload drivers.

*Closed loop* (the paper's main methodology, §8.1): N client threads,
each submitting the next request the moment the previous one completes;
sweeping N from 1 to 320 traces out the latency-vs-throughput curves of
Figures 7, 8 and 10.

*Open loop* (Figure 11): Poisson arrivals at a target rate, regardless of
completions — the arrival process that lets the AUQ build a backlog when
the offered load exceeds the APS's capacity.

Loading: :func:`load_direct` materialises the dataset straight into the
regions (WAL-logged, so recovery still works) to keep wall-clock time
reasonable; :func:`load_via_client` drives real puts for smaller tests.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Generator, List, Optional

from repro.cluster.client import Client
from repro.cluster.cluster import MiniCluster
from repro.cluster.region import compose_cell_key
from repro.lsm.types import Cell
from repro.sim.kernel import Timeout, all_of
from repro.sim.random import RandomStream
from repro.ycsb.schema import ItemSchema
from repro.ycsb.stats import LatencyRecorder
from repro.ycsb.workload import CoreWorkload, OpType

__all__ = ["load_direct", "load_via_client", "ClosedLoopDriver",
           "OpenLoopDriver", "DriverResult"]


def load_direct(cluster: MiniCluster, schema: ItemSchema, table: str,
                seed: int = 7) -> int:
    """Bulk-load the item table bypassing the timed RPC path.

    Rows are written to the owning region's memtable and WAL directly,
    with timestamps assigned by the hosting server, then flushed to
    SimHDFS so the dataset starts disk-resident (the paper's reads are
    disk-bound).  Create indexes *after* loading, with the default
    ``backfill="offline"``.
    """
    rng = RandomStream(seed)
    for i in range(schema.record_count):
        row = schema.rowkey(i)
        info = cluster.master.locate(table, row)
        server = cluster.servers[info.server_name]
        region = server.regions[info.region_name]
        ts = server.assign_timestamp()
        values = schema.row_values(i, rng)
        cells = tuple(Cell(compose_cell_key(row, col), ts, value)
                      for col, value in sorted(values.items()))
        record = server.wal.append(region.name, table, cells,
                                   indexed=region.table.has_indexes)
        region.tree.add_many(cells, seqno=record.seqno)
    # Flush everything so reads hit SSTables, not a giant memtable.
    for server in cluster.servers.values():
        for region in server.regions.values():
            if region.table.name != table:
                continue
            handle = region.tree.prepare_flush()
            if handle is not None:
                region.tree.complete_flush(handle)
                cluster.hdfs.set_store_files(table, region.name,
                                             region.tree._sstables)
                server.wal.roll_forward(region.name, handle.wal_seqno)
    return schema.record_count


def load_via_client(cluster: MiniCluster, client: Client,
                    schema: ItemSchema, table: str, seed: int = 7,
                    batch_size: int = 1) -> Generator[Any, Any, int]:
    """Load through ordinary puts (index maintenance runs normally).

    ``batch_size > 1`` loads through ``Client.batch_put`` instead:
    identical rows and values, ~1/batch_size the round trips and WAL
    group commits amortised across each batch."""
    rng = RandomStream(seed)
    if batch_size <= 1:
        for i in range(schema.record_count):
            yield from client.put(table, schema.rowkey(i),
                                  schema.row_values(i, rng))
        return schema.record_count
    pending = []
    for i in range(schema.record_count):
        pending.append((schema.rowkey(i), schema.row_values(i, rng)))
        if len(pending) >= batch_size:
            yield from client.batch_put(table, pending)
            pending = []
    if pending:
        yield from client.batch_put(table, pending)
    return schema.record_count


@dataclasses.dataclass
class DriverResult:
    recorder: LatencyRecorder
    issued: int
    failed: int
    # A cluster-wide metrics snapshot (repro.obs) taken at the end of the
    # run: AUQ depth/lag, per-phase span latencies, RPC histograms, ...
    metrics: Optional[dict] = None

    def stats(self, op: str):
        return self.recorder.stats(op)

    def overall(self):
        return self.recorder.overall()


class _DriverBase:
    def __init__(self, cluster: MiniCluster, workload: CoreWorkload,
                 table: str, seed: int = 11, batch_size: int = 1):
        self.cluster = cluster
        self.workload = workload
        self.table = table
        self.seed = seed
        # Write batching: UPDATE/INSERT ops carry this many rows through
        # one batch_put (1 = the classic per-row put path).  One timed op
        # then covers the whole batch, so latency is per-batch while
        # rows/sec throughput scales with the batch width.
        self.batch_size = max(1, batch_size)
        self.recorder = LatencyRecorder()
        self.issued = 0
        self.failed = 0

    def _timed_op(self, client: Client, op: str, rng: RandomStream,
                  ) -> Generator[Any, Any, None]:
        # Dispatch is inlined rather than delegated through a helper
        # generator: every op otherwise carries an extra generator frame
        # down the hottest resume chain in the benchmark.
        sim = self.cluster.sim
        start = sim.now()
        self.issued += 1
        workload = self.workload
        try:
            if op == OpType.UPDATE:
                if self.batch_size > 1:
                    items = [workload.next_update(rng)
                             for _ in range(self.batch_size)]
                    yield from client.batch_put(self.table, items)
                else:
                    row, values = workload.next_update(rng)
                    yield from client.put(self.table, row, values)
            elif op == OpType.INSERT:
                if self.batch_size > 1:
                    items = [workload.next_insert(rng)
                             for _ in range(self.batch_size)]
                    yield from client.batch_put(self.table, items)
                else:
                    row, values = workload.next_insert(rng)
                    yield from client.put(self.table, row, values)
            elif op == OpType.INDEX_READ:
                title = workload.next_title_query(rng)
                yield from client.get_by_index(workload.title_index_name,
                                               equals=[title])
            elif op == OpType.INDEX_RANGE:
                low, high = workload.next_price_range(rng)
                yield from client.get_by_index(workload.price_index_name,
                                               low=low, high=high)
            elif op == OpType.BASE_READ:
                row = workload.next_rowkey(rng)
                yield from client.get(self.table, row)
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception:  # noqa: BLE001 - workload survives op failures
            self.failed += 1
            return
        self.recorder.record(op, sim.now() - start)


class ClosedLoopDriver(_DriverBase):
    """N client threads, each issuing back-to-back requests (§8.1)."""

    def __init__(self, cluster: MiniCluster, workload: CoreWorkload,
                 table: str, num_threads: int, seed: int = 11,
                 batch_size: int = 1):
        super().__init__(cluster, workload, table, seed=seed,
                         batch_size=batch_size)
        self.num_threads = num_threads

    def run(self, duration_ms: float, warmup_ms: float = 0.0) -> DriverResult:
        sim = self.cluster.sim
        start = sim.now()
        end = start + warmup_ms + duration_ms
        self.recorder.begin_window(start + warmup_ms)
        if warmup_ms > 0:
            self.recorder.recording = False
            sim.call_at(start + warmup_ms,
                        lambda: setattr(self.recorder, "recording", True))

        def thread_body(thread_id: int) -> Generator[Any, Any, None]:
            client = self.cluster.new_client(f"ycsb-{thread_id}")
            rng = RandomStream(self.seed * 1000 + thread_id)
            while sim.now() < end:
                op = self.workload.next_op(rng)
                yield from self._timed_op(client, op, rng)

        threads = [sim.spawn(thread_body(i), name=f"driver-{i}")
                   for i in range(self.num_threads)]
        sim.run_until_complete(all_of(sim, threads))
        self.recorder.end_window(min(sim.now(), end))
        return DriverResult(self.recorder, self.issued, self.failed,
                            metrics=self.cluster.metrics.snapshot())


class OpenLoopDriver(_DriverBase):
    """Poisson arrivals at ``target_tps``, independent of completions."""

    def __init__(self, cluster: MiniCluster, workload: CoreWorkload,
                 table: str, target_tps: float, seed: int = 11,
                 max_in_flight: int = 10_000, batch_size: int = 1):
        super().__init__(cluster, workload, table, seed=seed,
                         batch_size=batch_size)
        self.target_tps = target_tps
        self.max_in_flight = max_in_flight

    def run(self, duration_ms: float, warmup_ms: float = 0.0) -> DriverResult:
        sim = self.cluster.sim
        start = sim.now()
        end = start + warmup_ms + duration_ms
        self.recorder.begin_window(start + warmup_ms)
        if warmup_ms > 0:
            self.recorder.recording = False
            sim.call_at(start + warmup_ms,
                        lambda: setattr(self.recorder, "recording", True))
        client = self.cluster.new_client("ycsb-open")
        arrival_rng = RandomStream(self.seed)
        op_rng = RandomStream(self.seed + 1)
        in_flight: List[Any] = []

        def arrivals() -> Generator[Any, Any, None]:
            while sim.now() < end:
                yield Timeout(arrival_rng.expovariate(
                    self.target_tps / 1000.0))
                if sim.now() >= end:
                    break
                live = [p for p in in_flight if not p.future.done()]
                in_flight[:] = live
                if len(live) >= self.max_in_flight:
                    continue  # shed load rather than grow without bound
                op = self.workload.next_op(op_rng)
                in_flight.append(sim.spawn(
                    self._timed_op(client, op, op_rng), name="open-op"))

        sim.run_until_complete(sim.spawn(arrivals(), name="arrivals"))
        pending = [p for p in in_flight if not p.future.done()]
        if pending:
            sim.run_until_complete(all_of(sim, pending))
        self.recorder.end_window(end)
        return DriverResult(self.recorder, self.issued, self.failed,
                            metrics=self.cluster.metrics.snapshot())
