"""Workload drivers.

*Closed loop* (the paper's main methodology, §8.1): N client threads,
each submitting the next request the moment the previous one completes;
sweeping N from 1 to 320 traces out the latency-vs-throughput curves of
Figures 7, 8 and 10.

*Open loop* (Figure 11): Poisson arrivals at a target rate, regardless of
completions — the arrival process that lets the AUQ build a backlog when
the offered load exceeds the APS's capacity.

Both drivers, and the scenario runner's tenants, run on one op core: an
op is data (:data:`~repro.ycsb.workload.Op`), :func:`timed_op` issues it
and reports to an :class:`OpRecorder`, and :func:`closed_loop` and
:func:`open_loop` are the two load shapes.

Loading: :func:`load_direct` materialises the dataset straight into the
regions (WAL-logged, so recovery still works) to keep wall-clock time
reasonable; :func:`load_via_client` drives real puts for smaller tests.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Generator, Iterator, Optional

from repro.cluster.client import Client
from repro.cluster.cluster import MiniCluster
from repro.cluster.region import compose_cell_key
from repro.errors import ReproError
from repro.lsm.types import Cell
from repro.sim.kernel import Future, Process, Timeout, all_of
from repro.sim.random import RandomStream
from repro.ycsb.schema import ItemSchema
from repro.ycsb.stats import LatencyRecorder
from repro.ycsb.workload import CoreWorkload, Op, OpType

__all__ = ["load_direct", "load_via_client", "ClosedLoopDriver",
           "OpenLoopDriver", "DriverResult", "OpRecorder", "timed_op",
           "closed_loop", "open_loop"]


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
                    ) -> Generator[Any, Any, int]:
    """Load through ordinary puts (index maintenance runs normally)."""
    rng = RandomStream(seed)
    for i in range(schema.record_count):
        yield from client.put(table, schema.rowkey(i),
                              schema.row_values(i, rng))
    return schema.record_count


# -- the op core: one timed op, one closed loop, one open loop -----------------

# One client call per op kind, returned rather than delegated to: an op
# carries no extra generator frame down the benchmarks' hottest resume chain.
_CALLS = {
    OpType.UPDATE: lambda c, t, row, values: c.put(t, row, values),
    OpType.INSERT: lambda c, t, row, values: c.put(t, row, values),
    OpType.INDEX_READ: lambda c, t, index, kw: c.get_by_index(index, **kw),
    OpType.INDEX_RANGE: lambda c, t, index, kw: c.get_by_index(index, **kw),
    OpType.BASE_READ: lambda c, t, row, _none: c.get(t, row),
}


class OpRecorder:
    """Where the op core reports each op it runs: ``record(kind,
    latency_ms, acked_row)`` for a completed one (``acked_row`` is a
    write's row, else None), ``record_failure(kind)`` for one whose call
    raised a :class:`ReproError`, and ``record_shed()`` for an open-loop
    arrival dropped at the in-flight cap.  The core keeps ``issued`` and
    ``in_flight`` here."""

    def __init__(self) -> None:
        self.issued = 0
        self.in_flight = 0
        self.drained: Optional[Future] = None   # open_loop's wait at its end


def timed_op(client: Client, table: str, op: Op, recorder: OpRecorder,
             ) -> Generator[Any, Any, None]:
    """Run one op, timed from the instant it is issued (closed loop) or
    due (open loop: it is spawned at its arrival).  Only a
    :class:`ReproError` counts as a failed op; anything else is a bug and
    crashes the process."""
    sim = client.cluster.sim
    kind, first, second = op
    start = sim.now()
    recorder.issued += 1
    recorder.in_flight += 1
    try:
        yield from _CALLS[kind](client, table, first, second)
    except ReproError:
        recorder.record_failure(kind)
    else:
        recorder.record(kind, sim.now() - start,
                        first if kind in OpType.WRITES else None)
    recorder.in_flight -= 1
    if recorder.drained is not None and not recorder.in_flight:
        recorder.drained.set_result(None)


def closed_loop(client: Client, table: str, ops: Iterator[Op],
                recorder: OpRecorder) -> Generator[Any, Any, None]:
    """One client thread: each op is issued when the previous one
    completes."""
    for op in ops:
        yield from timed_op(client, table, op, recorder)


def open_loop(client: Client, table: str, ops: Iterator[Op],
              delays: Iterator[float], until: float, recorder: OpRecorder,
              max_in_flight: int) -> Generator[Any, Any, None]:
    """Arrivals independent of completions: sleep each of ``delays``,
    then spawn the next op, or shed the arrival while ``max_in_flight``
    ops are running.  Each delay is the caller's own sleep arithmetic;
    one that is not positive does not sleep.  Ends once the clock
    reaches ``until`` and every op it spawned has completed."""
    sim = client.cluster.sim
    name = f"{client.name}-op"
    for delay in delays:
        if delay > 0:
            yield Timeout(delay)
        if sim.now() >= until:
            break
        if recorder.in_flight >= max_in_flight:
            recorder.record_shed()
            continue
        sim.spawn(timed_op(client, table, next(ops), recorder), name=name)
    if recorder.in_flight:
        recorder.drained = Future()
        yield recorder.drained
        recorder.drained = None


# -- the paper's drivers -------------------------------------------------------


@dataclasses.dataclass
class DriverResult:
    recorder: LatencyRecorder
    issued: int
    failed: int
    # Open-loop arrivals dropped at the in-flight cap.
    shed: int = 0
    # A cluster-wide metrics snapshot (repro.obs) taken at the end of the
    # run: AUQ depth/lag, per-phase span latencies, RPC histograms, ...
    metrics: Optional[dict] = None

    def stats(self, op: str):
        return self.recorder.stats(op)

    def overall(self):
        return self.recorder.overall()


class _DriverBase(OpRecorder):
    def __init__(self, cluster: MiniCluster, workload: CoreWorkload,
                 table: str, seed: int = 11):
        super().__init__()
        self.cluster = cluster
        self.workload = workload
        self.table = table
        self.seed = seed
        self.recorder = LatencyRecorder()
        self.failed = 0
        self.shed = 0

    def record(self, kind: str, latency_ms: float,
               acked_row: Optional[bytes]) -> None:
        self.recorder.record(kind, latency_ms)

    def record_failure(self, kind: str) -> None:
        self.failed += 1

    def record_shed(self) -> None:
        self.shed += 1

    def run(self, duration_ms: float, warmup_ms: float = 0.0) -> DriverResult:
        sim = self.cluster.sim
        start = sim.now()
        end = start + warmup_ms + duration_ms
        self.recorder.begin_window(start + warmup_ms)
        if warmup_ms > 0:       # discards what the warm-up recorded
            sim.call_at(start + warmup_ms, self.recorder.begin_window,
                        start + warmup_ms)
        sim.run_until_complete(self._load(end))
        self.recorder.end_window(min(sim.now(), end))
        return DriverResult(self.recorder, self.issued, self.failed,
                            self.shed, self.cluster.metrics.snapshot())

    def _ops(self, rng: RandomStream, until: float) -> Iterator[Op]:
        # Each op is drawn when it is due, while the clock is short of until.
        sim, workload = self.cluster.sim, self.workload
        while sim.now() < until:
            yield workload.draw(workload.next_op(rng), rng)


class ClosedLoopDriver(_DriverBase):
    """N client threads, each issuing back-to-back requests (§8.1)."""

    def __init__(self, cluster: MiniCluster, workload: CoreWorkload,
                 table: str, num_threads: int, seed: int = 11):
        super().__init__(cluster, workload, table, seed=seed)
        self.num_threads = num_threads

    def _load(self, end: float) -> Future:
        sim = self.cluster.sim
        return all_of(sim, [sim.spawn(closed_loop(
            self.cluster.new_client(f"ycsb-{i}"), self.table,
            self._ops(RandomStream(self.seed * 1000 + i), end), self),
            name=f"driver-{i}") for i in range(self.num_threads)])


class OpenLoopDriver(_DriverBase):
    """Poisson arrivals at ``target_tps``, independent of completions."""

    def __init__(self, cluster: MiniCluster, workload: CoreWorkload,
                 table: str, target_tps: float, seed: int = 11,
                 max_in_flight: int = 10_000):
        super().__init__(cluster, workload, table, seed=seed)
        self.target_tps = target_tps
        self.max_in_flight = max_in_flight

    def _load(self, end: float) -> Process:
        sim = self.cluster.sim
        arrival_rng = RandomStream(self.seed)

        def gaps() -> Iterator[float]:
            while sim.now() < end:
                yield arrival_rng.expovariate(self.target_tps / 1000.0)

        return sim.spawn(open_loop(
            self.cluster.new_client("ycsb-open"), self.table,
            self._ops(RandomStream(self.seed + 1), end), gaps(), end, self,
            self.max_in_flight), name="arrivals")
