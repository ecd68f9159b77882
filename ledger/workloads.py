"""The four ledger workloads: specs, seeded inputs, cluster set-up, load loops.

Everything the program sees is generated here from ``--seed`` with the
standard library's ``random.Random`` (never the program's own generators),
so a change to ``repro.ycsb`` cannot silently change what is measured.
The cluster is driven only through public entry points: ``MiniCluster``,
``Client.put`` / ``get`` / ``get_by_index``, ``server.flush_region``,
``cluster.quiesce``.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro import (IndexDescriptor, IndexScheme, MiniCluster,
                   ReplicationConfig, ServerConfig)
from repro.errors import ReproError
from repro.sim.kernel import Timeout, all_of
from repro.ycsb.driver import load_direct
from repro.ycsb.schema import (FILLER_COLUMNS, INDEXED_PRICE_COLUMN,
                               PRICE_MAX, PRICE_MIN, TITLE_COLUMN, ItemSchema)

TABLE = "item"
TITLE_INDEX = "item_title"
PRICE_INDEX = "item_price"
READ, UPDATE = "read", "update"

SERVERS = 4
BASE_REGIONS = 8
INDEX_REGIONS = 4
ROWS = 4000                 # x ~1 KB per row: a ~4 MB base table
ROWS_PER_TITLE = 5          # K: hits per exact-match title query
CLIENTS = 8                 # simulated closed-loop clients
# The bench harness's flush threshold.  Base regions of write_heavy_full
# flush about twice in a measured phase; at 128-256 KB its update median
# sat on the memtable-hit / disk-read cliff and moved 47% from seed to seed.
FLUSH_THRESHOLD_BYTES = 512 * 1024
RANGE_SELECTIVITY = 0.01    # of the price domain: ~40 of 4000 rows
WARM_SHARE = 20             # warm phase = 1/20 of the measured ops
MAX_IN_FLIGHT = 10_000      # open loop sheds arrivals beyond this
LAG_SAMPLE_MS = 25.0        # follower-lag sampling period (rf > 1)
ZIPF_THETA = 0.99
# Odd and not a multiple of 5, hence coprime with every row count used
# here: rank -> row is a bijection that spreads the hot ranks over regions.
_SCATTER = 2654435761

Op = Tuple[str, Any, Any]   # (UPDATE, rowkey, values) | (READ, kwargs, None)


@dataclasses.dataclass(frozen=True)
class Spec:
    name: str
    why: str
    scheme: IndexScheme
    index: str
    read_share: float
    ops: int                        # measured ops (closed loop)
    cache_bytes: int                # block cache per server
    zipfian: bool = False
    premutated_share: float = 0.0   # rows updated once in set-up: stale entries
    aging_rounds: int = 0           # full-row rewrite + flush rounds in set-up
    rate_tps: float = 0.0           # > 0 selects the open loop
    horizon_ms: float = 0.0         # open loop: arrivals stop here
    ladder_tps: Tuple[float, ...] = ()
    ladder_horizon_ms: float = 0.0
    replication_factor: int = 1
    flush_threshold_bytes: int = FLUSH_THRESHOLD_BYTES

    @property
    def open_loop(self) -> bool:
        return self.rate_tps > 0

    @property
    def nominal_ops(self) -> float:
        return self.ops or self.rate_tps * self.horizon_ms / 1000.0

    @property
    def column(self) -> str:
        return TITLE_COLUMN if self.index == TITLE_INDEX else INDEXED_PRICE_COLUMN


SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("write_heavy_full",
         "sync-full, zipfian keys, 95% update / 5% title read, data >> cache: "
         "the write path (row lock, WAL, observer, PI-RB-DI index RPCs) does "
         "the work and the read path is one index RPC",
         IndexScheme.SYNC_FULL, TITLE_INDEX, read_share=0.05, ops=24_000,
         cache_bytes=64 * 1024, zipfian=True),
    Spec("read_heavy_insert",
         "sync-insert, uniform keys, 20% of rows pre-mutated, 90% title read "
         "/ 10% update, disk-bound: the reader's double-check scatter and LSM "
         "point reads do the work and the write path is one blind index put",
         IndexScheme.SYNC_INSERT, TITLE_INDEX, read_share=0.9, ops=16_000,
         cache_bytes=256 * 1024, premutated_share=0.2),
    Spec("range_aged_validation",
         "validation scheme, 1%-selectivity price ranges 70% / price rewrites "
         "30% on a tree aged into several SSTables with a 32 KB cache: one "
         "REMIX index scan plus a 40-wide validate scatter per read",
         IndexScheme.VALIDATION, PRICE_INDEX, read_share=0.7, ops=4_000,
         cache_bytes=32 * 1024, aging_rounds=2,
         # Far above one rewrite round's footprint (~512 KB per region), so
         # the aged shape is exact: the loaded SSTable plus one per round,
         # below the compaction trigger.  At 512 KB a round sometimes
         # flushed by itself first, and throughput moved 34% with the seed.
         flush_threshold_bytes=2 * 1024 * 1024),
    Spec("open_async_rf3",
         "async-simple at rf=3, open loop (Poisson, one client) at 2000 tps, "
         "50/50, data fits the cache: AUQ/APS, staleness and WAL shipping do "
         "the work; bypasses the double-check and validate paths entirely",
         IndexScheme.ASYNC_SIMPLE, TITLE_INDEX, read_share=0.5, ops=0,
         cache_bytes=8 * 1024 * 1024, rate_tps=2000.0, horizon_ms=6000.0,
         ladder_tps=(1000.0, 2000.0, 3000.0, 4000.0),
         ladder_horizon_ms=4000.0, replication_factor=3),
)}


# -- seeded inputs -----------------------------------------------------------

class Inputs:
    """Deterministic op source for one (spec, seed, scale)."""

    def __init__(self, spec: Spec, seed: int, scale: float = 1.0):
        self.spec = spec
        self.seed = seed
        self.scale = scale
        self.rows = max(200, int(ROWS * scale))
        self.schema = ItemSchema(record_count=self.rows,
                                 title_cardinality=self.rows // ROWS_PER_TITLE)
        weights = ([1.0 / (rank + 1) ** ZIPF_THETA for rank in range(self.rows)]
                   if spec.zipfian else [1.0] * self.rows)
        self._cum_weights = list(itertools.accumulate(weights))

    def scaled(self, count: float) -> int:
        return max(1, int(count * self.scale))

    def _rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.seed}/{self.spec.name}/{stream}")

    def _row_indices(self, rng: random.Random, count: int) -> List[int]:
        ranks = rng.choices(range(self.rows), cum_weights=self._cum_weights,
                            k=count)
        return [(rank * _SCATTER) % self.rows for rank in ranks]

    def _title(self, slot: int) -> bytes:
        return self.schema.title_for(slot)

    def _price(self, rng: random.Random) -> bytes:
        return self.schema.price_bytes(rng.uniform(PRICE_MIN, PRICE_MAX))

    def _update(self, rng: random.Random, index: int) -> Op:
        """Rewrite the indexed column (so the index entry moves) plus one
        filler.  The stock ``update_values`` only ever rewrites the title;
        a price index needs the price rewritten to go stale."""
        values = {"field0": rng.randbytes(self.schema.filler_bytes)}
        if self.spec.index == TITLE_INDEX:
            values[TITLE_COLUMN] = self._title(
                rng.randrange(self.schema.title_cardinality))
        else:
            values[INDEXED_PRICE_COLUMN] = self._price(rng)
        return (UPDATE, self.schema.rowkey(index), values)

    def _read(self, rng: random.Random, index: int) -> Op:
        if self.spec.index == TITLE_INDEX:
            return (READ, {"equals": [self._title(index)]}, None)
        span = (PRICE_MAX - PRICE_MIN) * RANGE_SELECTIVITY
        low = rng.uniform(PRICE_MIN, PRICE_MAX - span)
        return (READ, {"low": self.schema.price_bytes(low),
                       "high": self.schema.price_bytes(low + span)}, None)

    def mixed(self, stream: str, count: int) -> List[Op]:
        rng = self._rng(stream)
        return [self._read(rng, index) if rng.random() < self.spec.read_share
                else self._update(rng, index)
                for index in self._row_indices(rng, count)]

    def client_streams(self, stream: str, total: int) -> List[List[Op]]:
        per_client = max(1, total // CLIENTS)
        return [self.mixed(f"{stream}/{i}", per_client)
                for i in range(CLIENTS)]

    def _premutations(self) -> List[List[Op]]:
        """One indexed-column update for a fixed share of distinct rows."""
        rng = self._rng("premutate")
        chosen = rng.sample(range(self.rows),
                            int(self.rows * self.spec.premutated_share))
        ops = [self._update(rng, index) for index in chosen]
        return [ops[i::CLIENTS] for i in range(CLIENTS)]

    def _rewrite_round(self, round_no: int) -> List[List[Op]]:
        """A fresh version of every cell of every row."""
        rng = self._rng(f"age/{round_no}")
        ops: List[Op] = []
        for index in range(self.rows):
            values = {TITLE_COLUMN: self._title(index),
                      INDEXED_PRICE_COLUMN: self._price(rng)}
            for column in FILLER_COLUMNS:
                values[column] = rng.randbytes(self.schema.filler_bytes)
            ops.append((UPDATE, self.schema.rowkey(index), values))
        return [ops[i::CLIENTS] for i in range(CLIENTS)]

    def setup_phases(self) -> List[Tuple[List[List[Op]], bool]]:
        """The closed-loop phases of set-up as (client streams, flush every
        region afterwards): pre-mutation, aging rounds, warm phase.
        Generated before set-up is timed."""
        phases = []
        if self.spec.premutated_share:
            phases.append((self._premutations(), False))
        phases += [(self._rewrite_round(round_no), True)
                   for round_no in range(self.spec.aging_rounds)]
        phases.append((self.client_streams(
            "warm", self.scaled(self.spec.nominal_ops / WARM_SHARE)), False))
        return phases

    def arrivals(self, stream: str, rate_tps: float,
                 horizon_ms: float) -> Tuple[List[float], List[Op]]:
        """Poisson inter-arrival gaps up to the horizon, and one op each."""
        rng = self._rng(f"{stream}/arrivals")
        gaps: List[float] = []
        clock = 0.0
        while True:
            gap = rng.expovariate(rate_tps / 1000.0)
            clock += gap
            if clock >= horizon_ms:
                break
            gaps.append(gap)
        return gaps, self.mixed(f"{stream}/ops", len(gaps))


# -- recording ---------------------------------------------------------------

class Recorder:
    """What the load loops observe from outside the program."""

    def __init__(self, trace: bool = False):
        self.latency_ms: Dict[str, List[float]] = {READ: [], UPDATE: []}
        self.hits = 0
        self.failed = 0
        self.shed = 0
        self.in_flight = 0
        # row -> column -> (ts, value): the newest acknowledged write.
        self.acked: Dict[bytes, Dict[str, Tuple[int, bytes]]] = {}
        # Traced run only: (op id, kind, sim start, sim end, host start ns,
        # host end ns) — the benchmark's own root span per op.
        self.spans: Optional[List[tuple]] = [] if trace else None
        self.backlog_mid = 0
        self.backlog_end = 0
        self.follower_lag_ms: List[float] = []

    @property
    def completed(self) -> int:
        return len(self.latency_ms[READ]) + len(self.latency_ms[UPDATE])

    @property
    def attempted(self) -> int:
        return self.completed + self.failed + self.shed


def _timed_op(cluster: MiniCluster, client, index: str, op: Op, op_id: int,
              rec: Recorder) -> Generator[Any, Any, None]:
    """One op, timed from the instant it is issued (closed loop) or due
    (open loop — the generator spawns it at its due time)."""
    sim = cluster.sim
    start = sim.now()
    host_start = time.perf_counter_ns() if rec.spans is not None else 0
    kind, target, values = op
    rec.in_flight += 1
    try:
        if kind == UPDATE:
            ts = yield from client.put(TABLE, target, values)
            row = rec.acked.setdefault(target, {})
            for column, value in values.items():
                if column not in row or row[column][0] < ts:
                    row[column] = (ts, value)
        else:
            hits = yield from client.get_by_index(index, **target)
            rec.hits += len(hits)
    except ReproError:
        rec.failed += 1
        return
    finally:
        rec.in_flight -= 1
    end = sim.now()
    rec.latency_ms[kind].append(end - start)
    if rec.spans is not None:
        rec.spans.append((op_id, kind, start, end, host_start,
                          time.perf_counter_ns()))


def run_closed(cluster: MiniCluster, index: str, streams: List[List[Op]],
               rec: Recorder) -> float:
    """Each client issues its next op when the previous one completes;
    returns the simulated duration in ms."""
    sim = cluster.sim
    start = sim.now()

    def body(client_no: int, ops: List[Op]) -> Generator[Any, Any, None]:
        client = cluster.new_client(f"ledger-{client_no}")
        for n, op in enumerate(ops):
            yield from _timed_op(cluster, client, index, op,
                                 n * CLIENTS + client_no, rec)

    procs = [sim.spawn(body(i, ops), name=f"ledger-{i}")
             for i, ops in enumerate(streams)]
    sim.run_until_complete(all_of(sim, procs))
    return sim.now() - start


def run_open(cluster: MiniCluster, index: str, gaps: List[float],
             ops: List[Op], rec: Recorder) -> float:
    """Poisson arrivals from one client, independent of completions.  The
    generator sleeps in simulated time, so it is never late: each op is
    spawned at exactly its due instant and its latency counts from there.
    Returns the arrival horizon in ms (ops in flight at the horizon are
    still waited for and recorded)."""
    sim = cluster.sim
    start = sim.now()
    horizon = sum(gaps)
    client = cluster.new_client("ledger-open")
    procs = []

    def arrivals() -> Generator[Any, Any, None]:
        for op_id, (gap, op) in enumerate(zip(gaps, ops)):
            yield Timeout(gap)
            if rec.in_flight >= MAX_IN_FLIGHT:
                rec.shed += 1
                continue
            procs.append(sim.spawn(
                _timed_op(cluster, client, index, op, op_id, rec),
                name="ledger-op"))
        rec.backlog_end = cluster.auq_backlog()

    def sample_follower_lag() -> Generator[Any, Any, None]:
        while sim.now() - start < horizon:
            yield Timeout(LAG_SAMPLE_MS)
            now = sim.now()
            for server in cluster.alive_servers():
                for replica in server.follower_regions.values():
                    rec.follower_lag_ms.append(replica.staleness_at(now))

    def sample_backlog_mid() -> None:
        rec.backlog_mid = cluster.auq_backlog()

    sim.call_at(start + horizon / 2, sample_backlog_mid)
    if cluster.replication.enabled:
        sim.spawn(sample_follower_lag(), name="ledger-lag")
    sim.run_until_complete(sim.spawn(arrivals(), name="ledger-arrivals"))
    pending = [p for p in procs if not p.future.done()]
    if pending:
        sim.run_until_complete(all_of(sim, pending))
    return horizon


# -- set-up ------------------------------------------------------------------

def build_cluster(inputs: Inputs,
                  phases: List[Tuple[List[List[Op]], bool]]) -> MiniCluster:
    """Build, load, pre-mutate, age and warm one cluster; quiesced on return."""
    spec, schema = inputs.spec, inputs.schema
    replication = (ReplicationConfig(replication_factor=spec.replication_factor)
                   if spec.replication_factor > 1 else None)
    cluster = MiniCluster(
        num_servers=SERVERS, seed=inputs.seed, replication=replication,
        # Unbounded AUQ, as in the paper's Figure 11 regime: the backlog
        # must be free to grow when the offered rate exceeds the APS.
        server_config=ServerConfig(block_cache_bytes=spec.cache_bytes,
                                   auq_high_watermark=None))
    cluster.create_table(TABLE, split_keys=schema.split_keys(BASE_REGIONS),
                         flush_threshold_bytes=spec.flush_threshold_bytes)
    load_direct(cluster, schema, TABLE, seed=inputs.seed)
    split_keys = (schema.title_split_keys(INDEX_REGIONS)
                  if spec.index == TITLE_INDEX
                  else schema.price_split_keys(INDEX_REGIONS))
    cluster.create_index(
        IndexDescriptor(spec.index, TABLE, (spec.column,), scheme=spec.scheme),
        split_keys=split_keys)
    cluster.start()

    setup = Recorder()
    for streams, flush_after in phases:
        run_closed(cluster, spec.index, streams, setup)
        cluster.quiesce()
        if flush_after:
            # One SSTable per aging round in every base and index region.
            for server in cluster.alive_servers():
                for region in list(server.regions.values()):
                    cluster.run(server.flush_region(region),
                                name="ledger-flush")
    if setup.failed:
        raise RuntimeError(f"{spec.name}: {setup.failed} set-up ops failed")
    return cluster
