"""One function per paper table/figure, producing its rows/series.

Every experiment is pure simulation: deterministic for a given seed and
scale.  Scales are set so the whole suite runs in minutes on a laptop;
set ``REPRO_BENCH_SCALE=full`` for closer-to-paper sweeps (more threads,
longer windows, bigger tables).  Shapes — which scheme wins, by what
factor, where curves cross — are the reproduction target, not absolute
milliseconds (see EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Tuple

from repro.btree import BPlusTree
from repro.core.schemes import IndexScheme
from repro.lsm import Cell, LSMConfig, LSMTree, ReadStats
from repro.lsm.cache import BlockCache
from repro.query import Eq, QueryPlan, execute_plan, plan_query
from repro.sim.latency import LatencyModel
from repro.sim.random import RandomStream
from repro.bench.harness import Experiment, ExperimentConfig
from repro.bench.report import Series, format_table
from repro.ycsb.workload import OpType

__all__ = [
    "bench_scale", "table1_lsm_vs_btree", "table2_io_cost",
    "figure7_update_latency", "figure8_read_latency",
    "figure9_range_selectivity", "figure10_scaleout",
    "figure11_staleness", "claim_index_vs_scan",
    "ablation_drain_before_flush", "SCHEMES_UNDER_TEST",
]

SCHEMES_UNDER_TEST = ("null", "insert", "full", "async", "validation")


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small")


def _thread_sweep() -> List[int]:
    if bench_scale() == "full":
        return [1, 4, 16, 48, 96]
    return [2, 8, 32]


# ---------------------------------------------------------------------------
# Table 1 — LSM vs B-Tree
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class EngineProfile:
    engine: str
    write_mean_ms: float
    read_mean_ms: float
    write_io_per_op: float
    read_io_per_op: float


def table1_lsm_vs_btree(num_rows: int = 5000, num_reads: int = 1000,
                        seed: int = 3) -> List[EngineProfile]:
    """Measure Table 1's qualitative claims under one device model:
    LSM writes are one sequential append (fast); B-Tree writes traverse
    and rewrite pages in place (slower); LSM reads probe multiple
    components (slow); B-Tree reads walk one root-to-leaf path (faster).
    """
    model = LatencyModel()
    rng = RandomStream(seed)
    keys = [f"k{i:08d}".encode() for i in range(num_rows)]
    shuffled = list(keys)
    rng.shuffle(shuffled)

    # --- LSM ---------------------------------------------------------------
    lsm = LSMTree(config=LSMConfig(flush_threshold_bytes=64 * 1024),
                  cache=BlockCache(32 * 1024))
    lsm_write_cost = 0.0
    for ts, key in enumerate(shuffled, start=1):
        lsm.add(Cell(key, ts, b"v" * 64))
        lsm_write_cost += model.wal_append() + model.memtable_op()
        if lsm.needs_flush:
            handle = lsm.prepare_flush()
            lsm.complete_flush(handle)
        if lsm.needs_compaction and rng.random() < 0.25:
            lsm.compact()
    lsm_read_cost = 0.0
    lsm_read_io = 0
    read_keys = [rng.choice(keys) for _ in range(num_reads)]
    for key in read_keys:
        stats = ReadStats()
        lsm.get(key, stats=stats)
        lsm_read_cost += model.read_cost(stats.blocks_from_disk,
                                         stats.blocks_from_cache,
                                         stats.bloom_probes,
                                         stats.memtable_probes)
        lsm_read_io += stats.blocks_from_disk

    # --- B+Tree ------------------------------------------------------------
    btree = BPlusTree(order=64)
    btree.tally.reset()
    btree_write_cost = 0.0
    btree_write_io = 0
    # Model one level of cached internal nodes; deeper levels pay I/O.
    cached_levels = 2
    for key in shuffled:
        btree.put(key, b"v" * 64)
        tally = btree.tally.reset()
        disk_reads = max(0, tally.pages_read - cached_levels)
        btree_write_cost += (disk_reads * model.disk_read_ms
                             + tally.pages_written * model.disk_read_ms
                             + cached_levels * model.block_cache_hit_ms)
        btree_write_io += disk_reads + tally.pages_written
    btree_read_cost = 0.0
    btree_read_io = 0
    for key in read_keys:
        btree.get(key)
        tally = btree.tally.reset()
        disk_reads = max(0, tally.pages_read - cached_levels)
        btree_read_cost += (disk_reads * model.disk_read_ms
                            + cached_levels * model.block_cache_hit_ms)
        btree_read_io += disk_reads

    return [
        EngineProfile("LSM", lsm_write_cost / num_rows,
                      lsm_read_cost / num_reads, 0.0,
                      lsm_read_io / num_reads),
        EngineProfile("B+Tree", btree_write_cost / num_rows,
                      btree_read_cost / num_reads,
                      btree_write_io / num_rows,
                      btree_read_io / num_reads),
    ]


# ---------------------------------------------------------------------------
# Table 2 — I/O cost per scheme
# ---------------------------------------------------------------------------

def table2_io_cost(k_rows: int = 3) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Count the primitive ops of one index update and one index read per
    scheme (single-region tables so each action is exactly one scan)."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for label in SCHEMES_UNDER_TEST:
        config = ExperimentConfig(num_servers=2, record_count=64,
                                  title_cardinality=16, regions_per_server=1,
                                  index_regions=1, scheme_label=label)
        exp = Experiment(config)
        cluster = exp.cluster
        client = cluster.new_client("t2")
        schema = exp.schema

        # One update of an existing row (changes the indexed column).
        baseline = cluster.counters.snapshot()
        cluster.run(client.put(
            exp.TABLE, schema.rowkey(1),
            {"item_title": b"title-brand-new", "field0": b"x" * 100}))
        cluster.quiesce()     # let async deliveries complete and be counted
        update_counts = cluster.counters.since(baseline).as_dict()

        # For the lazy schemes, stage K stale entries so the read shows
        # the K base-read checks of Table 2's read row (sync-insert
        # repairs what it finds; validation only filters).
        stale_title = b"title-stale"
        if label in ("insert", "validation"):
            for i in range(k_rows):
                cluster.run(client.put(exp.TABLE, schema.rowkey(10 + i),
                                       {"item_title": stale_title}))
            for i in range(k_rows):
                cluster.run(client.put(exp.TABLE, schema.rowkey(10 + i),
                                       {"item_title": b"title-moved-on"}))
            query_value = stale_title
        else:
            query_value = schema.title_for(1 % (schema.title_cardinality or 1))
        if label != "null":
            baseline = cluster.counters.snapshot()
            cluster.run(client.get_by_index("item_title",
                                            equals=[query_value]))
            read_counts = cluster.counters.since(baseline).as_dict()
        else:
            read_counts = {}
        out[label] = {"update": update_counts, "read": read_counts}
    return out


def render_table2(costs: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    headers = ["Scheme", "Action", "Base Put", "Base Read",
               "Index Put(+Del)", "Index Read"]
    rows = []
    for label, actions in costs.items():
        for action, counts in actions.items():
            if not counts:
                continue
            base_read = counts.get("base_read", 0)
            a_base_read = counts.get("async_base_read", 0)
            iput = counts.get("index_put", 0) + counts.get("index_delete", 0)
            a_iput = (counts.get("async_index_put", 0)
                      + counts.get("async_index_delete", 0))
            rows.append([
                label, action, counts.get("base_put", 0),
                f"{base_read}" + (f" [{a_base_read}]" if a_base_read else ""),
                f"{iput}" + (f" [{a_iput}]" if a_iput else ""),
                counts.get("index_read", 0)])
    return format_table(headers, rows, title="Table 2 — measured I/O cost")


# ---------------------------------------------------------------------------
# Figure 7 — update latency vs throughput
# ---------------------------------------------------------------------------

def figure7_update_latency(threads: Optional[List[int]] = None,
                           duration_ms: float = 3000.0,
                           record_count: int = 2000,
                           num_servers: int = 4,
                           virtualization_factor: float = 1.0) -> Series:
    """The paper sizes its update runs so "flush and compaction both occur
    frequently during the workload" — the memtable threshold here is set
    so the measured window contains flush(+drain) cycles, which is where
    async's latency catches up with sync-insert."""
    threads = threads or _thread_sweep()
    series = Series("Figure 7 — update performance",
                    "throughput (TPS)", "update latency (ms)")
    for label in SCHEMES_UNDER_TEST:
        for n in threads:
            exp = Experiment(ExperimentConfig(
                num_servers=num_servers, record_count=record_count,
                title_cardinality=record_count // 5, scheme_label=label,
                flush_threshold_bytes=160 * 1024,
                # The index is itself partitioned across the cluster
                # (global index, §3.1) — its region count must scale too.
                index_regions=num_servers,
                virtualization_factor=virtualization_factor))
            result = exp.run_closed({OpType.UPDATE: 1.0}, num_threads=n,
                                    duration_ms=duration_ms, warmup_ms=300.0)
            stats = result.stats(OpType.UPDATE)
            series.add(label, round(stats.throughput_tps), stats.mean_ms)
    return series


def update_overhead_reduction(series: Series) -> Dict[str, float]:
    """The abstract's headline: fraction of sync-full's *index-update
    overhead* (latency above a plain base put) that each cheaper scheme
    removes, at comparable (lowest-thread) load."""
    def first_latency(label: str) -> float:
        points = series.curve(label)
        return points[0][1] if points else 0.0

    null = first_latency("null")
    full = first_latency("full")
    overhead_full = max(full - null, 1e-9)
    out = {}
    for label in ("insert", "async", "validation"):
        overhead = max(first_latency(label) - null, 0.0)
        out[label] = 1.0 - overhead / overhead_full
    return out


# ---------------------------------------------------------------------------
# Figure 8 — index read latency vs throughput
# ---------------------------------------------------------------------------

def figure8_read_latency(threads: Optional[List[int]] = None,
                         duration_ms: float = 1500.0,
                         record_count: int = 2000) -> Series:
    threads = threads or _thread_sweep()
    series = Series("Figure 8 — read performance (exact match)",
                    "throughput (TPS)", "read latency (ms)")
    for label in SCHEMES_UNDER_TEST:
        if label == "null":
            continue  # no index to read
        for n in threads:
            exp = Experiment(ExperimentConfig(
                record_count=record_count,
                # One distinct title per row: the paper's exact-match query
                # returns a single row.
                title_cardinality=0, scheme_label=label))
            _mutate_fraction(exp, 0.2 if label in ("insert", "async",
                                                   "validation") else 0.0)
            exp.warm_index_cache(queries=150)
            result = exp.run_closed({OpType.INDEX_READ: 1.0}, num_threads=n,
                                    duration_ms=duration_ms, warmup_ms=300.0)
            stats = result.stats(OpType.INDEX_READ)
            series.add(label, round(stats.throughput_tps), stats.mean_ms)
    return series


def _mutate_fraction(exp: Experiment, fraction: float) -> None:
    """Pre-age the dataset: update a fraction of rows so sync-insert has
    stale entries to double-check (its read cost in the paper comes from
    checking, which happens for fresh entries too — but staleness makes
    repair visible)."""
    if fraction <= 0:
        return
    client = exp.cluster.new_client("mutator")
    rng = RandomStream(exp.config.seed + 5)
    count = int(exp.schema.record_count * fraction)

    def mutate():
        for i in range(count):
            row, values = (exp.schema.rowkey(i),
                           exp.schema.update_values(i, rng))
            yield from client.put(exp.TABLE, row, values)

    exp.cluster.run(mutate(), name="mutator")
    exp.cluster.quiesce()


# ---------------------------------------------------------------------------
# Figure 9 — range query latency vs selectivity
# ---------------------------------------------------------------------------

def figure9_range_selectivity(
        selectivities: Optional[List[float]] = None,
        record_count: int = 4000,
        duration_ms: float = 1200.0) -> Series:
    """Paper Figure 9: INDEX_RANGE latency per scheme as the price range
    widens from 0.1% to 10% of the table."""
    if selectivities is None:
        selectivities = ([0.001, 0.01, 0.05, 0.1] if bench_scale() == "full"
                         else [0.001, 0.01, 0.1])
    series = Series("Figure 9 — range query latency vs selectivity",
                    "rows selected", "range query latency (ms)")
    for label in ("insert", "full", "async"):
        for selectivity in selectivities:
            exp = Experiment(ExperimentConfig(
                record_count=record_count,
                title_cardinality=record_count // 5,
                scheme_label=label, with_price_index=True))
            result = exp.run_closed(
                {OpType.INDEX_RANGE: 1.0},
                num_threads=10,  # paper: 10 threads
                duration_ms=duration_ms, warmup_ms=200.0,
                range_selectivity=selectivity)
            stats = result.stats(OpType.INDEX_RANGE)
            rows_selected = int(record_count * selectivity)
            series.add(label, rows_selected, stats.mean_ms)
    return series


# ---------------------------------------------------------------------------
# Figure 10 — scale-out (the RC2 cloud experiment)
# ---------------------------------------------------------------------------

def figure10_scaleout(duration_ms: float = 1200.0) -> Tuple[Series, Series]:
    """8-server equivalent vs a 5× cluster with 5× data on slower
    (virtualised) machines; same update workload as Figure 7."""
    threads_small = _thread_sweep()
    threads_big = [n * 5 for n in threads_small]
    small = figure7_update_latency(threads=threads_small,
                                   duration_ms=duration_ms,
                                   record_count=2000, num_servers=4)
    small.name = "Figure 10a — in-house cluster (baseline)"
    big = figure7_update_latency(threads=threads_big,
                                 duration_ms=duration_ms,
                                 record_count=10000, num_servers=20,
                                 virtualization_factor=1.6)
    big.name = "Figure 10b — 5x virtualised cluster (RC2)"
    return small, big


# ---------------------------------------------------------------------------
# Figure 11 — index staleness vs transaction rate
# ---------------------------------------------------------------------------

def figure11_staleness(rates_tps: Optional[List[float]] = None,
                       duration_ms: float = 4000.0,
                       record_count: int = 8000,
                       ) -> List[Tuple[float, Dict[float, float], float,
                                       Dict[str, float]]]:
    """Open-loop async-simple updates at fixed rates; report the T2−T1
    distribution.  Returns ``[(rate, percentiles, frac_within_100ms,
    live)]`` where ``live`` comes from the always-on ``auq_lag_ms``
    histogram probe (repro.obs) — the same T2−T1 measured a second way,
    so the post-hoc tracker and the live gauge can be cross-checked.

    Sized for the paper's data ≫ memory regime: on a table the window
    rewrites several times over, every APS read-back is a memtable hit
    and the queue never saturates."""
    if rates_tps is None:
        rates_tps = ([600, 1500, 2700, 4000] if bench_scale() == "full"
                     else [600, 2000, 3600])
    out = []
    for rate in rates_tps:
        exp = Experiment(ExperimentConfig(
            record_count=record_count,
            title_cardinality=record_count // 5,
            scheme_label="async",
            staleness_sample_rate=0.1))   # paper samples 0.1%; we sample 10%
        exp.run_open({OpType.UPDATE: 1.0}, target_tps=rate,
                     duration_ms=duration_ms, warmup_ms=300.0)
        tracker = exp.cluster.staleness
        lag = exp.cluster.metrics.merged_histogram("auq_lag_ms")
        live = {"count": float(lag.count),
                "mean_ms": lag.mean(),
                "p50_ms": lag.percentile(50),
                "p99_ms": lag.percentile(99),
                "observed": float(tracker.observed)}
        out.append((rate, tracker.percentiles((50, 90, 99, 100)),
                    tracker.fraction_within(100.0), live))
    return out


# ---------------------------------------------------------------------------
# §8.2 claim — index lookup vs parallel table scan
# ---------------------------------------------------------------------------

def claim_index_vs_scan(record_count: int = 4000,
                        queries: int = 20) -> Dict[str, float]:
    """Mean latency of a selective query through the index vs through a
    broadcast scan, on the same cluster."""
    exp = Experiment(ExperimentConfig(record_count=record_count,
                                      title_cardinality=0,
                                      scheme_label="full"))
    cluster = exp.cluster
    client = cluster.new_client("bench")
    rng = RandomStream(exp.config.seed + 9)

    def run_plan(plan: QueryPlan) -> float:
        start = cluster.sim.now()
        cluster.run(execute_plan(cluster, client, plan))
        return cluster.sim.now() - start

    index_total = scan_total = 0.0
    for _ in range(queries):
        title = exp.schema.title_for(rng.randint(0, record_count - 1))
        predicate = Eq("item_title", title)
        plan = plan_query(cluster, exp.TABLE, predicate)
        assert plan.access_path == "index"
        index_total += run_plan(plan)
        scan_total += run_plan(QueryPlan(exp.TABLE, predicate, "scan"))
    return {"index_ms": index_total / queries,
            "scan_ms": scan_total / queries,
            "speedup": scan_total / max(index_total, 1e-9)}


# ---------------------------------------------------------------------------
# Ablation — drain-AUQ-before-flush
# ---------------------------------------------------------------------------

def ablation_drain_before_flush(duration_ms: float = 2500.0,
                                ) -> Dict[str, Dict[str, float]]:
    """Put latency and flush behaviour with the recovery protocol on
    (drain, strict gate), on (drain, early-reopen gate) and off."""
    out = {}
    variants = {
        "no-drain": dict(drain_auq_before_flush=False),
        "drain": dict(drain_auq_before_flush=True, strict_flush_gate=False),
        "drain-strict": dict(drain_auq_before_flush=True,
                             strict_flush_gate=True),
    }
    for name, overrides in variants.items():
        config = ExperimentConfig(record_count=2000, title_cardinality=400,
                                  scheme_label="async",
                                  flush_threshold_bytes=96 * 1024)
        exp = Experiment(config)
        for server in exp.cluster.servers.values():
            for attr, value in overrides.items():
                setattr(server.config, attr, value)
        result = exp.run_closed({OpType.UPDATE: 1.0}, num_threads=16,
                                duration_ms=duration_ms, warmup_ms=300.0)
        stats = result.stats(OpType.UPDATE)
        cluster = exp.cluster
        backlog = cluster.auq_backlog()
        window_s = (duration_ms + 300.0) / 1000.0
        out[name] = {
            "mean_ms": stats.mean_ms,
            "p99_ms": stats.p99_ms,
            "tps": stats.throughput_tps,
            # Foreground acks whose index work actually completed in-window:
            # the rate the system could sustain forever.  Without the drain
            # the AUQ grows unboundedly, so the raw tps above overstates it.
            "sustained_tps": cluster.staleness.observed / window_s,
            "backlog_at_end": backlog,
            "flushes": sum(s.flushes_completed
                           for s in cluster.servers.values()),
            "gate_wait_ms": sum(s.flush_gate_wait_ms
                                for s in cluster.servers.values()),
        }
    return out
