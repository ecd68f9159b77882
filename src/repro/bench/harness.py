"""Experiment harness: build → load → drive → report.

One :class:`ExperimentConfig` describes a cluster + dataset + workload
combination at benchmark scale (the paper's 8-server / 40M-row testbed,
scaled down but proportionally: cache-to-data ratios and region counts
per server are preserved, so reads stay disk-bound and saturation
effects survive the scaling).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.core.index import IndexDescriptor
from repro.core.schemes import (IndexScheme, SCHEME_LABELS,
                                scheme_from_label)
from repro.cluster.cluster import MiniCluster
from repro.cluster.server import ServerConfig
from repro.sim.latency import LatencyModel
from repro.ycsb.driver import (ClosedLoopDriver, DriverResult, OpenLoopDriver,
                               load_direct)
from repro.ycsb.schema import ItemSchema, INDEXED_PRICE_COLUMN, TITLE_COLUMN
from repro.ycsb.workload import CoreWorkload, OpType

__all__ = ["ExperimentConfig", "Experiment", "SCHEME_LABELS",
           "scheme_from_label"]

# SCHEME_LABELS / scheme_from_label now live in repro.core.schemes (one
# registry for every CLI, driver and bench); re-exported here for the
# callers that historically imported them from the harness.


@dataclasses.dataclass
class ExperimentConfig:
    num_servers: int = 4
    record_count: int = 4000
    title_cardinality: int = 800
    regions_per_server: int = 2
    index_regions: int = 4
    scheme_label: str = "full"
    # Both paper indexes (title for point queries, price for ranges).
    with_price_index: bool = False
    block_cache_bytes: int = 256 * 1024
    flush_threshold_bytes: int = 512 * 1024
    virtualization_factor: float = 1.0
    staleness_sample_rate: float = 1.0
    seed: int = 42
    # Experiments default to an UNBOUNDED AUQ: the paper's Figure 11
    # regime (staleness growing with load) requires the backlog to grow
    # freely, so the production high-watermark backpressure stays off
    # unless an experiment opts in.
    auq_high_watermark: Optional[int] = None
    # Compaction policy for the index tables ("size_tiered" | "leveled");
    # None inherits the base table's.  "leveled" makes every compaction
    # round major, which gives the dead-entry purge its chances
    # (DESIGN.md §14).
    index_compaction_policy: Optional[str] = None

    def schema(self) -> ItemSchema:
        return ItemSchema(record_count=self.record_count,
                          title_cardinality=self.title_cardinality)


class Experiment:
    """A loaded cluster ready to be driven."""

    TABLE = "item"

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.schema = config.schema()
        model = LatencyModel()
        if config.virtualization_factor != 1.0:
            model = model.scaled(config.virtualization_factor)
        server_config = ServerConfig(
            block_cache_bytes=config.block_cache_bytes,
            auq_high_watermark=config.auq_high_watermark)
        self.cluster = MiniCluster(
            num_servers=config.num_servers, model=model,
            server_config=server_config, seed=config.seed,
            staleness_sample_rate=config.staleness_sample_rate)
        self._build()

    def _build(self) -> None:
        config = self.config
        base_regions = config.num_servers * config.regions_per_server
        self.cluster.create_table(
            self.TABLE, split_keys=self.schema.split_keys(base_regions),
            flush_threshold_bytes=config.flush_threshold_bytes)
        load_direct(self.cluster, self.schema, self.TABLE, seed=config.seed)

        scheme = scheme_from_label(config.scheme_label)
        if scheme is not None:
            self.cluster.create_index(
                IndexDescriptor("item_title", self.TABLE, (TITLE_COLUMN,),
                                scheme=scheme),
                split_keys=self.schema.title_split_keys(config.index_regions),
                compaction_policy=config.index_compaction_policy)
            if config.with_price_index:
                self.cluster.create_index(
                    IndexDescriptor("item_price", self.TABLE,
                                    (INDEXED_PRICE_COLUMN,), scheme=scheme),
                    split_keys=self.schema.price_split_keys(
                        config.index_regions),
                    compaction_policy=config.index_compaction_policy)
        self.cluster.start()

    # -- driving ----------------------------------------------------------------

    def workload(self, proportions: Dict[str, float],
                 distribution: str = "uniform",
                 range_selectivity: float = 0.0001) -> CoreWorkload:
        return CoreWorkload(self.schema, proportions=proportions,
                            distribution=distribution,
                            range_selectivity=range_selectivity)

    def run_closed(self, proportions: Dict[str, float], num_threads: int,
                   duration_ms: float, warmup_ms: float = 500.0,
                   distribution: str = "uniform",
                   range_selectivity: float = 0.0001) -> DriverResult:
        workload = self.workload(proportions, distribution, range_selectivity)
        driver = ClosedLoopDriver(self.cluster, workload, self.TABLE,
                                  num_threads=num_threads,
                                  seed=self.config.seed)
        return driver.run(duration_ms=duration_ms, warmup_ms=warmup_ms)

    def run_open(self, proportions: Dict[str, float], target_tps: float,
                 duration_ms: float, warmup_ms: float = 500.0) -> DriverResult:
        workload = self.workload(proportions)
        driver = OpenLoopDriver(self.cluster, workload, self.TABLE,
                                target_tps=target_tps,
                                seed=self.config.seed)
        return driver.run(duration_ms=duration_ms, warmup_ms=warmup_ms)

    def metrics_snapshot(self) -> dict:
        """Point-in-time dump of the cluster's observability registry —
        everything the probes recorded so far (AUQ depth/lag, per-phase
        span latencies, RPC histograms, LSM counters, Table 2 ops)."""
        return self.cluster.metrics.snapshot()

    def warm_index_cache(self, queries: int = 200) -> None:
        """Figure 8 methodology: "read is measured with a warmed block
        cache" — touch the index (and hot base blocks) before measuring."""
        client = self.cluster.new_client("warmer")
        workload = self.workload({OpType.INDEX_READ: 1.0})
        from repro.sim.random import RandomStream
        rng = RandomStream(self.config.seed + 99)

        def warm():
            for _ in range(queries):
                title = workload.next_title_query(rng)
                yield from client.get_by_index("item_title", equals=[title])

        self.cluster.run(warm(), name="cache-warmer")
