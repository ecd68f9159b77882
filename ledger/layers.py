"""Per-layer attribution, measured from outside the program.

* ``host_us_per_op.<module>`` — cProfile self-time of the traced run,
  grouped by ``repro`` module, divided by ops.  cProfile taxes every
  Python call but not the work inside C builtins, so shares are skewed
  towards call-heavy modules: use them to rank layers, not as timings.
* ``sim_ms.<stage>`` — mean simulated ms per stage over the measured
  phase, as count/sum deltas of the program's own histograms.
* ``count.*`` / ``ratio.*`` — exact per-op work counts from counter deltas.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Dict, Optional, Tuple

from ledger.measure import Repeat, percentile
from ledger.workloads import READ, UPDATE

# Layer = module name.  A repro module not named here is charged to its
# package if the package is (replication, validation, ycsb), else to
# ``repro_other``; the benchmark's own files to ``ledger``; the standard
# library and C builtins to ``other``.
HOST_LAYERS = (
    "sim.kernel", "sim.resources", "sim.scatter", "sim.latency",
    "cluster.client", "cluster.network", "cluster.server", "cluster.region",
    "core.observers", "core.coprocessor", "core.maintenance", "core.auq",
    "core.reader", "core.encoding", "core.index",
    "lsm.tree", "lsm.memtable", "lsm.arraymap", "lsm.iterators",
    "lsm.sstable", "lsm.types", "lsm.wal", "lsm.cache", "lsm.bloom",
    "lsm.remix", "lsm.learned",
    "obs.metrics", "obs.tracing",
    "replication", "validation", "ycsb",
    "repro_other", "ledger", "other")

SPANS = ("put", "wal_append", "sync_index", "RB", "DI", "PI", "index_pi",
         "blind_index", "enqueue", "aps_apply")
GATHER_SITES = ("scan_index", "multiget", "read_repair")
TABLE2_OPS = ("base_put", "base_read", "index_put", "index_read",
              "index_delete", "async_base_read", "async_index_put",
              "async_index_delete")


def _layer_of(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    at = path.rfind("/repro/")
    if at == -1:
        return "ledger" if "/ledger/" in path else "other"
    parts = path[at + len("/repro/"):].removesuffix(".py").split("/")
    module = ".".join(parts[:2])
    if module in HOST_LAYERS:
        return module
    return parts[0] if parts[0] in HOST_LAYERS else "repro_other"


def host_us_per_op(profiler: cProfile.Profile, ops: int) -> Dict[str, float]:
    totals = dict.fromkeys(HOST_LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, self_s, _cum, _callers) in (
            pstats.Stats(profiler).stats.items()):
        totals[_layer_of(filename)] += self_s
    return {f"host_us_per_op.{layer}": seconds * 1e6 / ops
            for layer, seconds in totals.items()}


class _Delta:
    """Counter and histogram deltas between two metrics snapshots.  A bare
    metric name (``rpc_ms``) sums over every label set; a full name
    (``span_ms{span=put}``) selects one."""

    def __init__(self, before: Dict[str, Any], after: Dict[str, Any]):
        self.before, self.after = before, after

    @staticmethod
    def _match(full_name: str, name: str) -> bool:
        return full_name == name or full_name.startswith(name + "{")

    def counter(self, name: str) -> float:
        return sum(value - self.before["counters"].get(full_name, 0)
                   for full_name, value in self.after["counters"].items()
                   if self._match(full_name, name))

    def histogram(self, name: str) -> Tuple[int, float]:
        count, total = 0, 0.0
        for full_name, summary in self.after["histograms"].items():
            if self._match(full_name, name):
                old = self.before["histograms"].get(
                    full_name, {"count": 0, "sum": 0.0})
                count += summary["count"] - old["count"]
                total += summary["sum"] - old["sum"]
        return count, total

    def mean(self, name: str) -> Optional[float]:
        count, total = self.histogram(name)
        return total / count if count else None


def _ratio(part: float, whole: float) -> Optional[float]:
    return part / whole if whole else None


def sim_and_counts(repeat: Repeat) -> Dict[str, Optional[float]]:
    """``sim_ms.*``, ``count.*`` and ``ratio.*`` of one repeat; a stage or
    ratio the workload never exercised is None (reported as absent)."""
    delta = _Delta(repeat.before, repeat.after)
    rec = repeat.recorder
    ops = repeat.ops
    reads = len(rec.latency_ms[READ])
    updates = len(rec.latency_ms[UPDATE])
    out: Dict[str, Optional[float]] = {}

    for span in SPANS:
        out[f"sim_ms.span.{span}"] = delta.mean(f"span_ms{{span={span}}}")
    out["sim_ms.rpc"] = delta.mean("rpc_ms")
    for site in GATHER_SITES:
        out[f"sim_ms.gather.{site}"] = delta.mean(
            f"scatter_gather_ms{{site={site}}}")
    out["sim_ms.flush_gate_wait"] = delta.mean("flush_gate_wait_ms")
    lags = sorted(rec.follower_lag_ms)
    out["sim_ms.replication_lag_p99"] = percentile(lags, 99) if lags else None

    out["count.events_per_op"] = repeat.events / ops
    out["count.rpcs_per_op"] = delta.histogram("rpc_ms")[0] / ops
    out["count.fanout_mean.multiget"] = delta.mean(
        "scatter_fanout{site=multiget}")
    for op in TABLE2_OPS:
        out[f"count.{op}_per_op"] = delta.counter(
            f"table2_ops{{op={op}}}") / ops
    hits = delta.counter("block_cache_hits")
    misses = delta.counter("block_cache_misses")
    out["count.block_reads_per_op"] = misses / ops
    out["ratio.block_cache_hit"] = _ratio(hits, hits + misses)
    out["count.flush_cells_per_update"] = _ratio(
        delta.counter("lsm_flush_cells"), updates)
    out["count.compaction_cells_per_update"] = _ratio(
        delta.counter("lsm_compaction_cells_read"), updates)
    out["count.flushes"] = delta.counter("lsm_flushes")
    out["count.compactions"] = delta.counter("lsm_compactions")
    out["count.sstables_per_region_end"] = repeat.sstables_per_region
    out["count.remix_fallback_scans"] = delta.counter(
        "remix_fallback_scans_total")
    fallbacks = delta.counter("learned_index_fallbacks_total")
    in_window = delta.histogram("learned_index_probe_error")[0]
    out["ratio.learned_fallback"] = _ratio(fallbacks, fallbacks + in_window)
    out["count.wal_group_commit_mean"] = delta.mean("wal_group_commit_size")
    # A gauge's high-water mark cannot be differenced: this one includes
    # the (light) set-up phase.
    out["count.auq_depth_max"] = max(
        (gauge["max"] for name, gauge in repeat.after["gauges"].items()
         if name.startswith("auq_depth{")), default=0.0)
    out["count.auq_degraded"] = delta.counter("auq_degraded_total")
    out["count.aps_retries"] = delta.counter("aps_retries")
    out["ratio.validation_filtered"] = _ratio(
        delta.counter("validation_hits_filtered_total"),
        delta.counter("validation_hits_validated_total"))
    out["count.cleaner_purged"] = delta.counter(
        "validation_cleaner_purged_total")
    out["count.read_repairs_per_read"] = _ratio(
        delta.counter("read_repair_repairs"), reads)
    return out
