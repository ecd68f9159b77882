"""One repeat of one workload: set up, measure on two clocks, gate, summarise.

Host numbers are process CPU time with the cyclic GC paused; simulated
numbers come from the load loops' own per-op records and from deltas of
``cluster.metrics.snapshot()`` taken around the measured phase.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.verify import check_index

from ledger.workloads import (READ, TABLE, UPDATE, Inputs, Recorder, Spec,
                       build_cluster, run_closed, run_open)

READBACK_ROWS = 200
STALENESS_LIMIT_MS = 100.0      # the paper's Figure 11 threshold
# remix_build_ms observes host wall time inside the program: the one
# histogram that is not a function of (code, seed).
HOST_TIMED_HISTOGRAMS = ("remix_build_ms",)


class GateError(AssertionError):
    """The correctness gate failed: no numbers may be printed."""


@dataclasses.dataclass
class Repeat:
    setup_cpu_s: float
    run_cpu_s: float
    recorder: Recorder
    sim: Dict[str, float]           # simulated end-to-end metrics
    samples: Dict[str, int]         # sample count behind each latency metric
    before: Dict[str, Any]          # metrics snapshots around the measured phase
    after: Dict[str, Any]
    events: int                     # kernel events scheduled in the phase
    staleness_p99_ms: Optional[float]
    sstables_per_region: float
    fingerprint: str

    @property
    def ops(self) -> int:
        return self.recorder.completed


def cpu_timed(fn: Callable[[], Any]) -> tuple:
    """(result, process CPU seconds) of ``fn`` with the cyclic GC paused."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        result = fn()
        return result, time.process_time() - start
    finally:
        gc.enable()


def percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(0, -(-len(ordered) * p // 100) - 1)
    return ordered[int(rank)]


def _gate(cluster, spec: Spec, rec: Recorder, seed: int) -> None:
    """Quiesce, then hold the scheme to its contract and read back the
    newest acknowledged value of a row sample."""
    cluster.quiesce()
    report = check_index(cluster, spec.index)
    if spec.scheme.is_lazy:
        ok = not report.has_missing     # stale entries are the design
    else:
        ok = report.is_consistent       # sync-full, and async once drained
    if not ok:
        raise GateError(f"{spec.name}: index contract violated: {report}")
    rows = sorted(rec.acked)
    sample = random.Random(f"{seed}/readback").sample(
        rows, min(READBACK_ROWS, len(rows)))
    client = cluster.new_client("ledger-gate")

    def read_back():
        for row in sample:
            current = yield from client.get(TABLE, row)
            for column, (_ts, value) in rec.acked[row].items():
                if current.get(column, (None, 0))[0] != value:
                    raise GateError(
                        f"{spec.name}: row {row!r} column {column!r} lost "
                        f"its last acknowledged value")

    cluster.run(read_back(), name="ledger-gate")


def _fingerprint(rec: Recorder, sim_ms: float, after: Dict[str, Any]) -> str:
    """Hash of every simulated statistic of the repeat: per-op latencies,
    hit counts, and every counter and histogram of the program."""
    histograms = {name: (h["count"], h["sum"])
                  for name, h in after["histograms"].items()
                  if not name.startswith(HOST_TIMED_HISTOGRAMS)}
    payload = json.dumps(
        [rec.latency_ms, rec.hits, rec.failed, rec.shed, sim_ms,
         after["counters"], histograms], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_repeat(spec: Spec, seed: int, scale: float = 1.0,
               trace: bool = False, tracer_enabled: bool = True,
               rate_tps: Optional[float] = None,
               horizon_ms: Optional[float] = None,
               around_run: Callable[[Callable[[], Any]], Any] = None,
               ) -> Repeat:
    """Fresh cluster, set up, measured phase, correctness gate."""
    inputs = Inputs(spec, seed, scale)
    phases = inputs.setup_phases()
    cluster, setup_cpu_s = cpu_timed(lambda: build_cluster(inputs, phases))
    cluster.tracer.enabled = tracer_enabled

    rec = Recorder(trace=trace)
    if spec.open_loop:
        gaps, ops = inputs.arrivals(
            "run", rate_tps or spec.rate_tps,
            (horizon_ms or spec.horizon_ms) * scale)
        phase = lambda: run_open(cluster, spec.index, gaps, ops, rec)
    else:
        streams = inputs.client_streams("run", inputs.scaled(spec.ops))
        phase = lambda: run_closed(cluster, spec.index, streams, rec)
    if around_run is not None:
        inner = phase
        phase = lambda: around_run(inner)

    before = cluster.metrics.snapshot()
    lags_before = len(cluster.staleness.lags_ms)
    events_before = cluster.sim._seq    # no public event count yet
    sim_ms, run_cpu_s = cpu_timed(phase)
    events = cluster.sim._seq - events_before
    after = cluster.metrics.snapshot()
    # T2 - T1 of every index task the APS completed in the phase: the
    # exact samples behind the program's bucketed auq_lag_ms histogram.
    lags = sorted(cluster.staleness.lags_ms[lags_before:])
    staleness = percentile(lags, 99) if spec.scheme.is_async and lags else None
    sstables = [region.tree.sstable_count
                for server in cluster.alive_servers()
                for region in server.regions.values()]

    _gate(cluster, spec, rec, seed)

    sim: Dict[str, float] = {
        "sim_throughput_tps": rec.completed / (sim_ms / 1000.0)}
    samples: Dict[str, int] = {}
    for kind in (READ, UPDATE):
        ordered = sorted(rec.latency_ms[kind])
        if ordered:
            sim[f"{kind}_p50_sim_ms"] = percentile(ordered, 50)
            sim[f"{kind}_p99_sim_ms"] = percentile(ordered, 99)
            samples[kind] = len(ordered)
    return Repeat(setup_cpu_s, run_cpu_s, rec, sim, samples, before, after,
                  events, staleness, sum(sstables) / len(sstables),
                  _fingerprint(rec, sim_ms, after))
