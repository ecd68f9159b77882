"""Ablation — failure recovery (§5.3): cost and correctness under crash.

Measures how long a region-server crash takes to detect + recover, and
verifies that the WAL-replay re-enqueue leaves the async index complete
(no lost updates, idempotent re-delivery)."""

import pytest

from repro.bench import Experiment, ExperimentConfig
from repro.core import check_index
from repro.ycsb import OpType


def crash_and_recover():
    # Memtables large enough that no flush starts during the load: a
    # flush's pre-flush drain would wait on the paused APS below.
    exp = Experiment(ExperimentConfig(scheme_label="async",
                                      record_count=1500,
                                      title_cardinality=300,
                                      flush_threshold_bytes=64 << 20))
    cluster = exp.cluster
    cluster.coordinator.heartbeat_timeout_ms = 1000.0

    # Build an AUQ backlog on purpose: the APS stays paused while the load
    # runs, so every index update is still owed when the busiest server
    # crashes mid-flight.
    for server in cluster.servers.values():
        server.aps_gate.close()
    exp.run_closed({OpType.UPDATE: 1.0}, num_threads=24,
                   duration_ms=1200.0, warmup_ms=0.0)
    backlog_before = cluster.auq_backlog()
    victim = max(cluster.servers.values(), key=lambda s: len(s.regions)).name
    t_kill = cluster.sim.now()
    cluster.kill_server(victim)
    for server in cluster.alive_servers():
        server.aps_gate.open()
    # Wait for the coordinator to detect and recover.
    while victim not in cluster.coordinator.recoveries_completed:
        cluster.advance(100.0)
    t_recovered = cluster.sim.now()
    cluster.quiesce()
    report = check_index(cluster, "item_title")
    return {
        "backlog_at_crash": backlog_before,
        "detect_recover_ms": t_recovered - t_kill,
        "missing": len(report.missing),
        "stale": len(report.stale),
    }


@pytest.mark.paper("§5.3 failure recovery")
def test_recovery_latency_and_consistency(benchmark):
    result = benchmark.pedantic(crash_and_recover, rounds=1, iterations=1)
    print(f"\n  AUQ backlog at crash: {result['backlog_at_crash']} | "
          f"detect+recover: {result['detect_recover_ms']:.0f} ms | "
          f"missing: {result['missing']} stale: {result['stale']}")
    # The crash really hit a backlog: re-delivery had work to do.
    assert result["backlog_at_crash"] >= 1000
    # No index update is lost, despite the AUQ dying with the server.
    assert result["missing"] == 0
    # Idempotent re-delivery leaves no stale garbage after quiesce.
    assert result["stale"] == 0
    # Detection + recovery completes within a few heartbeat timeouts.
    assert result["detect_recover_ms"] < 10_000.0
