"""Extension bench — adaptive scheme selection (§10 future work).

A two-phase workload (write-heavy ingest, then read-heavy serving) runs
under each fixed scheme and under the adaptive controller.  The adaptive
run should track the best fixed scheme in each phase — paying neither
sync-full's update cost during ingest nor sync-insert's read cost during
serving."""

import pytest

from repro import IndexDescriptor, MiniCluster, check_index
from repro.bench import format_table
from repro.bench.harness import SCHEME_LABELS
from repro.core import AdaptiveController, AdaptivePolicy, ConsistencyLevel
from repro.core.schemes import IndexScheme
from repro.sim.random import RandomStream

INGEST_OPS = 250
SERVING_OPS = 250


def run_two_phase(scheme, adaptive=False):
    cluster = MiniCluster(num_servers=3, seed=33).start()
    cluster.create_table("items")
    cluster.create_index(IndexDescriptor("by_tag", "items", ("tag",),
                                         scheme=scheme))
    client = cluster.new_client()
    rng = RandomStream(7)
    ctrl = None
    if adaptive:
        ctrl = AdaptiveController(
            cluster, "by_tag", ConsistencyLevel.EVENTUAL,
            policy=AdaptivePolicy(window_ops=80, min_ops_to_act=40,
                                  cooldown_ops=60))

    lat = {"ingest_update": [], "serving_read": []}

    def phase(ops, update_share, update_bucket, read_bucket):
        for _ in range(ops):
            if rng.random() < update_share:
                row = f"i{rng.randint(0, 199):04d}".encode()
                start = cluster.sim.now()
                yield from client.put("items", row,
                                      {"tag": f"t{rng.randint(0, 9)}".encode()})
                if update_bucket:
                    lat[update_bucket].append(cluster.sim.now() - start)
                if ctrl:
                    ctrl.observe_update()
            else:
                start = cluster.sim.now()
                yield from client.get_by_index(
                    "by_tag", equals=[f"t{rng.randint(0, 9)}".encode()])
                if read_bucket:
                    lat[read_bucket].append(cluster.sim.now() - start)
                if ctrl:
                    ctrl.observe_read()
            if ctrl:
                ctrl.evaluate()

    cluster.run(phase(INGEST_OPS, 0.95, "ingest_update", None))
    cluster.run(phase(SERVING_OPS, 0.05, None, "serving_read"))
    cluster.quiesce()
    # Fixed sync-insert legitimately leaves (repairable) stale entries;
    # nothing may ever go missing, and the adaptive run must end clean
    # (its strengthening switch scrubs).
    report = check_index(cluster, "by_tag")
    assert not report.missing
    if adaptive:
        assert report.is_consistent

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    return {"ingest_update_ms": mean(lat["ingest_update"]),
            "serving_read_ms": mean(lat["serving_read"])}


def measure_all():
    results = {}
    for label in ("full", "insert", "async"):
        results[label] = run_two_phase(SCHEME_LABELS[label])
    results["adaptive"] = run_two_phase(IndexScheme.SYNC_FULL, adaptive=True)
    return results


@pytest.mark.paper("§10 future work: adaptive scheme selection (extension)")
def test_adaptive_tracks_best_fixed_scheme(benchmark):
    results = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    rows = [[name, f"{r['ingest_update_ms']:.2f}",
             f"{r['serving_read_ms']:.2f}"] for name, r in results.items()]
    print()
    print(format_table(
        ["policy", "ingest update mean (ms)", "serving read mean (ms)"],
        rows, title="Adaptive vs fixed schemes on a two-phase workload"))

    adaptive = results["adaptive"]
    # During ingest, adaptive must beat sync-full's update latency
    # (it switches to async early in the phase)...
    assert adaptive["ingest_update_ms"] < 0.7 * results["full"]["ingest_update_ms"]
    # ...and during serving it has switched back to sync-full: it reads
    # like sync-full, below sync-insert's double-checked reads.
    assert adaptive["serving_read_ms"] <= 1.05 * results["full"]["serving_read_ms"]
    assert adaptive["serving_read_ms"] < results["insert"]["serving_read_ms"]
    # Ingest stays within a modest factor of the per-phase optimum.
    assert adaptive["ingest_update_ms"] < 2.5 * results["async"]["ingest_update_ms"]
