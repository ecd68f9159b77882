"""§6.2 durability: failed synchronous index ops degrade to the AUQ and
are retried to eventual success — the base put is never rolled back."""

import pytest

from repro import (FaultPlan, IndexDescriptor, IndexScheme, MiniCluster,
                   check_index)
from repro.cluster.server import RegionServer
from repro.core.coprocessor import IndexOpContext
from repro.errors import RpcError
from repro.sim.kernel import Future, Timeout
from repro.sim.random import RandomStream


def build(fail_probability, scheme=IndexScheme.SYNC_FULL, seed=21):
    plan = FaultPlan(fail_probability, rng=RandomStream(seed))
    cluster = MiniCluster(num_servers=3, seed=seed,
                          fault_plan=plan).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme))
    return cluster


def run_workload(cluster, n=40):
    client = cluster.new_client()
    rng = RandomStream(5)
    completed = 0
    for i in range(n):
        try:
            cluster.run(client.put(
                "t", f"r{rng.randint(0, 19):02d}".encode(),
                {"c": f"v{rng.randint(0, 4)}".encode()}))
            completed += 1
        except Exception:  # noqa: BLE001 - client-side RPC losses are fine
            pass
    return client, completed


def test_no_faults_nothing_degrades():
    cluster = build(0.0)
    run_workload(cluster)
    assert cluster.counters_degraded == 0
    assert check_index(cluster, "ix").is_consistent


def test_sync_full_degrades_but_converges():
    """With lossy RPC, some sync-full index ops fail mid-flight; the put
    still succeeds and the AUQ heals the index."""
    cluster = build(0.08)
    _client, completed = run_workload(cluster, n=60)
    assert completed > 0
    # Disable faults so retries can land, then drain.
    cluster.network.faults.disable()
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, report
    assert cluster.counters_degraded > 0      # the degrade path fired


def test_sync_insert_degrades_but_never_misses():
    cluster = build(0.08, scheme=IndexScheme.SYNC_INSERT)
    run_workload(cluster, n=60)
    cluster.network.faults.disable()
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert not report.missing   # stale is allowed for sync-insert


def test_async_retries_ride_through_faults():
    """The APS retries with backoff until delivery succeeds."""
    cluster = build(0.15, scheme=IndexScheme.ASYNC_SIMPLE)
    run_workload(cluster, n=40)
    cluster.network.faults.disable()
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, report
    retries = sum(s.aps_retries for s in cluster.servers.values())
    assert retries > 0


def test_network_counts_failures():
    cluster = build(0.3)
    run_workload(cluster, n=30)
    assert cluster.network.failed_rpcs > 0
    assert cluster.network.rpc_count > cluster.network.failed_rpcs


def _inject(monkeypatch, fail=None, delay=None):
    """Make foreground index deliveries misbehave on purpose: the first
    batch of ``fail`` ops ("put" = PI, "del" = DI) is lost 0.05 sim-ms
    into its RPC, and every batch of ``delay`` ops waits 3 sim-ms before
    it is sent.  Returns the log of ``(event, kind, sim time)``, event
    "lost" or "landed"."""
    original = IndexOpContext.index_ops_batch
    log = []

    def index_ops_batch(self, target, ops, background=True):
        kind = ops[0][0]
        if not background and kind == fail and not any(
                event == "lost" for event, _kind, _at in log):
            yield Timeout(0.05)
            log.append(("lost", kind, self.server.sim.now()))
            raise RpcError(f"rpc to {target.name} lost (injected fault)")
        if not background and kind == delay:
            yield Timeout(3.0)
        yield from original(self, target, ops, background)
        if not background:
            log.append(("landed", kind, self.server.sim.now()))

    monkeypatch.setattr(IndexOpContext, "index_ops_batch", index_ops_batch)
    return log


@pytest.mark.parametrize("failing", ["PI", "DI"])
def test_sync_full_failure_while_pi_overlaps_rb_di(monkeypatch, failing):
    """PI ships beside the RB→DI chain.  A lost PI while RB→DI is still
    in flight, or a lost DI while a slow PI is still in flight, must
    degrade the put's task to the AUQ exactly once — never crash the
    simulator with an unjoined branch — and the put returns only after
    the surviving branch has landed."""
    cluster = build(0.0, seed=23)
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    degraded = []
    original = RegionServer.degrade_to_auq

    def degrade_to_auq(self, task):
        degraded.append(task.row)
        original(self, task)

    monkeypatch.setattr(RegionServer, "degrade_to_auq", degrade_to_auq)
    if failing == "PI":
        log = _inject(monkeypatch, fail="put")
    else:
        log = _inject(monkeypatch, fail="del", delay="put")
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    done_at = cluster.sim.now()
    assert degraded == [b"r1"]
    [(_, _, lost_at)] = [entry for entry in log if entry[0] == "lost"]
    [(_, landed, landed_at)] = [entry for entry in log
                                if entry[0] == "landed"]
    assert landed == ("del" if failing == "PI" else "put")
    # The loss happened while the other branch was still in flight, and
    # that branch landed before the put returned.
    assert lost_at < landed_at <= done_at
    monkeypatch.undo()
    cluster.quiesce()
    assert check_index(cluster, "ix").is_consistent
    hits = cluster.run(client.get_by_index("ix", equals=[b"new"]))
    assert [h.rowkey for h in hits] == [b"r1"]
    assert cluster.run(client.get_by_index("ix", equals=[b"old"])) == []


def test_sync_insert_pi_lost_beside_the_base_log_write(monkeypatch):
    """Sync-insert's PI ships beside the base log write.  A PI lost while
    that write is still in flight must degrade the put's task to the AUQ
    exactly once, after the base write, never as an unjoined crash; the
    AUQ then converges the index."""
    cluster = build(0.0, scheme=IndexScheme.SYNC_INSERT, seed=23)
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    degraded = []
    original = RegionServer.degrade_to_auq

    def degrade_to_auq(self, task):
        degraded.append((task.row, self.sim.now()))
        original(self, task)

    monkeypatch.setattr(RegionServer, "degrade_to_auq", degrade_to_auq)
    log = _inject(monkeypatch, fail="put")
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    [(row, degraded_at)] = degraded
    assert row == b"r1"
    [(_, kind, lost_at)] = log
    [wal] = [span for span in cluster.tracer.children_of(
        cluster.tracer.spans("put")[-1]) if span.name == "wal_append"]
    assert kind == "put" and lost_at < wal.end_ms <= degraded_at
    monkeypatch.undo()
    cluster.quiesce()
    assert check_index(cluster, "ix").is_consistent
    hits = cluster.run(client.get_by_index("ix", equals=[b"new"]))
    assert [h.rowkey for h in hits] == [b"r1"]


class _LogDeviceFailed(Exception):
    """An injected base log write failure."""


@pytest.mark.parametrize("pi", ["lands", "lost"])
def test_sync_insert_failed_log_write_settles_pi_under_row_lock(
        monkeypatch, pi):
    """Sync-insert's error path (``HintShip.settle``): the base log write
    of a put fails after its PI was spawned beside it.  The handler must
    wait for the PI, landed or lost, before it releases the row lock, and
    the PI process must not be left for the simulator to report as
    crashed.  The put fails, so the row keeps its old value."""
    cluster = build(0.0, scheme=IndexScheme.SYNC_INSERT, seed=23)
    client = cluster.new_client()
    row = b"r1"
    cluster.run(client.put("t", row, {"c": b"old"}))
    server, region_name = cluster.locate("t", row)
    locks = server.regions[region_name].locks
    device = server.log_device
    original_sync = device.sync

    def failing_sync(records):
        monkeypatch.setattr(device, "sync", original_sync)
        failed = Future()
        failed.set_exception(_LogDeviceFailed("log device write failed"))
        return failed

    monkeypatch.setattr(device, "sync", failing_sync)
    log = _inject(monkeypatch, fail="put" if pi == "lost" else None)
    original_batch = IndexOpContext.index_ops_batch
    held_at_pi_end = []

    def index_ops_batch(self, target, ops, background=True):
        try:
            yield from original_batch(self, target, ops, background)
        finally:
            if not background:
                held_at_pi_end.append(locks.is_held(row))

    monkeypatch.setattr(IndexOpContext, "index_ops_batch", index_ops_batch)
    with pytest.raises(_LogDeviceFailed):
        cluster.run(client.put("t", row, {"c": b"new"}))
    failed_at = cluster.sim.now()
    assert held_at_pi_end == [True]
    assert [event for event, _kind, _at in log] == (
        ["landed"] if pi == "lands" else ["lost"])
    assert all(at <= failed_at for _event, _kind, at in log)
    assert not locks.is_held(row)
    monkeypatch.undo()
    cluster.quiesce()                  # no orphaned ProcessCrashed here
    assert cluster.run(client.get("t", row))["c"][0] == b"old"
    assert [h.rowkey for h in cluster.run(
        client.get_by_index("ix", equals=[b"old"]))] == [row]
    assert cluster.run(client.get_by_index("ix", equals=[b"new"])) == []
    assert not check_index(cluster, "ix").missing
