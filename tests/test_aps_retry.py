"""APS retry behaviour (§6.2): exponential backoff between redelivery
attempts, capped, and retried-until-success after injected RPC failures."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.core.auq import (APS_RETRY_BACKOFF_CAP_MS, APS_RETRY_BACKOFF_MS,
                            IndexTask, _process_batch)
from repro.errors import ProcessCrashed, RpcError
from repro.obs import MetricsRegistry, Tracer
from repro.sim.kernel import Simulator, Timeout


# ---------------------------------------------------------------------------
# Unit: the backoff schedule, measured on the sim clock
# ---------------------------------------------------------------------------

class _StalenessStub:
    def __init__(self):
        self.records = []

    def record(self, base_ts, completed_at):
        self.records.append((base_ts, completed_at))


class _ClusterStub:
    def __init__(self, sim, registry, target):
        self.sim = sim
        self.metrics = registry
        self.tracer = Tracer(clock=sim.now, registry=registry)
        self.index_by_table = {}    # the stub's ops carry no epoch
        self._target = target

    def locate(self, table, key):
        return self._target, "r1"


class _ServerStub:
    def __init__(self, sim, cluster, registry):
        self.name = "rs1"
        self.sim = sim
        self.alive = True
        self.cluster = cluster
        self.staleness = _StalenessStub()
        self.aps_retries = 0
        self.obs_aps_retries = registry.counter("aps_retries", server="rs1")
        self.obs_auq_lag = registry.histogram("auq_lag_ms", server="rs1")
        self.obs_auq_lag_last = registry.gauge("auq_lag_last_ms",
                                               server="rs1")


class _FlakyCtx:
    """index_ops_batch that fails the first ``failures`` attempts,
    stamping each attempt's sim time."""

    def __init__(self, sim, failures):
        self.sim = sim
        self.failures = failures
        self.attempt_times = []

    def index_ops_batch(self, target, ops):
        self.attempt_times.append(self.sim.now())
        if len(self.attempt_times) <= self.failures:
            raise RpcError("injected delivery failure")
        return
        yield  # pragma: no cover


def _fake_plan(ctx, task, span=None):
    return [("put", "t_ix", b"k1", task.ts)]
    yield  # pragma: no cover


def test_backoff_doubles_from_base_and_caps(monkeypatch):
    monkeypatch.setattr("repro.core.auq.plan_index_ops", _fake_plan)
    sim = Simulator()
    registry = MetricsRegistry()
    cluster = _ClusterStub(sim, registry, target=object())
    server = _ServerStub(sim, cluster, registry)
    failures = 6
    ctx = _FlakyCtx(sim, failures)
    task = IndexTask("t", b"r1", {"c": b"v"}, 0)

    sim.run_until_complete(sim.spawn(_process_batch(server, ctx, [task]),
                                     name="aps"))

    assert len(ctx.attempt_times) == failures + 1   # retried to success
    gaps = [b - a for a, b in zip(ctx.attempt_times, ctx.attempt_times[1:])]
    expected = [min(APS_RETRY_BACKOFF_MS * 2 ** i, APS_RETRY_BACKOFF_CAP_MS)
                for i in range(failures)]
    assert gaps == pytest.approx(expected)
    assert expected[:2] == [APS_RETRY_BACKOFF_MS, 2 * APS_RETRY_BACKOFF_MS]
    assert expected[-1] == APS_RETRY_BACKOFF_CAP_MS   # the cap engaged
    assert server.aps_retries == failures
    assert server.obs_aps_retries.value == failures
    # the task completed exactly once despite the failures
    assert len(server.staleness.records) == 1
    assert server.obs_auq_lag.count == 1


def test_no_failures_means_no_backoff(monkeypatch):
    monkeypatch.setattr("repro.core.auq.plan_index_ops", _fake_plan)
    sim = Simulator()
    registry = MetricsRegistry()
    cluster = _ClusterStub(sim, registry, target=object())
    server = _ServerStub(sim, cluster, registry)
    ctx = _FlakyCtx(sim, failures=0)
    task = IndexTask("t", b"r1", {"c": b"v"}, 0)

    sim.run_until_complete(sim.spawn(_process_batch(server, ctx, [task]),
                                     name="aps"))

    assert len(ctx.attempt_times) == 1
    assert server.aps_retries == 0
    assert sim.now() == ctx.attempt_times[0]   # no backoff sleeps


class _TwoTargetCluster(_ClusterStub):
    """Routes key ``k1`` to one target and every other key to another."""

    def __init__(self, sim, registry):
        super().__init__(sim, registry, target="rs-a")

    def locate(self, table, key):
        return ("rs-a" if key == b"k1" else "rs-b"), "r1"


class _SlowCtx:
    """index_ops_batch that takes 1 ms per delivery and fails each
    target's first ``failures[target]`` attempts."""

    def __init__(self, sim, failures):
        self.sim = sim
        self.failures = dict(failures)
        self.deliveries = []

    def index_ops_batch(self, target, ops):
        yield Timeout(1.0)
        if self.failures.get(target, 0) > 0:
            self.failures[target] -= 1
            raise RpcError("injected delivery failure")
        self.deliveries.append((target, [op[2] for op in ops],
                                self.sim.now()))


def _two_target_plan(ctx, task, span=None):
    return [("del", "t_ix", b"k1", task.ts - 1),
            ("put", "t_ix", b"k2", task.ts)]
    yield  # pragma: no cover


def test_batch_delivers_to_its_targets_in_parallel(monkeypatch):
    monkeypatch.setattr("repro.core.auq.plan_index_ops", _two_target_plan)
    sim = Simulator()
    registry = MetricsRegistry()
    server = _ServerStub(sim, _TwoTargetCluster(sim, registry), registry)
    ctx = _SlowCtx(sim, failures={})
    task = IndexTask("t", b"r1", {"c": b"v"}, 5)

    sim.run_until_complete(sim.spawn(_process_batch(server, ctx, [task]),
                                     name="aps"))

    # Both 1 ms deliveries ran at once: the batch took 1 ms, not 2.
    assert ctx.deliveries == [("rs-a", [b"k1"], 1.0), ("rs-b", [b"k2"], 1.0)]
    assert server.staleness.records == [(task.visible_at, 1.0)]


def test_a_failed_target_retries_alone(monkeypatch):
    monkeypatch.setattr("repro.core.auq.plan_index_ops", _two_target_plan)
    sim = Simulator()
    registry = MetricsRegistry()
    server = _ServerStub(sim, _TwoTargetCluster(sim, registry), registry)
    ctx = _SlowCtx(sim, failures={"rs-b": 1})
    task = IndexTask("t", b"r1", {"c": b"v"}, 5)

    sim.run_until_complete(sim.spawn(_process_batch(server, ctx, [task]),
                                     name="aps"))

    # rs-a landed once; only rs-b's op was re-sent, after one backoff.
    resent_at = 1.0 + APS_RETRY_BACKOFF_MS + 1.0
    assert ctx.deliveries == [("rs-a", [b"k1"], 1.0),
                              ("rs-b", [b"k2"], resent_at)]
    assert server.aps_retries == 1
    assert server.staleness.records == [(task.visible_at, resent_at)]


# ---------------------------------------------------------------------------
# Integration: injected RpcErrors on a real cluster still converge
# ---------------------------------------------------------------------------

def test_aps_retries_until_success_after_injected_failures():
    cluster = MiniCluster(num_servers=3, seed=21).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.ASYNC_SIMPLE))
    fail_budget = {"left": 5}
    for server in cluster.servers.values():
        ctx = server.op_context
        original = ctx.index_ops_batch

        def wrapped(target, ops, _original=original):
            if fail_budget["left"] > 0:
                fail_budget["left"] -= 1
                raise RpcError("injected APS delivery failure")
            result = yield from _original(target, ops)
            return result

        ctx.index_ops_batch = wrapped

    client = cluster.new_client()
    for i in range(10):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"x"}))
    cluster.quiesce()

    assert fail_budget["left"] == 0                 # every failure consumed
    total_retries = sum(s.aps_retries for s in cluster.servers.values())
    assert total_retries == 5
    assert cluster.metrics.total("aps_retries") == 5
    # despite the failures, the index converged — no task was lost
    assert check_index(cluster, "ix").is_consistent


def test_non_routing_error_in_locate_surfaces():
    """Only a stale route is retried.  A routing lookup that fails with
    anything but ``NoSuchTableError``/``NoSuchRegionError`` is a bug, and
    it must crash the APS worker loudly instead of spinning in its retry
    loop (or the index would silently never converge)."""
    cluster = MiniCluster(num_servers=3, seed=21).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.ASYNC_SIMPLE))
    for server in cluster.servers.values():
        server.aps_gate.close()           # hold the task in the AUQ
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"c": b"x"}))
    assert cluster.auq_backlog() == 1

    def broken_locate(table, row):
        raise TypeError("routing bug")

    cluster.locate = broken_locate
    for server in cluster.servers.values():
        server.aps_gate.open()
    with pytest.raises(ProcessCrashed) as crashed:
        cluster.advance(100.0)
    assert isinstance(crashed.value.cause, TypeError)
