"""Adaptive scheme selection (§10 future work) and runtime scheme switching."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.core import AdaptiveController, AdaptivePolicy, ConsistencyLevel


@pytest.fixture
def cluster():
    c = MiniCluster(num_servers=2, seed=22).start()
    c.create_table("t")
    c.create_index(IndexDescriptor("ix", "t", ("c",),
                                   scheme=IndexScheme.SYNC_FULL))
    return c


# -- runtime scheme switching ----------------------------------------------------

def alter(cluster, scheme):
    """ALTER ``ix`` to ``scheme`` and run the online job to its end."""
    job = cluster.change_index_scheme("ix", scheme)
    if job is not None:
        cluster.run(job.wait())
    return job


def test_change_scheme_updates_catalog(cluster):
    alter(cluster, IndexScheme.ASYNC_SIMPLE)
    assert cluster.index_descriptor("ix").scheme is IndexScheme.ASYNC_SIMPLE


def test_change_scheme_changes_put_behaviour(cluster):
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"c": b"a"}))   # sync-full: 1 read
    alter(cluster, IndexScheme.SYNC_INSERT)
    base = cluster.counters.snapshot()
    cluster.run(client.put("t", b"r1", {"c": b"b"}))
    diff = cluster.counters.since(base)
    assert diff.base_read == 0       # sync-insert skips SU3
    assert diff.index_put == 1


def test_switch_from_sync_insert_scrubs_stale(cluster):
    client = cluster.new_client()
    alter(cluster, IndexScheme.SYNC_INSERT)
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    assert len(check_index(cluster, "ix").stale) == 1
    alter(cluster, IndexScheme.SYNC_FULL)
    # The scrub removed the stale entry, so trusting reads are safe:
    assert check_index(cluster, "ix").is_consistent
    got = cluster.run(client.get_by_index("ix", equals=[b"old"]))
    assert got == []


def test_switch_to_async_then_back_converges(cluster):
    client = cluster.new_client()
    alter(cluster, IndexScheme.ASYNC_SIMPLE)
    for i in range(10):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"x"}))
    alter(cluster, IndexScheme.SYNC_FULL)
    cluster.quiesce()    # pending AUQ deliveries are idempotent and safe
    assert check_index(cluster, "ix").is_consistent


def test_change_to_same_scheme_is_noop(cluster):
    assert alter(cluster, IndexScheme.SYNC_FULL) is None
    assert cluster.index_descriptor("ix").scheme is IndexScheme.SYNC_FULL


# -- controller decision logic -------------------------------------------------------

def controller(cluster, consistency=ConsistencyLevel.EVENTUAL, **kwargs):
    policy = AdaptivePolicy(min_ops_to_act=10, cooldown_ops=10,
                            window_ops=50)
    return AdaptiveController(cluster, "ix", consistency, policy=policy,
                              **kwargs)


def feed(ctrl, updates, reads):
    for _ in range(updates):
        ctrl.observe_update()
    for _ in range(reads):
        ctrl.observe_read()


def test_write_heavy_eventual_prefers_async(cluster):
    ctrl = controller(cluster)
    feed(ctrl, updates=45, reads=5)
    assert ctrl.recommend() is IndexScheme.ASYNC_SIMPLE


def test_read_heavy_prefers_sync_full(cluster):
    ctrl = controller(cluster)
    feed(ctrl, updates=5, reads=45)
    assert ctrl.recommend() is IndexScheme.SYNC_FULL


def test_causal_requirement_never_picks_async(cluster):
    ctrl = controller(cluster, consistency=ConsistencyLevel.CAUSAL)
    feed(ctrl, updates=45, reads=5)
    assert ctrl.recommend() is IndexScheme.SYNC_INSERT


def test_read_your_writes_pins_session(cluster):
    ctrl = controller(cluster, needs_read_your_writes=True)
    feed(ctrl, updates=45, reads=5)
    assert ctrl.recommend() is IndexScheme.ASYNC_SESSION


def test_mixed_zone_has_hysteresis(cluster):
    ctrl = controller(cluster)
    feed(ctrl, updates=25, reads=25)     # half and half
    assert ctrl.recommend() is ctrl.current_scheme()


def test_evaluate_acts_and_respects_cooldown(cluster):
    ctrl = controller(cluster)
    feed(ctrl, updates=45, reads=5)
    decision = ctrl.evaluate()
    assert decision.acted and decision.recommended is IndexScheme.ASYNC_SIMPLE
    cluster.run(ctrl.jobs[-1].wait())
    assert cluster.index_descriptor("ix").scheme is IndexScheme.ASYNC_SIMPLE
    # Immediately feeding the opposite profile does nothing (cooldown).
    feed(ctrl, reads=5, updates=0)
    decision = ctrl.evaluate()
    assert not decision.acted


def test_evaluate_needs_minimum_sample(cluster):
    ctrl = controller(cluster)
    feed(ctrl, updates=5, reads=0)
    assert not ctrl.evaluate().acted    # below min_ops_to_act


def test_adaptive_end_to_end_switches_with_workload(cluster):
    """Write-heavy phase → async; read-heavy phase → sync-full; the index
    stays correct throughout."""
    client = cluster.new_client()
    ctrl = controller(cluster)

    for i in range(40):
        cluster.run(client.put("t", f"r{i % 8}".encode(),
                               {"c": f"v{i % 3}".encode()}))
        ctrl.observe_update()
        ctrl.evaluate()
    assert cluster.index_descriptor("ix").scheme is IndexScheme.ASYNC_SIMPLE

    for i in range(60):
        cluster.run(client.get_by_index("ix", equals=[f"v{i % 3}".encode()]))
        ctrl.observe_read()
        ctrl.evaluate()
    for job in ctrl.jobs:
        cluster.run(job.wait())
    assert cluster.index_descriptor("ix").scheme is IndexScheme.SYNC_FULL
    cluster.quiesce()
    assert check_index(cluster, "ix").is_consistent
    assert len(ctrl.switches) >= 2
