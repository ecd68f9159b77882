"""repro.replication: N-way replicas, spectrum-aware reads, promotion.

DESIGN.md §12 invariants under test:

* anti-affinity — a region's leader and followers always live on
  distinct servers, through creation, recovery, splits, and moves;
* promotion loses no acknowledged write and replays only the catch-up
  tail (never the full WAL slice);
* follower reads honour the advertised staleness bound — the bound is
  a guarantee, checked here as a property over random histories;
* quorum reads are leader-authoritative and read-repair lagging
  followers;
* per-link network degradation (FaultPlan.degrade_link) slows exactly
  the targeted replication channel.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (Client, FaultPlan, IndexDescriptor, IndexScheme,
                   LatencyBound, MiniCluster, ReadMode, ReplicationConfig,
                   check_index)

relaxed = settings(max_examples=8, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large])


def build(replication_factor=3, num_servers=4, scheme=None,
          split_keys=(b"m",), seed=13, **kwargs):
    kwargs.setdefault("heartbeat_timeout_ms", 800.0)
    cluster = MiniCluster(
        num_servers=num_servers, seed=seed,
        replication=ReplicationConfig(replication_factor=replication_factor),
        **kwargs).start()
    cluster.create_table("t", split_keys=list(split_keys))
    if scheme is not None:
        cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                             scheme=scheme))
    return cluster


def wait_recovered(cluster, victim):
    while victim not in cluster.coordinator.recoveries_completed:
        cluster.advance(100.0)


def leader_of(cluster, table, row):
    return cluster.master.locate(table, row).server_name


def assert_anti_affine(cluster):
    """The replica-placement invariant: no duplicates, never the leader,
    every follower host actually holds the replica."""
    for infos in cluster.master.layout.values():
        for info in infos:
            assert info.server_name not in info.replica_servers, info
            assert (len(set(info.replica_servers))
                    == len(info.replica_servers)), info
            for name in info.replica_servers:
                follower = cluster.servers[name]
                assert info.region_name in follower.follower_regions, info


# -- replica placement ------------------------------------------------------


def test_every_region_gets_anti_affine_followers():
    cluster = build()
    for infos in cluster.master.layout.values():
        for info in infos:
            assert len(info.replica_servers) == 2, info
    assert_anti_affine(cluster)


def test_rf1_has_no_followers_and_no_ship_loops():
    cluster = build(replication_factor=1)
    for infos in cluster.master.layout.values():
        for info in infos:
            assert info.replica_servers == []
    for server in cluster.servers.values():
        assert server.follower_regions == {}


def test_under_replication_degrades_gracefully():
    """rf=3 on a 2-server cluster: one follower is the best we can do
    without violating anti-affinity."""
    cluster = build(num_servers=2)
    for infos in cluster.master.layout.values():
        for info in infos:
            assert len(info.replica_servers) == 1
    assert_anti_affine(cluster)


# -- WAL shipping -----------------------------------------------------------


def test_followers_apply_shipped_writes():
    cluster = build()
    client = cluster.new_client()
    for i in range(20):
        cluster.run(client.put("t", b"k%02d" % i, {"c": b"v%d" % i}))
    cluster.advance(100.0)               # several ship intervals
    for infos in cluster.master.layout.values():
        for info in infos:
            for name in info.replica_servers:
                replica = cluster.servers[name].follower_regions[
                    info.region_name]
                assert replica.applied_seqno > 0 or not any(
                    info.key_range.contains(b"k%02d" % i)
                    for i in range(20))
    row = cluster.run(client.get("t", b"k07", read_mode=ReadMode.FOLLOWER))
    assert row["c"] == (b"v7", row["c"][1])
    assert (client.last_read_staleness_ms
            <= cluster.replication.max_staleness_ms)


def test_follower_survives_leader_flush():
    """A flush rolls the leader's WAL; the piggybacked flush point makes
    followers re-link the store files, so nothing shipped is lost."""
    cluster = build()
    client = cluster.new_client()
    for i in range(15):
        cluster.run(client.put("t", b"a%02d" % i, {"c": b"pre"}))
    victim = leader_of(cluster, "t", b"a00")
    server = cluster.servers[victim]
    for region in list(server.regions.values()):
        if region.table.name == "t" and len(region.tree._memtable) > 0:
            cluster.run(server.flush_region(region))
    for i in range(15, 25):
        cluster.run(client.put("t", b"a%02d" % i, {"c": b"post"}))
    cluster.advance(100.0)
    for i in range(25):
        row = cluster.run(client.get("t", b"a%02d" % i,
                                     read_mode=ReadMode.FOLLOWER))
        assert row["c"][0] == (b"pre" if i < 15 else b"post")


# -- promotion-based failover ----------------------------------------------


def test_promotion_preserves_acked_writes():
    """Kill a leader mid-workload: every acknowledged put must survive
    the promotion (acks ride the leader WAL; promotion re-logs it)."""
    cluster = build()
    client = cluster.new_client()
    acked = []

    def driver():
        for i in range(120):
            row = b"p%03d" % i
            ts = yield from client.put("t", row, {"c": b"v%d" % i})
            acked.append((row, ts))

    proc = cluster.sim.spawn(driver(), name="workload")
    proc._waited_on = True
    cluster.advance(20.0)                # partway through the workload
    assert 0 < len(acked) < 120
    victim = leader_of(cluster, "t", b"p000")
    led_before = len(cluster.master.regions_on(victim))
    cluster.kill_server(victim)
    while not proc.future.done():
        cluster.advance(50.0)
    assert proc.future.exception() is None
    wait_recovered(cluster, victim)
    assert len(acked) == 120
    for row, ts in acked:
        got = cluster.run(client.get("t", row))
        assert got and got["c"][1] >= ts, row
    # Every region the victim led had live followers -> promotion, not
    # full WAL replay.
    assert (cluster.metrics.counter("promotions_total").value
            == led_before > 0)
    assert_anti_affine(cluster)


def test_kill_leader_mid_batch_put():
    cluster = build()
    client = cluster.new_client()
    items = [(b"b%03d" % i, {"c": b"v%d" % i}) for i in range(150)]
    proc = cluster.sim.spawn(client.batch_put("t", items), name="batch")
    proc._waited_on = True
    cluster.advance(0.5)                 # multi_put RPCs are in flight
    victim = leader_of(cluster, "t", b"b000")
    cluster.kill_server(victim)
    while not proc.future.done():
        cluster.advance(50.0)
    assert proc.future.exception() is None
    timestamps = proc.future.result()
    assert len(timestamps) == 150 and all(ts is not None
                                          for ts in timestamps)
    wait_recovered(cluster, victim)
    for (row, values), ts in zip(items, timestamps):
        got = cluster.run(client.get("t", row))
        assert got and got["c"][1] >= ts, row
    assert cluster.metrics.counter("promotions_total").value > 0


def test_kill_leader_mid_online_backfill():
    """Promotion mid-DDL: the backfill job rides out the failover and
    still converges to an exactly-consistent index."""
    cluster = build()
    client = cluster.new_client()
    for i in range(120):
        cluster.run(client.put("t", b"d%03d" % i, {"c": b"x%d" % (i % 5)}))
    job = cluster.create_index_online(IndexDescriptor(
        "ix", "t", ("c",), scheme=IndexScheme.SYNC_FULL))
    cluster.advance(5.0)                 # a chunk or two lands
    victim = leader_of(cluster, "t", b"d000")
    cluster.kill_server(victim)
    wait_recovered(cluster, victim)
    cluster.run(job.wait())
    cluster.quiesce()
    assert check_index(cluster, "ix").is_consistent
    assert cluster.metrics.counter("promotions_total").value > 0


def test_promotion_replays_tail_only_after_flush():
    """Flushed-and-shipped data must come from the store files, not a
    replay: after a flush the catch-up tail is only the post-flush
    writes, yet everything stays readable."""
    cluster = build()
    client = cluster.new_client()
    for i in range(30):
        cluster.run(client.put("t", b"f%03d" % i, {"c": b"old"}))
    victim = leader_of(cluster, "t", b"f000")
    server = cluster.servers[victim]
    for region in list(server.regions.values()):
        if region.table.name == "t" and len(region.tree._memtable) > 0:
            cluster.run(server.flush_region(region))
    cluster.advance(50.0)                # followers see the flush point
    for i in range(30, 40):
        cluster.run(client.put("t", b"f%03d" % i, {"c": b"new"}))
    cluster.kill_server(victim)
    wait_recovered(cluster, victim)
    for i in range(40):
        got = cluster.run(client.get("t", b"f%03d" % i))
        assert got["c"][0] == (b"old" if i < 30 else b"new")
    assert cluster.metrics.counter("promotions_total").value > 0


def test_promotion_beats_full_wal_replay_on_client_felt_unavailability():
    """The same kill-the-leader history at rf=1 (classic recovery: reopen
    the region, replay its whole WAL slice) and at rf=3 (promote the most
    caught-up follower, replay only the tail).  Unavailability is what a
    client feels — a tight-backoff probe read of the dead leader's range
    issued right after the kill — so both runs pay the same failure
    detection and the difference is the recovery work itself."""
    def unavailability(replication_factor):
        cluster = build(replication_factor, split_keys=(), seed=29,
                        heartbeat_timeout_ms=400.0)
        client = cluster.new_client()

        def load():
            for i in range(800):
                yield from client.put("t", b"r%04d" % i, {"c": b"v" * 16})
        cluster.run(load())
        cluster.advance(100.0)           # followers catch up
        victim = leader_of(cluster, "t", b"r0000")
        killed_at = cluster.sim.now()
        cluster.kill_server(victim)
        probe = Client(cluster, name="probe", retry_backoff_ms=5.0)
        got = cluster.run(probe.get("t", b"r0000"))
        assert got["c"][0] == b"v" * 16
        return (cluster.sim.now() - killed_at,
                cluster.metrics.counter("promotions_total").value)

    replay_ms, replay_promotions = unavailability(1)
    promotion_ms, promotions = unavailability(3)
    assert replay_promotions == 0 and promotions >= 1
    assert replay_ms - promotion_ms >= 10.0, (replay_ms, promotion_ms)


def test_anti_affinity_survives_repeated_failures():
    cluster = build(num_servers=5)
    client = cluster.new_client()
    for i in range(20):
        cluster.run(client.put("t", b"k%02d" % i, {"c": b"v"}))
    for victim in list(cluster.servers)[:2]:
        cluster.kill_server(victim)
        wait_recovered(cluster, victim)
        assert_anti_affine(cluster)
    for i in range(20):
        assert cluster.run(client.get("t", b"k%02d" % i))["c"][0] == b"v"


# -- read modes -------------------------------------------------------------


def test_quorum_read_repairs_stale_follower():
    cluster = build(split_keys=())       # one region: predictable links
    client = cluster.new_client()
    cluster.run(client.put("t", b"q1", {"c": b"seed"}))
    cluster.advance(100.0)               # followers fully caught up
    [info] = cluster.master.layout["t"]
    for name in info.replica_servers:
        cluster.network.faults.degrade_link(info.server_name, name, 5_000.0)
    cluster.run(client.put("t", b"q1", {"c": b"fresh"}))
    got = cluster.run(client.get("t", b"q1", read_mode=ReadMode.QUORUM))
    assert got["c"][0] == b"fresh"       # leader-authoritative
    repaired = sum(s.obs_quorum_repairs.value
                   for s in cluster.servers.values())
    assert repaired > 0
    # The repair is already in the follower memtables, even though the
    # ship channel is still degraded.
    for name in info.replica_servers:
        replica = cluster.servers[name].follower_regions[info.region_name]
        assert replica.region.read_row(b"q1")["c"][0] == b"fresh"
    cluster.network.faults.clear_link()


def test_follower_read_falls_back_to_leader_when_too_stale():
    cluster = build(split_keys=())
    client = cluster.new_client()
    cluster.run(client.put("t", b"s1", {"c": b"seed"}))
    cluster.advance(100.0)
    [info] = cluster.master.layout["t"]
    for name in info.replica_servers:
        cluster.network.faults.degrade_link(info.server_name, name, 5_000.0)
    cluster.advance(500.0)               # lag exceeds the default bound
    got = cluster.run(client.get("t", b"s1", read_mode=ReadMode.FOLLOWER))
    assert got["c"][0] == b"seed"
    assert client.last_read_staleness_ms == 0.0   # the leader served it
    reads = sum(s.obs_follower_reads.value for s in cluster.servers.values())
    assert reads > 0                     # the followers WERE consulted


def test_latency_bound_read_prefers_fast_admissible_replica():
    cluster = build(split_keys=())
    client = cluster.new_client()
    cluster.run(client.put("t", b"l1", {"c": b"v"}))
    cluster.advance(100.0)
    bound = LatencyBound(budget_ms=50.0, max_staleness_ms=1_000.0)
    got = cluster.run(client.get("t", b"l1", read_mode=bound))
    assert got["c"][0] == b"v"
    assert client.last_read_staleness_ms <= 1_000.0


def test_latency_bound_read_waits_for_leader_when_followers_stale():
    cluster = build(split_keys=())
    client = cluster.new_client()
    cluster.run(client.put("t", b"l2", {"c": b"seed"}))
    cluster.advance(100.0)
    [info] = cluster.master.layout["t"]
    for name in info.replica_servers:
        cluster.network.faults.degrade_link(info.server_name, name, 5_000.0)
    cluster.advance(800.0)               # followers now badly stale
    bound = LatencyBound(budget_ms=2.0, max_staleness_ms=10.0)
    got = cluster.run(client.get("t", b"l2", read_mode=bound))
    assert got["c"][0] == b"seed"
    assert client.last_read_staleness_ms == 0.0


def test_default_read_mode_on_client():
    cluster = build(split_keys=())
    client = cluster.new_client(read_mode=ReadMode.FOLLOWER)
    cluster.run(client.put("t", b"m1", {"c": b"v"}))
    cluster.advance(100.0)
    got = cluster.run(client.get("t", b"m1"))
    assert got["c"][0] == b"v"
    reads = sum(s.obs_follower_reads.value for s in cluster.servers.values())
    assert reads > 0


# -- per-link degradation (FaultPlan) ---------------------------------------


def test_degrade_link_slows_only_target_channel():
    plan = FaultPlan(0.0)
    plan.degrade_link("rs1", "rs2", 40.0)
    assert plan.link_extra_ms("rs1", "rs2") == 40.0
    assert plan.link_extra_ms("rs2", "rs1") == 0.0
    assert plan.link_extra_ms(None, "rs2") == 0.0
    with pytest.raises(ValueError):
        plan.degrade_link("rs1", "rs2", -1.0)
    plan.clear_link("rs1", "rs2")
    assert plan.link_extra_ms("rs1", "rs2") == 0.0


def test_degraded_replication_link_grows_measured_lag():
    cluster = build(split_keys=())
    client = cluster.new_client()
    cluster.run(client.put("t", b"g1", {"c": b"v"}))
    cluster.advance(100.0)
    [info] = cluster.master.layout["t"]
    target = info.replica_servers[0]
    replica = cluster.servers[target].follower_regions[info.region_name]
    fresh = replica.staleness_at(cluster.sim.now())
    cluster.network.faults.degrade_link(info.server_name, target, 10_000.0)
    cluster.advance(700.0)
    stale = replica.staleness_at(cluster.sim.now())
    assert stale > fresh + 500.0         # heartbeats stuck on the slow link
    # The OTHER follower's channel is untouched and stays fresh.
    other = cluster.servers[info.replica_servers[1]].follower_regions[
        info.region_name]
    assert other.staleness_at(cluster.sim.now()) < 100.0


# -- placement interplay ----------------------------------------------------


def test_split_splits_all_replicas():
    from repro.placement.jobs import SplitPhase
    cluster = build(split_keys=())
    client = cluster.new_client()
    for i in range(60):
        cluster.run(client.put("t", b"r%05d" % i,
                               {"c": b"v", "pad": b"x" * 48}))
    cluster.advance(50.0)
    [info] = cluster.master.layout["t"]
    job = cluster.placement.request_split("t", info.region_name)
    assert cluster.run(job.wait()).phase is SplitPhase.DONE
    assert len(cluster.master.layout["t"]) == 2
    for daughter in cluster.master.layout["t"]:
        assert len(daughter.replica_servers) == 2, daughter
    assert_anti_affine(cluster)
    # The parent's follower replicas are gone from every server.
    for server in cluster.servers.values():
        assert info.region_name not in server.follower_regions
    row = cluster.run(client.get("t", b"r00007",
                                 read_mode=ReadMode.FOLLOWER))
    assert row["c"][0] == b"v"


def test_move_region_resyncs_followers_and_respects_anti_affinity():
    cluster = build(split_keys=())
    client = cluster.new_client()
    for i in range(30):
        cluster.run(client.put("t", b"w%03d" % i, {"c": b"v"}))
    cluster.advance(50.0)
    [info] = cluster.master.layout["t"]
    # Moving onto a follower would co-locate two copies: rejected.
    follower_name = info.replica_servers[0]
    assert not cluster.run(cluster.placement.move_region(
        "t", info.region_name, follower_name))
    free = next(name for name in cluster.servers
                if name != info.server_name
                and name not in info.replica_servers)
    assert cluster.run(cluster.placement.move_region(
        "t", info.region_name, free))
    assert cluster.master.layout["t"][0].server_name == free
    assert_anti_affine(cluster)
    # The close+flush made the store complete; followers hard-resynced
    # and serve everything within bound.
    for i in range(30):
        row = cluster.run(client.get("t", b"w%03d" % i,
                                     read_mode=ReadMode.FOLLOWER))
        assert row["c"][0] == b"v"
        assert (client.last_read_staleness_ms
                <= cluster.replication.max_staleness_ms)


# -- bounded staleness as a property ----------------------------------------


history_strategy = st.lists(
    st.tuples(st.integers(0, 5),          # row
              st.integers(0, 3),          # value
              st.sampled_from([0.0, 4.0, 25.0])),   # post-ack pause
    min_size=1, max_size=18)


@relaxed
@given(st.integers(0, 2 ** 16), history_strategy)
def test_follower_reads_respect_staleness_bound(seed, history):
    """The bounded-staleness contract: a follower read advertising
    staleness ``s`` includes every write acknowledged at least ``s`` ms
    before the read was issued — and ``s`` never exceeds the bound."""
    rows = [b"r%d" % i for i in range(6)]
    values = [b"v%d" % i for i in range(4)]
    cluster = build(split_keys=(), seed=seed)
    client = cluster.new_client()
    ack_log = {}
    for row_idx, value_idx, pause in history:
        ts = cluster.run(client.put("t", rows[row_idx],
                                    {"c": values[value_idx]}))
        ack_log.setdefault(rows[row_idx], []).append(
            (cluster.sim.now(), ts))
        if pause:
            cluster.advance(pause)
    for row, acks in ack_log.items():
        issued_at = cluster.sim.now()
        got = cluster.run(client.get("t", row, read_mode=ReadMode.FOLLOWER))
        staleness = client.last_read_staleness_ms
        assert staleness <= cluster.replication.max_staleness_ms
        floor = max((ts for at, ts in acks if at <= issued_at - staleness),
                    default=None)
        if floor is not None:
            assert got and got["c"][1] >= floor, (row, staleness, history)
