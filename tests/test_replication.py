"""repro.replication: N-way replicas, WAL shipping, promotion.

DESIGN.md §12 invariants under test:

* anti-affinity — a region's leader and followers always live on
  distinct servers, through creation, recovery, splits, and moves;
* promotion loses no acknowledged write and replays only the catch-up
  tail (never the full WAL slice);
* replica coverage — every follower copy holds every write acknowledged
  at or before ``now - staleness_at(now)``, checked on every follower
  (read directly, clients only read leaders) as a property over random
  histories;
* per-link network degradation (FaultPlan.degrade_link) slows exactly
  the targeted replication channel.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (Client, FaultPlan, IndexDescriptor, IndexScheme,
                   MiniCluster, ReplicationConfig, check_index)

relaxed = settings(max_examples=8, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large])

# A follower on a healthy link is at most a few ship intervals (10 ms
# each) behind its leader; 150 ms is the bound the replica-read tests
# hold every follower to.  It is an assertion, not a tuning knob.
STALENESS_BOUND_MS = 150.0


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


def follower_copies(cluster, table, row):
    """Every follower replica of ``row``'s region, read directly."""
    info = cluster.master.locate(table, row)
    assert info.replica_servers, info
    return [cluster.servers[name].follower_regions[info.region_name]
            for name in info.replica_servers]


def assert_followers_hold(cluster, table, row, value):
    """Every follower copy of ``row`` holds ``value`` in column ``c`` and
    is within the staleness bound."""
    now = cluster.sim.now()
    for replica in follower_copies(cluster, table, row):
        assert replica.region.read_row(row)["c"][0] == value, (row, replica)
        assert replica.staleness_at(now) <= STALENESS_BOUND_MS, replica


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
    for i in range(20):
        assert_followers_hold(cluster, "t", b"k%02d" % i, b"v%d" % i)


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
        assert_followers_hold(cluster, "t", b"a%02d" % i,
                              b"pre" if i < 15 else b"post")


class CountingList(list):
    """A WAL region list that counts full walks and sliced elements."""

    def __init__(self, records):
        super().__init__(records)
        self.walks = 0
        self.sliced = []

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def __getitem__(self, index):
        got = super().__getitem__(index)
        if isinstance(index, slice):
            self.sliced.append(len(got))
        return got


def test_ship_reads_only_records_above_the_watermark():
    """A ship costs O(log tail + batch): it bisects the leader's
    seqno-ascending log at the channel's watermark and slices at most
    ``ship_batch_size`` records, never copying or filtering the whole
    un-flushed tail (which made every tick quadratic between flushes)."""
    # A batch smaller than the records one server logs per ship interval
    # (about 120 here), so a tick after a burst finds a backlog.
    cluster = MiniCluster(
        num_servers=4, seed=13,
        replication=ReplicationConfig(replication_factor=3,
                                      ship_batch_size=64)).start()
    cluster.create_table("t", split_keys=[], flush_threshold_bytes=64 << 20)
    client = cluster.new_client()

    def load(prefix, rows):
        # Concurrent one-row puts, so records pile up between ticks.
        puts = [cluster.sim.spawn(client.put(
            "t", b"%s%05d" % (prefix, i), {"c": b"v"}), name="put")
            for i in range(rows)]
        for put in puts:
            cluster.sim.run_until_complete(put)

    load(b"a", 5000)
    cluster.advance(600.0)               # every channel ships the backlog
    [info] = cluster.master.layout["t"]
    leader = cluster.servers[info.server_name]
    tail = CountingList(leader.wal._regions[info.region_name])
    assert len(tail) >= 5000             # nothing flushed or rolled
    leader.wal._regions[info.region_name] = tail
    followers = [cluster.servers[name].follower_regions[info.region_name]
                 for name in info.replica_servers]
    assert [f.applied_seqno for f in followers] == [tail[-1].seqno] * 2

    load(b"b", 300)                      # watermarks now 300 from the end
    cluster.advance(100.0)
    batch_size = cluster.replication.ship_batch_size
    assert tail.walks == 0
    assert tail.sliced and max(tail.sliced) <= batch_size
    assert batch_size in tail.sliced     # the backlog shipped truncated
    assert leader.wal._regions[info.region_name] is tail
    assert [f.applied_seqno for f in followers] == [tail[-1].seqno] * 2


@pytest.mark.parametrize("replication_factor", [1, 3])
def test_wal_region_lists_stay_seqno_ascending_through_failover(
        replication_factor):
    """The ship's bisect and roll_forward's cut both rely on every
    per-region WAL list being strictly seqno-ascending.  Recovery replay
    (rf=1) and promotion (rf=3) re-log a dead leader's slice into a live
    server's WAL beside that server's own traffic; the order must hold on
    every live server afterwards."""
    cluster = build(replication_factor)
    client = cluster.new_client()

    def driver():
        for i in range(120):
            yield from client.put("t", b"o%03d" % i, {"c": b"v"})

    proc = cluster.sim.spawn(driver(), name="workload")
    proc._waited_on = True
    cluster.advance(20.0)                # partway through the workload
    victim = leader_of(cluster, "t", b"o000")
    victim_regions = {info.region_name
                      for info in cluster.master.regions_on(victim)}
    cluster.kill_server(victim)
    while not proc.future.done():
        cluster.advance(50.0)
    wait_recovered(cluster, victim)
    for i in range(20):
        cluster.run(client.put("t", b"z%02d" % i, {"c": b"w"}))
    promotions = cluster.metrics.counter("promotions_total").value
    assert (promotions > 0) == (replication_factor > 1)

    relogged = 0
    for server in cluster.alive_servers():
        for region_name, records in server.wal.split().items():
            seqnos = [r.seqno for r in records]
            assert all(a < b for a, b in zip(seqnos, seqnos[1:])), (
                server.name, region_name)
            relogged += region_name in victim_regions
    assert relogged                      # the re-logged slices were checked


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


def test_kill_leader_mid_concurrent_puts():
    cluster = build()
    client = cluster.new_client()
    items = [(b"b%03d" % i, {"c": b"v%d" % i}) for i in range(150)]
    procs = [cluster.sim.spawn(client.put("t", row, values), name="put")
             for row, values in items]
    for proc in procs:
        proc._waited_on = True
    cluster.advance(0.5)                 # the write RPCs are in flight
    victim = leader_of(cluster, "t", b"b000")
    cluster.kill_server(victim)
    while not all(proc.future.done() for proc in procs):
        cluster.advance(50.0)
    assert all(proc.future.exception() is None for proc in procs)
    timestamps = [proc.future.result() for proc in procs]
    assert all(isinstance(ts, int) for ts in timestamps)
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
    for i in range(60):
        assert_followers_hold(cluster, "t", b"r%05d" % i, b"v")


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
    # and hold everything within bound.
    for i in range(30):
        assert_followers_hold(cluster, "t", b"w%03d" % i, b"v")


# -- replica coverage as a property -----------------------------------------


history_strategy = st.lists(
    st.tuples(st.integers(0, 5),          # row
              st.integers(0, 3),          # value
              st.sampled_from([0.0, 4.0, 25.0])),   # post-ack pause
    min_size=1, max_size=18)


@relaxed
@given(st.integers(0, 2 ** 16), history_strategy)
def test_replica_coverage_respects_staleness(seed, history):
    """The coverage contract behind ``replication_lag_ms``: a follower
    whose staleness is ``s`` holds every write acknowledged at least
    ``s`` ms ago — and on healthy links ``s`` stays within the bound.
    Checked on every follower of the row's region."""
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
    now = cluster.sim.now()
    for row, acks in ack_log.items():
        for replica in follower_copies(cluster, "t", row):
            staleness = replica.staleness_at(now)
            assert staleness <= STALENESS_BOUND_MS, (replica, history)
            floor = max((ts for at, ts in acks if at <= now - staleness),
                        default=None)
            if floor is not None:
                got = replica.region.read_row(row)
                assert got and got["c"][1] >= floor, (row, staleness,
                                                       history)
