"""The validation scheme (DESIGN.md §14): blind ship, read-time filter
(no repair), background cleaner GC."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.core.verify import actual_entries


@pytest.fixture
def cluster():
    c = MiniCluster(num_servers=3, seed=11).start()
    c.create_table("t")
    c.create_index(IndexDescriptor("ix", "t", ("c",),
                                   scheme=IndexScheme.VALIDATION))
    return c


@pytest.fixture
def client(cluster):
    return cluster.new_client()


def hits(cluster, client, value):
    return sorted(h.rowkey for h in
                  cluster.run(client.get_by_index("ix", equals=[value])))


def test_insert_visible_after_quiesce(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"red"}))
    cluster.quiesce()       # blind ships are asynchronous deliveries
    assert hits(cluster, client, b"red") == [b"r1"]


def test_put_acks_without_foreground_index_work(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"a"}))
    cluster.quiesce()
    base = cluster.counters.snapshot()
    cluster.run(client.put("t", b"r1", {"c": b"b"}))
    diff = cluster.counters.since(base)
    # Nothing on the ack path: no read-back, no synchronous index write.
    assert diff.base_read == 0
    assert diff.index_put == 0
    assert diff.index_delete == 0
    cluster.quiesce()
    diff = cluster.counters.since(base)
    assert diff.async_index_put == 1       # the blind ship landed
    assert diff.async_index_delete == 0    # ...and shipped no delete


def test_update_cheaper_than_sync_insert():
    def put_cost(scheme):
        c = MiniCluster(num_servers=3, seed=3).start()
        c.create_table("t")
        c.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme))
        cl = c.new_client()
        c.run(cl.put("t", b"r1", {"c": b"a"}))
        t0 = c.sim.now()
        c.run(cl.put("t", b"r1", {"c": b"b"}))
        return c.sim.now() - t0

    assert (put_cost(IndexScheme.VALIDATION)
            < put_cost(IndexScheme.SYNC_INSERT))


def test_warm_read_within_twice_sync_full():
    """The read-time base check is one extra scatter round: with the
    validated rows cache-resident, a K=5 lookup stays within 2x the
    sync-full read that trusts its index."""
    def read_cost(scheme):
        c = MiniCluster(num_servers=3, seed=3).start()
        c.create_table("t")
        c.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme))
        cl = c.new_client()
        for i in range(5):
            c.run(cl.put("t", b"r%d" % i, {"c": b"a"}))
        c.quiesce()
        c.run(cl.get_by_index("ix", equals=[b"a"]))      # warm the cache
        t0 = c.sim.now()
        assert len(c.run(cl.get_by_index("ix", equals=[b"a"]))) == 5
        return c.sim.now() - t0

    assert (read_cost(IndexScheme.VALIDATION)
            <= 2.0 * read_cost(IndexScheme.SYNC_FULL))


def test_stale_entry_filtered_never_served(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    cluster.quiesce()
    assert len(check_index(cluster, "ix").stale) == 1
    assert hits(cluster, client, b"old") == []
    assert hits(cluster, client, b"new") == [b"r1"]
    tracker = cluster.staleness
    assert tracker.stale_filtered >= 1
    assert tracker.stale_served == 0


def test_filter_is_selective(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"v"}))   # stays at v
    cluster.run(client.put("t", b"r2", {"c": b"v"}))
    cluster.run(client.put("t", b"r2", {"c": b"w"}))   # r2's v goes stale
    cluster.quiesce()
    assert hits(cluster, client, b"v") == [b"r1"]


def test_read_counters(cluster, client):
    for i in range(4):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"v"}))
    cluster.quiesce()
    assert len(hits(cluster, client, b"v")) == 4
    metrics = cluster.metrics
    assert metrics.total("validation_hits_validated_total") == 4
    assert metrics.total("validation_hits_filtered_total") == 0


def test_cleaner_purges_discovered_entries(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    cluster.quiesce()
    assert hits(cluster, client, b"old") == []    # discovers + notes it
    cluster.quiesce()                             # cleaner drains backlog
    assert check_index(cluster, "ix").is_consistent
    assert cluster.metrics.total("validation_cleaner_purged_total") == 1
    assert cluster.metrics.total("validation_hits_filtered_total") == 1
    assert cluster.staleness.stale_debt == 0      # purge settles the debt


def test_undiscovered_stale_entries_persist(cluster, client):
    """Without a read touching them, stale entries stay (GC is driven by
    discovery or by index-region compaction — never by the read itself)."""
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    cluster.quiesce()
    index = cluster.index_descriptor("ix")
    assert len(actual_entries(cluster, index)) == 2
    assert cluster.metrics.total("validation_cleaner_purged_total") == 0


def test_delete_filtered_on_read(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"red"}))
    cluster.run(client.delete("t", b"r1", columns=["c"]))
    cluster.quiesce()
    assert hits(cluster, client, b"red") == []
    cluster.quiesce()
    assert check_index(cluster, "ix").is_consistent


def test_kill_server_mid_write_converges():
    cluster = MiniCluster(num_servers=3, seed=5).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.VALIDATION))
    client = cluster.new_client()

    def half(lo, hi):
        for i in range(lo, hi):
            yield from client.put("t", f"r{i:03d}".encode(),
                                  {"c": f"v{i % 4}".encode()})

    cluster.run(half(0, 20), name="w1")
    victim = sorted(cluster.servers)[1]
    cluster.kill_server(victim)
    cluster.run(half(20, 40), name="w2")
    while victim not in cluster.coordinator.recoveries_completed:
        cluster.advance(200.0)
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert not report.missing, report
    for i in (0, 19, 20, 39):
        got = sorted(h.rowkey for h in cluster.run(
            client.get_by_index("ix", equals=[f"v{i % 4}".encode()])))
        assert f"r{i:03d}".encode() in got


def test_online_alter_insert_to_validation_to_async():
    """sync-insert -> validation is lazy -> lazy (no scrub, stale entries
    stay tolerated); validation -> async leaves the lazy family and must
    scrub, after which the index is exactly consistent."""
    cluster = MiniCluster(num_servers=3, seed=9).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_INSERT))
    client = cluster.new_client()
    for i in range(8):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"a"}))
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"b"}))
    assert len(check_index(cluster, "ix").stale) == 8

    job = cluster.change_index_scheme("ix", IndexScheme.VALIDATION,
                                      online=True)
    if job is not None:
        cluster.run(job.wait())
    assert cluster.index_descriptor("ix").scheme is IndexScheme.VALIDATION
    # lazy -> lazy never scrubs: the stale entries are still there...
    assert len(check_index(cluster, "ix").stale) == 8
    # ...but the validation read filters them.
    assert hits(cluster, client, b"a") == []
    assert len(hits(cluster, client, b"b")) == 8

    job = cluster.change_index_scheme("ix", IndexScheme.ASYNC_SIMPLE,
                                      online=True)
    if job is not None:
        cluster.run(job.wait())
    cluster.quiesce()
    assert cluster.index_descriptor("ix").scheme is IndexScheme.ASYNC_SIMPLE
    assert check_index(cluster, "ix").is_consistent


def test_planner_surfaces_base_check():
    from repro.query import Eq, plan_query
    cluster = MiniCluster(num_servers=2, seed=2).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.VALIDATION))
    plan = plan_query(cluster, "t", Eq("c", b"x"))
    assert plan.access_path == "index"
    assert "WITH BASE CHECK (validation)" in plan.describe()


def test_purge_discovered_entries_foreground(cluster, client):
    from repro.core.maintenance import purge_discovered_entries
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    cluster.quiesce()
    hits(cluster, client, b"old")
    purged = cluster.run(purge_discovered_entries(cluster, client))
    assert purged + int(
        cluster.metrics.total("validation_cleaner_purged_total")) >= 1
    assert cluster.validation_cleaner.backlog == 0
    assert check_index(cluster, "ix").is_consistent
