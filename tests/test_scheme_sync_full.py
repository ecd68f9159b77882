"""The sync-full scheme (Algorithm 1): causal consistency, δ arithmetic,
concurrent writers, deletes, composite indexes."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.core import encode_value
from repro.core.coprocessor import IndexOpContext
from repro.sim.kernel import Timeout, all_of


@pytest.fixture
def cluster():
    c = MiniCluster(num_servers=3, seed=2).start()
    c.create_table("t")
    c.create_index(IndexDescriptor("ix", "t", ("c",),
                                   scheme=IndexScheme.SYNC_FULL))
    return c


@pytest.fixture
def client(cluster):
    return cluster.new_client()


def hits(cluster, client, value, index="ix"):
    return sorted(h.rowkey for h in
                  cluster.run(client.get_by_index(index, equals=[value])))


def test_insert_creates_entry(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"red"}))
    assert hits(cluster, client, b"red") == [b"r1"]


def test_index_is_consistent_after_every_put(cluster, client):
    for i, value in enumerate([b"a", b"b", b"a", b"c"]):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": value}))
        assert check_index(cluster, "ix").is_consistent


def test_update_moves_entry(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    assert hits(cluster, client, b"old") == []
    assert hits(cluster, client, b"new") == [b"r1"]
    assert check_index(cluster, "ix").is_consistent


def test_update_to_same_value_survives():
    """The §4.3 δ subtlety: when v_new == v_old, the delete at t_new − δ
    must not kill the entry inserted at t_new."""
    cluster = MiniCluster(num_servers=2, seed=3).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_FULL))
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"c": b"same"}))
    cluster.run(client.put("t", b"r1", {"c": b"same"}))
    assert hits(cluster, client, b"same") == [b"r1"]
    assert check_index(cluster, "ix").is_consistent


def test_delete_removes_entry(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"red"}))
    cluster.run(client.delete("t", b"r1", columns=["c"]))
    assert hits(cluster, client, b"red") == []
    assert check_index(cluster, "ix").is_consistent


def test_update_of_unindexed_column_leaves_index_alone(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"red", "other": b"1"}))
    base = cluster.counters.snapshot()
    cluster.run(client.put("t", b"r1", {"other": b"2"}))
    diff = cluster.counters.since(base)
    assert diff.index_put == 0 and diff.index_delete == 0
    assert hits(cluster, client, b"red") == [b"r1"]


def test_many_rows_same_value(cluster, client):
    for i in range(12):
        cluster.run(client.put("t", f"r{i:02d}".encode(), {"c": b"popular"}))
    assert hits(cluster, client, b"popular") == [
        f"r{i:02d}".encode() for i in range(12)]


def test_concurrent_writers_to_same_row_converge(cluster):
    """Row locks serialise the put path per row; whatever order wins, the
    index must agree with the final base value."""
    clients = [cluster.new_client(f"c{i}") for i in range(4)]
    procs = []
    for i, client in enumerate(clients):
        procs.append(cluster.spawn(
            client.put("t", b"contested", {"c": f"v{i}".encode()}),
            name=f"writer{i}"))
    cluster.sim.run_until_complete(all_of(cluster.sim, procs))
    report = check_index(cluster, "ix")
    assert report.is_consistent
    final = cluster.run(clients[0].get("t", b"contested"))["c"][0]
    reader = cluster.new_client("reader")
    assert hits(cluster, reader, final) == [b"contested"]


def test_interleaved_writers_many_rows(cluster):
    clients = [cluster.new_client(f"c{i}") for i in range(3)]

    def worker(client, offset):
        for i in range(15):
            row = f"r{(i + offset) % 10:02d}".encode()
            yield from client.put("t", row,
                                  {"c": f"val{(i * 7 + offset) % 5}".encode()})

    procs = [cluster.spawn(worker(c, i), name=f"w{i}")
             for i, c in enumerate(clients)]
    cluster.sim.run_until_complete(all_of(cluster.sim, procs))
    assert check_index(cluster, "ix").is_consistent


def test_composite_index():
    cluster = MiniCluster(num_servers=2, seed=4).start()
    cluster.create_table("reviews")
    cluster.create_index(IndexDescriptor(
        "by_prod_user", "reviews", ("product", "user"),
        scheme=IndexScheme.SYNC_FULL))
    client = cluster.new_client()
    cluster.run(client.put("reviews", b"r1",
                           {"product": b"A", "user": b"alice"}))
    cluster.run(client.put("reviews", b"r2",
                           {"product": b"A", "user": b"bob"}))
    cluster.run(client.put("reviews", b"r3",
                           {"product": b"B", "user": b"alice"}))
    got = cluster.run(client.get_by_index("by_prod_user",
                                          equals=[b"A", b"alice"]))
    assert [h.rowkey for h in got] == [b"r1"]
    # prefix match on the leading column only
    got = cluster.run(client.get_by_index("by_prod_user", equals=[b"A"]))
    assert sorted(h.rowkey for h in got) == [b"r1", b"r2"]
    assert check_index(cluster, "by_prod_user").is_consistent


def test_range_query_numeric():
    cluster = MiniCluster(num_servers=2, seed=5).start()
    cluster.create_table("items")
    cluster.create_index(IndexDescriptor("by_price", "items", ("price",),
                                         scheme=IndexScheme.SYNC_FULL))
    client = cluster.new_client()
    for i, price in enumerate([1.0, 2.5, 7.25, 10.0, 99.0]):
        cluster.run(client.put("items", f"i{i}".encode(),
                               {"price": encode_value(price)}))
    got = cluster.run(client.get_by_index(
        "by_price", low=encode_value(2.0), high=encode_value(10.0)))
    assert sorted(h.rowkey for h in got) == [b"i1", b"i2", b"i3"]


def test_index_backfill_covers_existing_data():
    cluster = MiniCluster(num_servers=2, seed=6).start()
    cluster.create_table("t")
    client = cluster.new_client()
    for i in range(8):
        cluster.run(client.put("t", f"r{i}".encode(),
                               {"c": f"v{i % 3}".encode()}))
    cluster.create_index(IndexDescriptor("late_ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_FULL),
                         backfill="offline")
    assert check_index(cluster, "late_ix").is_consistent
    got = cluster.run(client.get_by_index("late_ix", equals=[b"v1"]))
    assert sorted(h.rowkey for h in got) == [b"r1", b"r4", b"r7"]


def test_drop_index(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"x"}))
    cluster.drop_index("ix")
    assert not cluster.descriptor("t").has_indexes
    # puts no longer maintain the index
    base = cluster.counters.snapshot()
    cluster.run(client.put("t", b"r2", {"c": b"y"}))
    assert cluster.counters.since(base).index_put == 0


def test_index_survives_flush_and_compaction(cluster, client):
    for round_ in range(5):
        for i in range(10):
            cluster.run(client.put("t", f"r{i}".encode(),
                                   {"c": f"round{round_}".encode(),
                                    "pad": b"x" * 200}))
        # force flushes on every region server
        for server in cluster.servers.values():
            for region in list(server.regions.values()):
                if len(region.tree._memtable) > 0:
                    cluster.run(server.flush_region(region))
    assert check_index(cluster, "ix").is_consistent
    assert hits(cluster, client, b"round4") == [f"r{i}".encode()
                                                for i in range(10)]


def test_read_before_write_touches_disk_only_for_flushed_rows(cluster, client):
    """RB(t − δ) of a row updated since the last flush is decided in the
    memtable — the older flushed copy's file is skipped, not read — and
    pays a block read again once the previous version is disk-resident."""
    def block_reads():
        return (cluster.metrics.total("block_cache_misses"),
                cluster.metrics.total("block_cache_hits"))

    def flush_row_region():
        info = cluster.master.locate("t", b"r1")
        server = cluster.servers[info.server_name]
        cluster.run(server.flush_region(server.regions[info.region_name]))

    cluster.run(client.put("t", b"r1", {"c": b"v0"}))
    flush_row_region()
    cluster.run(client.put("t", b"r1", {"c": b"v1"}))   # RB reads v0 off disk
    before = block_reads()
    cluster.run(client.put("t", b"r1", {"c": b"v2"}))   # RB finds v1 in memory
    assert block_reads() == before
    flush_row_region()
    cluster.run(client.put("t", b"r1", {"c": b"v3"}))
    assert block_reads()[0] >= before[0] + 1
    assert hits(cluster, client, b"v3") == [b"r1"]
    assert check_index(cluster, "ix").is_consistent


def test_same_value_rewrite_keeps_row_visible_to_racing_reader(monkeypatch):
    """A same-value rewrite ships no DI: the task's DI would tombstone the
    very key its PI re-inserts, and with PI beside RB→DI that tombstone
    could land first and hide a row whose value never changed.  PI is
    slowed here so a DI, if one were shipped, would land first."""
    cluster = MiniCluster(num_servers=2, seed=3).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_FULL))
    writer, reader = cluster.new_client("w"), cluster.new_client("r")
    cluster.run(writer.put("t", b"r1", {"c": b"same"}))
    original = IndexOpContext.index_ops_batch

    def slow_pi(self, target, ops, background=True):
        if not background and ops[0][0] == "put":
            yield Timeout(3.0)
        yield from original(self, target, ops, background)

    monkeypatch.setattr(IndexOpContext, "index_ops_batch", slow_pi)
    base = cluster.counters.snapshot()
    put = cluster.spawn(writer.put("t", b"r1", {"c": b"same"}), name="put")
    seen = []

    def poll():
        while not put.future.done():
            hits = yield from reader.get_by_index("ix", equals=[b"same"])
            seen.append([h.rowkey for h in hits])

    cluster.run(poll())
    assert len(seen) > 3
    assert all(rows == [b"r1"] for rows in seen)
    assert cluster.counters.since(base).index_delete == 0
    assert check_index(cluster, "ix").is_consistent


def test_update_waits_for_max_of_pi_and_rb_di(cluster, client):
    """On an idle cluster, with the row's previous version flushed and not
    cached, the put's index maintenance costs max(PI, RB + DI): PI ships
    while RB reads the old value, and DI follows RB."""
    cluster.run(client.put("t", b"r1", {"c": b"v0"}))
    info = cluster.master.locate("t", b"r1")
    server = cluster.servers[info.server_name]
    cluster.run(server.flush_region(server.regions[info.region_name]))
    misses = cluster.metrics.total("block_cache_misses")
    cluster.run(client.put("t", b"r1", {"c": b"v1"}))
    assert cluster.metrics.total("block_cache_misses") > misses  # cold RB
    tracer = cluster.tracer
    [sync] = [s for s in tracer.children_of(tracer.spans("put")[-1])
              if s.name == "sync_index"]
    by_name = {s.name: s for s in tracer.children_of(sync)}
    pi, rb, di = by_name["PI"], by_name["RB"], by_name["DI"]
    assert pi.start_ms < rb.end_ms and rb.start_ms < pi.end_ms   # overlap
    expected = max(pi.duration_ms, rb.duration_ms + di.duration_ms)
    assert sync.duration_ms == pytest.approx(expected, abs=0.01)
    assert sync.duration_ms < pi.duration_ms + rb.duration_ms \
        + di.duration_ms - 0.1
    assert hits(cluster, client, b"v1") == [b"r1"]
