"""The async-simple scheme (Algorithms 3 & 4): eventual consistency, AUQ
behaviour, batching, out-of-order APS delivery."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.ycsb import ItemSchema, load_direct


def make_cluster(**kwargs):
    c = MiniCluster(num_servers=3, seed=9, **kwargs).start()
    c.create_table("t")
    c.create_index(IndexDescriptor("ix", "t", ("c",),
                                   scheme=IndexScheme.ASYNC_SIMPLE))
    return c


def hits(cluster, client, value):
    return sorted(h.rowkey for h in
                  cluster.run(client.get_by_index("ix", equals=[value])))


def test_put_acks_before_index_update():
    cluster = make_cluster()
    client = cluster.new_client()
    for server in cluster.servers.values():
        server.aps_gate.close()       # hold the window open
    cluster.run(client.put("t", b"r1", {"c": b"red"}))
    # The put has been acknowledged, but the index shows nothing yet:
    assert hits(cluster, client, b"red") == []
    report = check_index(cluster, "ix")
    assert len(report.missing) == 1
    # Resume the APS: eventual consistency.
    for server in cluster.servers.values():
        server.aps_gate.open()
    cluster.quiesce()
    assert hits(cluster, client, b"red") == [b"r1"]
    assert check_index(cluster, "ix").is_consistent


def test_eventual_consistency_after_quiesce():
    cluster = make_cluster()
    client = cluster.new_client()
    for i in range(30):
        cluster.run(client.put("t", f"r{i:02d}".encode(),
                               {"c": f"v{i % 4}".encode()}))
    cluster.quiesce()
    assert check_index(cluster, "ix").is_consistent


def test_updates_and_deletes_converge():
    cluster = make_cluster()
    client = cluster.new_client()
    for i in range(10):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"a"}))
    for i in range(0, 10, 2):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"b"}))
    for i in (1, 3):
        cluster.run(client.delete("t", f"r{i}".encode(), columns=["c"]))
    cluster.quiesce()
    assert check_index(cluster, "ix").is_consistent
    assert hits(cluster, client, b"a") == [b"r5", b"r7", b"r9"]
    assert hits(cluster, client, b"b") == [b"r0", b"r2", b"r4", b"r6", b"r8"]


def test_out_of_order_delivery_converges():
    """Two updates to the same row; the APS may process them in any
    order (multiple workers, batching) — the timestamp discipline makes
    the result order-independent."""
    for seed in range(5):
        cluster = MiniCluster(num_servers=3, seed=seed).start()
        cluster.create_table("t")
        cluster.create_index(IndexDescriptor(
            "ix", "t", ("c",), scheme=IndexScheme.ASYNC_SIMPLE))
        client = cluster.new_client()
        cluster.run(client.put("t", b"r", {"c": b"v1"}))
        cluster.run(client.put("t", b"r", {"c": b"v2"}))
        cluster.run(client.put("t", b"r", {"c": b"v3"}))
        cluster.quiesce()
        report = check_index(cluster, "ix")
        assert report.is_consistent, f"seed {seed}: {report}"
        assert hits(cluster, client, b"v3") == [b"r"]


def test_auq_tracks_queue_stats():
    cluster = make_cluster()
    client = cluster.new_client()
    for server in cluster.servers.values():
        server.aps_gate.close()
    for i in range(12):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"x"}))
    assert cluster.auq_backlog() >= 12
    enqueued = sum(s.auq.total_enqueued for s in cluster.servers.values())
    assert enqueued >= 12
    for server in cluster.servers.values():
        server.aps_gate.open()
    cluster.quiesce()
    assert cluster.auq_backlog() == 0


def test_staleness_tracker_records_lag():
    cluster = make_cluster()
    client = cluster.new_client()
    for i in range(20):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"x"}))
    cluster.quiesce()
    tracker = cluster.staleness
    assert tracker.observed == 20
    assert len(tracker.lags_ms) == 20    # sample_rate defaults to 1.0
    assert all(lag >= 0 for lag in tracker.lags_ms)
    assert tracker.max() >= tracker.mean() >= 0
    pct = tracker.percentiles((50, 100))
    assert pct[100] >= pct[50]


def test_staleness_is_measured_from_the_clock_after_a_bulk_load():
    """``load_direct`` draws one logical timestamp per row at sim-time 0,
    so a freshly loaded server stamps puts hundreds of ms ahead of the
    clock; a lag computed from ``task.ts`` alone clamps to 0 until the
    clock catches up.  T1 is when the entry became visible."""
    schema = ItemSchema(record_count=600)
    cluster = MiniCluster(num_servers=3, seed=9).start()
    cluster.create_table("item")
    load_direct(cluster, schema, "item")
    cluster.create_index(IndexDescriptor(
        "item_title", "item", ("item_title",),
        scheme=IndexScheme.ASYNC_SIMPLE))
    client = cluster.new_client()
    for server in cluster.servers.values():
        server.aps_gate.close()
    cluster.run(client.put("item", schema.rowkey(0), {"item_title": b"new"}))
    cluster.advance(50.0)
    for server in cluster.servers.values():
        server.aps_gate.open()
    cluster.quiesce()
    assert len(cluster.staleness.lags_ms) == 1
    assert cluster.staleness.lags_ms[0] >= 50.0
    assert cluster.metrics.merged_histogram("auq_lag_ms").max >= 50.0


def test_batching_delivers_multiple_tasks_per_rpc():
    cluster = make_cluster()
    client = cluster.new_client()
    for server in cluster.servers.values():
        server.aps_gate.close()
    for i in range(16):
        cluster.run(client.put("t", f"r{i:02d}".encode(), {"c": b"same"}))
    rpc_before = cluster.network.rpc_count
    for server in cluster.servers.values():
        server.aps_gate.open()
    cluster.quiesce()
    rpc_delta = cluster.network.rpc_count - rpc_before
    # 16 tasks x (1 del candidate + 1 put) would be ~32 RPCs unbatched;
    # batching must do markedly better.
    assert rpc_delta < 16


def test_index_read_does_not_repair():
    """async reads are plain index reads — no double-check (Table 2)."""
    cluster = make_cluster()
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"c": b"v"}))
    cluster.quiesce()
    base = cluster.counters.snapshot()
    hits(cluster, client, b"v")
    diff = cluster.counters.since(base)
    assert diff.index_read == 1
    assert diff.base_read == 0


def test_mixed_schemes_on_one_table():
    """Each index picks its own scheme (§3.4): a sync-full and an async
    index coexist on the same table and both converge."""
    cluster = MiniCluster(num_servers=3, seed=11).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("sync_ix", "t", ("a",),
                                         scheme=IndexScheme.SYNC_FULL))
    cluster.create_index(IndexDescriptor("async_ix", "t", ("b",),
                                         scheme=IndexScheme.ASYNC_SIMPLE))
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"a": b"x", "b": b"y"}))
    # sync index is consistent immediately:
    assert check_index(cluster, "sync_ix").is_consistent
    cluster.run(client.put("t", b"r1", {"a": b"x2", "b": b"y2"}))
    assert check_index(cluster, "sync_ix").is_consistent
    cluster.quiesce()
    assert check_index(cluster, "async_ix").is_consistent
