"""Local (region-co-located) indexes — §3.1's comparator design."""

import pytest

from repro import (IndexDescriptor, IndexScheme, IndexScope, KeyRange,
                   MiniCluster, check_index)
from repro.core.local import (is_reserved_key, local_entry_key,
                              local_scan_range, split_local_entry_key)


@pytest.fixture
def cluster():
    c = MiniCluster(num_servers=3, seed=26).start()
    c.create_table("t", split_keys=[b"h", b"p"])
    c.create_index(IndexDescriptor("lix", "t", ("c",),
                                   scope=IndexScope.LOCAL))
    return c


@pytest.fixture
def client(cluster):
    return cluster.new_client()


def hits(cluster, client, value):
    return sorted(h.rowkey for h in
                  cluster.run(client.get_by_index("lix", equals=[value])))


# -- key layout ------------------------------------------------------------------

def test_entry_key_roundtrip():
    key = local_entry_key("lix", b"payload")
    assert is_reserved_key(key)
    assert split_local_entry_key(key) == ("lix", b"payload")


def test_reserved_keys_sort_below_rows():
    assert local_entry_key("lix", b"\xff" * 8) < b"a-normal-row"


def test_scan_range_isolated_per_index():
    r1 = local_scan_range("ix_a", KeyRange())
    key_a = local_entry_key("ix_a", b"x")
    key_b = local_entry_key("ix_b", b"x")
    assert r1.contains(key_a)
    assert not r1.contains(key_b)


def test_local_index_requires_sync_full():
    with pytest.raises(ValueError):
        IndexDescriptor("lix", "t", ("c",), scheme=IndexScheme.ASYNC_SIMPLE,
                        scope=IndexScope.LOCAL)


# -- CRUD --------------------------------------------------------------------------

def test_insert_and_query_across_regions(cluster, client):
    for row, value in [(b"aa", b"red"), (b"mm", b"red"), (b"zz", b"blue")]:
        cluster.run(client.put("t", row, {"c": value}))
    assert hits(cluster, client, b"red") == [b"aa", b"mm"]
    assert hits(cluster, client, b"blue") == [b"zz"]
    assert check_index(cluster, "lix").is_consistent


def test_update_moves_entry(cluster, client):
    cluster.run(client.put("t", b"aa", {"c": b"old"}))
    cluster.run(client.put("t", b"aa", {"c": b"new"}))
    assert hits(cluster, client, b"old") == []
    assert hits(cluster, client, b"new") == [b"aa"]
    assert check_index(cluster, "lix").is_consistent


def test_delete_removes_entry(cluster, client):
    cluster.run(client.put("t", b"aa", {"c": b"red"}))
    cluster.run(client.delete("t", b"aa", columns=["c"]))
    assert hits(cluster, client, b"red") == []
    assert check_index(cluster, "lix").is_consistent


def test_range_query(cluster, client):
    for i, row in enumerate([b"aa", b"jj", b"qq", b"zz"]):
        cluster.run(client.put("t", row, {"c": f"v{i}".encode()}))
    got = cluster.run(client.get_by_index("lix", low=b"v1", high=b"v2"))
    assert sorted(h.rowkey for h in got) == [b"jj", b"qq"]


def test_entries_invisible_to_row_scans(cluster, client):
    cluster.run(client.put("t", b"aa", {"c": b"red"}))
    cells = cluster.run(client.scan_table("t", KeyRange()))
    assert all(not is_reserved_key(c.key) for c in cells)
    # and invisible to row gets
    assert cluster.run(client.get("t", b"aa"))["c"][0] == b"red"


def test_update_is_fully_region_local(cluster, client):
    """The §3.1 selling point of local indexes: no remote index RPC in
    the update path."""
    cluster.run(client.put("t", b"aa", {"c": b"x"}))
    rpc_before = cluster.network.rpc_count
    cluster.run(client.put("t", b"aa", {"c": b"y"}))
    # exactly one round trip: the client->server put itself.
    assert cluster.network.rpc_count == rpc_before + 1


def test_query_broadcasts_to_every_server(cluster, client):
    """...and its cost: every query fans out to all 3 servers."""
    cluster.run(client.put("t", b"aa", {"c": b"x"}))
    rpc_before = cluster.network.rpc_count
    hits(cluster, client, b"x")
    assert cluster.network.rpc_count - rpc_before == 3


def test_backfill_existing_data():
    cluster = MiniCluster(num_servers=2, seed=27).start()
    cluster.create_table("t", split_keys=[b"m"])
    client = cluster.new_client()
    for i in range(8):
        cluster.run(client.put("t", f"r{i}".encode(),
                               {"c": f"v{i % 2}".encode()}))
    cluster.create_index(IndexDescriptor("late", "t", ("c",),
                                         scope=IndexScope.LOCAL),
                         backfill="offline")
    assert check_index(cluster, "late").is_consistent
    got = cluster.run(client.get_by_index("late", equals=[b"v1"]))
    assert sorted(h.rowkey for h in got) == [b"r1", b"r3", b"r5", b"r7"]


def test_crash_recovery_preserves_local_index(cluster, client):
    for row, value in [(b"aa", b"red"), (b"mm", b"red"), (b"zz", b"blue")]:
        cluster.run(client.put("t", row, {"c": value}))
    victim = cluster.master.locate("t", b"aa").server_name
    cluster.kill_server(victim)
    while victim not in cluster.coordinator.recoveries_completed:
        cluster.advance(200.0)
    assert hits(cluster, client, b"red") == [b"aa", b"mm"]
    assert check_index(cluster, "lix").is_consistent


def test_crash_atomicity_with_base_put(cluster, client):
    """Entry and row share one WAL record, so replay can never resurrect
    a row without its index entry (or vice versa)."""
    cluster.run(client.put("t", b"aa", {"c": b"red"}))
    victim_name = cluster.master.locate("t", b"aa").server_name
    records = cluster.hdfs.wal_records(victim_name)
    target = [r for r in records if any(is_reserved_key(c.key)
                                        for c in r.cells)]
    assert target, "index cells must ride in a WAL record"
    record = target[0]
    assert any(not is_reserved_key(c.key) for c in record.cells), \
        "…the same record as the base cells"


def test_coexists_with_global_index(cluster, client):
    cluster.create_index(IndexDescriptor("gix", "t", ("d",),
                                         scheme=IndexScheme.SYNC_FULL))
    cluster.run(client.put("t", b"aa", {"c": b"x", "d": b"y"}))
    assert hits(cluster, client, b"x") == [b"aa"]
    got = cluster.run(client.get_by_index("gix", equals=[b"y"]))
    assert [h.rowkey for h in got] == [b"aa"]
    assert check_index(cluster, "lix").is_consistent
    assert check_index(cluster, "gix").is_consistent


def test_flush_persists_local_entries(cluster, client):
    cluster.run(client.put("t", b"aa", {"c": b"red"}))
    info = cluster.master.locate("t", b"aa")
    server = cluster.servers[info.server_name]
    region = server.regions[info.region_name]
    cluster.run(server.flush_region(region))
    assert hits(cluster, client, b"red") == [b"aa"]


def test_drop_local_index(cluster, client):
    cluster.run(client.put("t", b"aa", {"c": b"red"}))
    cluster.drop_index("lix")
    assert not cluster.descriptor("t").has_indexes
    # entries are tombstoned, so a re-created index starts clean
    cluster.create_index(IndexDescriptor("lix", "t", ("c",),
                                         scope=IndexScope.LOCAL),
                         backfill="none")
    got = cluster.run(client.get_by_index("lix", equals=[b"red"]))
    assert got == []
    # ...and new writes index normally
    cluster.run(client.put("t", b"zz", {"c": b"red"}))
    got = cluster.run(client.get_by_index("lix", equals=[b"red"]))
    assert [h.rowkey for h in got] == [b"zz"]
