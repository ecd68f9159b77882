"""IndexOpContext: routing of primitive index ops — index writes land
through the owner's ``handle_index_ops`` — including the remote base-read
fallback used when a region moved away from the APS's server."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster
from repro.core.auq import IndexTask, maintain_indexes, ship_index_ops
from repro.errors import RpcError


@pytest.fixture
def cluster():
    c = MiniCluster(num_servers=3, seed=32).start()
    c.create_table("t", split_keys=[b"m"])
    c.create_index(IndexDescriptor("ix", "t", ("c",),
                                   scheme=IndexScheme.SYNC_FULL))
    return c


def test_base_read_local_when_region_hosted(cluster):
    client = cluster.new_client()
    cluster.run(client.put("t", b"aa", {"c": b"v"}))
    server, _region = cluster.locate("t", b"aa")
    rpc_before = cluster.network.rpc_count
    result = cluster.run(server.op_context.base_read(
        "t", b"aa", ["c"], max_ts=None, background=False))
    assert result["c"][0] == b"v"
    assert cluster.network.rpc_count == rpc_before   # no network hop


def test_base_read_remote_fallback(cluster):
    """Ask a server that does NOT host the row: the context routes an RPC
    to the right server (the post-region-move APS case)."""
    client = cluster.new_client()
    cluster.run(client.put("t", b"aa", {"c": b"v"}))
    owner, _region = cluster.locate("t", b"aa")
    other = next(s for s in cluster.servers.values() if s is not owner)
    rpc_before = cluster.network.rpc_count
    result = cluster.run(other.op_context.base_read(
        "t", b"aa", ["c"], max_ts=None, background=False))
    assert result["c"][0] == b"v"
    assert cluster.network.rpc_count == rpc_before + 1


def _ship(server, ops):
    return ship_index_ops(server.op_context, ops, background=False,
                          site="PI")


def test_index_put_routes_to_owner(cluster):
    index = cluster.index_descriptor("ix")
    some_server = next(iter(cluster.servers.values()))
    key = b"\x04hello\x00\x00row1"
    base = cluster.counters.snapshot()
    cluster.run(_ship(some_server, [("put", index.table_name, key, 123)]))
    owner, region_name = cluster.locate(index.table_name, key)
    region = owner.regions[region_name]
    assert region.tree.get(key) is not None
    assert cluster.counters.since(base).index_put == 1


def test_index_delete_routes_and_masks(cluster):
    index = cluster.index_descriptor("ix")
    server = next(iter(cluster.servers.values()))
    key = b"\x04hello\x00\x00row1"
    cluster.run(_ship(server, [("put", index.table_name, key, 10)]))
    cluster.run(_ship(server, [("del", index.table_name, key, 10)]))
    owner, region_name = cluster.locate(index.table_name, key)
    assert owner.regions[region_name].tree.get(key) is None


def test_index_ops_batch_to_dead_target_raises(cluster):
    server = next(iter(cluster.servers.values()))
    with pytest.raises(RpcError):
        cluster.run(server.op_context.index_ops_batch(None, [
            ("put", "ix-table", b"k", 1)]))


def test_maintain_indexes_skips_untouched_columns(cluster):
    """A task whose values touch no indexed column does nothing."""
    server, _region = cluster.locate("t", b"aa")
    base = cluster.counters.snapshot()
    task = IndexTask("t", b"aa", {"unrelated": b"1"}, ts=100)
    cluster.run(maintain_indexes(server.op_context, [task],
                                 background=False))
    diff = cluster.counters.since(base)
    assert diff.index_put == 0 and diff.base_read == 0
