"""A get is a multi-get of one: ``client.get`` and a one-row
``multi_get`` take the same server path (one ``handle_read`` RPC) and so
cost and return exactly the same thing; and a get rides out a leader
change through the client's one retry loop."""

import pytest

from repro import MiniCluster, ReplicationConfig


def _leader_reads(read):
    """Per read: the row returned, the sim-time it took and the Table 2
    and RPC-count deltas it caused."""
    cluster = MiniCluster(num_servers=3, seed=5).start()
    cluster.create_table("t", split_keys=[b"m"])
    client = cluster.new_client()
    for row in (b"a1", b"z1"):
        cluster.run(client.put("t", row, {"c": b"v" + row, "d": b"x"}))
    trace = []
    for row in (b"a1", b"z1", b"ghost"):
        counters = cluster.counters.snapshot()
        rpcs = cluster.network.rpc_count
        start = cluster.sim.now()
        data = cluster.run(read(client, row))
        trace.append((data, cluster.sim.now() - start,
                      cluster.counters.since(counters),
                      cluster.network.rpc_count - rpcs))
    return trace


def _one_row_multi_get(client, row):
    rows = yield from client.multi_get("t", [row])
    return rows[row]


def test_leader_get_equals_one_row_multi_get():
    single = _leader_reads(lambda client, row: client.get("t", row))
    multi = _leader_reads(_one_row_multi_get)
    assert single == multi
    for _data, latency, ops, rpcs in single:
        assert latency > 0 and rpcs == 1 and ops.base_read == 1
    assert single[0][0]["c"][0] == b"va1" and single[2][0] == {}


def _replicated():
    cluster = MiniCluster(
        num_servers=4, seed=13, heartbeat_timeout_ms=800.0,
        replication=ReplicationConfig(replication_factor=3)).start()
    cluster.create_table("t", split_keys=[b"m"])
    return cluster


@pytest.mark.parametrize("disruption", ["move", "kill"])
def test_get_retries_across_a_leader_change(disruption):
    cluster = _replicated()
    client = cluster.new_client()
    cluster.run(client.put("t", b"k", {"c": b"old"}))
    cluster.run(client.put("t", b"k", {"c": b"new"}))
    cluster.advance(100.0)
    info = cluster.master.locate("t", b"k")
    leader = info.server_name
    if disruption == "move":
        target = next(name for name in sorted(cluster.servers)
                      if name != leader and name not in info.replica_servers)
        assert cluster.run(cluster.placement.move_region(
            "t", info.region_name, target))
    else:
        cluster.kill_server(leader)
    got = cluster.run(client.get("t", b"k"))
    assert got["c"][0] == b"new"
    assert client.route_refreshes >= 1
    assert cluster.master.locate("t", b"k").server_name != leader
