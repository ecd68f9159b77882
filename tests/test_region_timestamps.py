"""Timestamps follow the region: a server that takes a region over keeps
stamping above the region's newest version, so a later acknowledged put
carries a larger timestamp and stays visible — after a move, an rf=3
promotion, and an rf=1 recovery that replays the WAL."""

from repro import MiniCluster, ReplicationConfig

# One stamp per row is what a bulk load (load_direct) of this many rows
# draws at sim-time 0: the loading server's clock ends ~5 s ahead of the
# simulated clock.
AHEAD = 5000


def _stamped_ahead(replication_factor):
    """A one-region table whose host has stamped AHEAD times, holding row
    ``k`` written at the host's (future) timestamp."""
    cluster = MiniCluster(
        num_servers=4, seed=3, heartbeat_timeout_ms=800.0,
        replication=ReplicationConfig(
            replication_factor=replication_factor)).start()
    cluster.create_table("t")
    host = cluster.servers[cluster.master.locate("t", b"k").server_name]
    for _ in range(AHEAD):
        host.assign_timestamp()
    client = cluster.new_client()
    old_ts = cluster.run(client.put("t", b"k", {"c": b"old"}))
    return cluster, client, host, old_ts


def _later_put_wins(cluster, client, host, old_ts):
    assert cluster.master.locate("t", b"k").server_name != host.name
    assert cluster.sim.now() < old_ts      # the new host's clock is behind
    new_ts = cluster.run(client.put("t", b"k", {"c": b"new"}))
    assert new_ts > old_ts
    assert cluster.run(client.get("t", b"k"))["c"] == (b"new", new_ts)


def _kill_and_recover(cluster, host):
    cluster.kill_server(host.name)
    while host.name not in cluster.coordinator.recoveries_completed:
        cluster.advance(100.0)


def test_moved_region_keeps_stamping_above_its_versions():
    cluster, client, host, old_ts = _stamped_ahead(1)
    info = cluster.master.locate("t", b"k")
    target = next(name for name in sorted(cluster.servers)
                  if name != host.name)
    assert cluster.run(cluster.placement.move_region(
        "t", info.region_name, target))
    _later_put_wins(cluster, client, host, old_ts)


def test_promoted_follower_stamps_above_the_region():
    cluster, client, host, old_ts = _stamped_ahead(3)
    cluster.advance(50.0)          # the old version reaches the followers
    _kill_and_recover(cluster, host)
    assert cluster.metrics.counter("promotions_total").value == 1
    _later_put_wins(cluster, client, host, old_ts)


def test_rf1_recovery_stamps_above_the_replayed_wal():
    cluster, client, host, old_ts = _stamped_ahead(1)
    _kill_and_recover(cluster, host)
    # Never flushed: the old version comes back only from the WAL replay,
    # which runs after the region was added to its new host.
    info = cluster.master.locate("t", b"k")
    assert not cluster.hdfs.store_files("t", info.region_name)
    _later_put_wins(cluster, client, host, old_ts)
