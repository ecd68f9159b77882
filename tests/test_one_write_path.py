"""The one write path (DESIGN.md §11): every base write is one
``handle_mutate`` RPC for one row, under one handler slot and one row
lock, with its WAL record group-committed beside whatever other handlers
log meanwhile.

Invariants under test:

* a put touching two indexes on one server ships one grouped RPC per
  index-maintenance phase;
* concurrent one-row puts share one log sync;
* a put caught by a server crash or by a region closing for a split is
  re-routed and applied exactly once (timestamp idempotence);
* a server that does not host the row answers ("retry", reason);
* the block-cache counters and gauge report real traffic.
"""

from repro import (IndexDescriptor, IndexScheme, LatencyModel, MiniCluster,
                   check_index)
from repro.placement.jobs import SplitPhase

# Rows on both sides of the b"m" split point, an update of a01, and a
# delete of an indexed column.
SCRIPT = [
    ("put", b"a01", {"c": b"red", "x": b"1"}),
    ("put", b"z01", {"c": b"blue"}),
    ("put", b"a02", {"c": b"red"}),
    ("put", b"a01", {"c": b"green"}),
    ("put", b"z02", {"c": b"blue"}),
    ("del", b"a02", ["c"]),
    ("put", b"z03", {"c": b"red"}),
]
ROWS = sorted({m[1] for m in SCRIPT})
VALUES = [b"red", b"green", b"blue"]


def build(scheme, num_servers=3, seed=5, **kwargs):
    cluster = MiniCluster(num_servers=num_servers, seed=seed,
                          **kwargs).start()
    cluster.create_table("t", split_keys=[b"m"])
    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme))
    return cluster, cluster.new_client()


def apply_sequential(cluster, client):
    def driver():
        for kind, row, payload in SCRIPT:
            if kind == "put":
                yield from client.put("t", row, payload)
            else:
                yield from client.delete("t", row, payload)
    cluster.run(driver())


def test_two_indexes_on_one_server_share_one_rpc_per_phase():
    """A sync-full put touching two indexes whose regions share a server
    ships one grouped PI call and one grouped DI call to it, not one per
    index."""
    cluster = MiniCluster(num_servers=2, seed=4).start()
    cluster.create_table("t")
    for name, column in (("ix_a", "a"), ("ix_b", "b")):
        cluster.create_index(IndexDescriptor(
            name, "t", (column,), scheme=IndexScheme.SYNC_FULL))
    [base] = cluster.master.layout["t"]
    target = next(n for n in cluster.servers if n != base.server_name)
    for name in ("ix_a", "ix_b"):
        table = cluster.index_descriptor(name).table_name
        [info] = cluster.master.layout[table]
        if info.server_name != target:
            assert cluster.run(cluster.placement.move_region(
                table, info.region_name, target))
    client = cluster.new_client()
    cluster.run(client.put("t", b"r", {"a": b"1", "b": b"1"}))

    server = cluster.servers[target]
    calls = []
    original = server.handle_index_ops

    def recording(ops, background=True):
        calls.append(sorted((op[0], op[1]) for op in ops))
        return original(ops, background=background)

    server.handle_index_ops = recording
    cluster.run(client.put("t", b"r", {"a": b"2", "b": b"2"}))
    tables = sorted(cluster.index_descriptor(name).table_name
                    for name in ("ix_a", "ix_b"))
    assert calls == [[("put", table) for table in tables],
                     [("del", table) for table in tables]]


def test_concurrent_puts_share_one_log_sync():
    """Two one-row puts from different clients reach one server while its
    log is busy: both join the next device write and ack together."""
    cluster = MiniCluster(num_servers=1, seed=5,
                          model=LatencyModel(rpc_jitter_ms=0.0)).start()
    cluster.create_table("t")
    clients = [cluster.new_client(name) for name in ("c1", "c2")]
    for client in clients:              # warm each client's region cache
        cluster.run(client.put("t", b"warm", {"c": b"0"}))
    [server] = cluster.servers.values()
    hist = server.obs_wal_group
    writes, records = hist.count, hist.sum
    acks = {}

    def busy_log():
        yield server.log_device.sync(100)

    def put(client, row):
        yield from client.put("t", row, {"c": b"1"})
        acks[row] = cluster.sim.now()

    cluster.sim.spawn(busy_log())
    for client, row in zip(clients, (b"r1", b"r2")):
        cluster.sim.spawn(put(client, row))
    cluster.sim.run(until=cluster.sim.now() + 50.0)
    assert set(acks) == {b"r1", b"r2"}
    assert acks[b"r1"] == acks[b"r2"]
    assert (hist.count - writes, hist.sum - records) == (2, 102)


def test_kill_server_mid_puts_never_double_applies():
    """A server crash while one-row puts to it are in flight: each put
    re-routes after recovery, and timestamp idempotence keeps a re-sent
    put convergent — every row lands exactly once in base and index."""
    cluster, client = build(IndexScheme.SYNC_FULL, num_servers=4, seed=13,
                            heartbeat_timeout_ms=800.0)
    rows = ([f"a{i:02d}".encode() for i in range(6)] +
            [f"z{i:02d}".encode() for i in range(6)])
    items = [(row, {"c": VALUES[i % 3]}) for i, row in enumerate(rows)]
    victim = cluster.master.locate("t", b"a00").server_name

    puts = [cluster.sim.spawn(client.put("t", row, values), name="put")
            for row, values in items]
    cluster.advance(0.5)  # let the puts reach the servers
    cluster.kill_server(victim)
    timestamps = [cluster.sim.run_until_complete(put) for put in puts]
    assert victim in cluster.coordinator.recoveries_completed
    assert all(isinstance(ts, int) for ts in timestamps)
    cluster.quiesce()

    for row, values in items:
        got = cluster.run(client.get("t", row))
        assert got["c"][0] == values["c"], row
    seen = []
    for value in VALUES:
        seen.extend(h.rowkey for h in
                    cluster.run(client.get_by_index("ix", equals=[value])))
    assert sorted(seen) == sorted(rows)  # exactly once each, no dupes
    assert check_index(cluster, "ix").is_consistent


def test_puts_straddle_closing_split():
    """Puts issued while the parent region is closing get a ("retry", ...)
    answer; the client refreshes its layout and re-routes onto the
    daughters with no double-apply and no client-visible errors."""
    cluster = MiniCluster(num_servers=3, seed=7).start()
    cluster.create_table("t", flush_threshold_bytes=2048)
    cluster.create_index(IndexDescriptor("ix", "t", ("v",),
                                         scheme=IndexScheme.SYNC_FULL))
    client = cluster.new_client()

    def load():
        for i in range(80):
            yield from client.put("t", f"row{i:05d}".encode(),
                                  {"v": f"val{i % 5}".encode(),
                                   "pad": b"x" * 48})
    cluster.run(load())
    [info] = cluster.master.layout["t"]
    job = cluster.placement.request_split("t", info.region_name)
    refreshes = client.route_refreshes

    def puts():
        for b in range(5):
            for i in range(8):
                yield from client.put("t", f"row{b:02d}{i:03d}x".encode(),
                                      {"v": b"during-split"})
    cluster.run(puts())
    assert client.route_refreshes > refreshes   # the retry path ran
    done = cluster.run(job.wait())
    assert done.phase is SplitPhase.DONE
    cluster.quiesce()

    hit_rows = [h.rowkey for h in
                cluster.run(client.get_by_index("ix",
                                                equals=[b"during-split"]))]
    assert len(hit_rows) == len(set(hit_rows)) == 40
    assert check_index(cluster, "ix").is_consistent


def test_unserved_row_is_answered_retry_not_raised():
    """A server that does not host the row answers ("retry", reason)
    rather than raising; the client re-routes on that answer."""
    cluster, _client = build(IndexScheme.SYNC_FULL)
    owner = cluster.master.locate("t", b"a01").server_name
    other = next(server for name, server in sorted(cluster.servers.items())
                 if name != owner)
    outcome = cluster.run(other.handle_mutate("t", "put", b"a01",
                                              {"c": b"red"}))
    assert outcome[0] == "retry" and "hosts no region" in outcome[1]


def test_block_cache_metrics_report_traffic():
    """block_cache_hits/misses counters count real accesses and the
    derived hit-rate gauge refreshes on the maintenance tick."""
    cluster, client = build(IndexScheme.SYNC_FULL)
    apply_sequential(cluster, client)
    cluster.quiesce()
    # Push the memtables to SSTables so reads go through the block cache.
    for server in cluster.servers.values():
        for region in server.regions.values():
            handle = region.tree.prepare_flush()
            if handle is not None:
                region.tree.complete_flush(handle)
                cluster.hdfs.set_store_files(region.table.name, region.name,
                                             region.tree._sstables)
                server.wal.roll_forward(region.name, handle.wal_seqno)

    def read_twice():
        for _ in range(2):  # second pass hits the cache
            for row in ROWS:
                yield from client.get("t", row)
    cluster.run(read_twice())

    metrics = cluster.metrics
    hits = metrics.total("block_cache_hits")
    misses = metrics.total("block_cache_misses")
    assert misses > 0  # first disk read of each block
    assert hits > 0    # second pass served from cache
    cluster.advance(200.0)  # > maintenance_interval_ms: gauge refresh
    rates = [s.obs_cache_hit_rate.value for s in cluster.servers.values()]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert any(r > 0.0 for r in rates)
