"""The batched foreground write path (DESIGN.md §11): multi_put with WAL
group commit and coalesced index maintenance.

Invariants under test:

* a MutationBatch converges to exactly the state the per-row path
  produces, for every scheme (same base rows, same index hits);
* row-granularity retry after a mid-batch server crash or a batch that
  straddles a closing split never double-applies (timestamp idempotence);
* WAL group commits are observable (``wal_group_commit_size``) and the
  block-cache counters/gauge report real traffic.
"""

import pytest

from repro import (IndexDescriptor, IndexScheme, MiniCluster, MutationBatch,
                   check_index)
from repro.placement.jobs import SplitPhase

SCHEMES = [IndexScheme.SYNC_FULL, IndexScheme.SYNC_INSERT,
           IndexScheme.ASYNC_SIMPLE, IndexScheme.ASYNC_SESSION,
           IndexScheme.VALIDATION]

# One mutation script reused by the equivalence tests: rows on both sides
# of the b"m" split point, a same-batch update of a01, and a delete of an
# indexed column.  Statement order matters (a01 must end up green).
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


def apply_batched(cluster, client):
    batch = MutationBatch("t")
    for kind, row, payload in SCRIPT:
        if kind == "put":
            batch.put(row, payload)
        else:
            batch.delete(row, payload)
    timestamps = cluster.run(client.batch_mutate(batch))
    assert len(timestamps) == len(SCRIPT)
    assert all(isinstance(ts, int) for ts in timestamps)
    return timestamps


def final_state(cluster, client):
    """Base rows (values only — timestamps legitimately differ between
    the two application paths) plus the index hits per value."""
    base = {}
    for row in ROWS:
        got = cluster.run(client.get("t", row))
        base[row] = {col: value for col, (value, _ts) in got.items()}
    index = {value: sorted(h.rowkey for h in
                           cluster.run(client.get_by_index("ix",
                                                           equals=[value])))
             for value in VALUES}
    return base, index


@pytest.mark.parametrize("scheme", SCHEMES,
                         ids=lambda s: s.name.lower())
def test_batch_equivalent_to_sequential(scheme):
    """Same script, same seed: the batched path must land on the same
    final base+index state as per-row puts."""
    seq_cluster, seq_client = build(scheme)
    apply_sequential(seq_cluster, seq_client)
    seq_cluster.quiesce()

    bat_cluster, bat_client = build(scheme)
    timestamps = apply_batched(bat_cluster, bat_client)
    # The same-batch update of a01 must get a strictly later timestamp
    # than its first write (statement order within the batch).
    assert timestamps[3] > timestamps[0]
    bat_cluster.quiesce()

    assert final_state(seq_cluster, seq_client) == \
        final_state(bat_cluster, bat_client)

    report = check_index(bat_cluster, "ix")
    if scheme.is_lazy:
        # Sync-insert and validation leave stale entries by design (the
        # read path owns them); only missing entries would be a bug.
        assert not report.missing
    else:
        assert report.is_consistent, report


def test_batch_groups_share_wal_commits():
    """One multi_put charges the log device once per wave: the
    wal_group_commit_size histogram must record multi-record groups."""
    cluster, client = build(IndexScheme.SYNC_FULL)
    apply_batched(cluster, client)
    cluster.quiesce()
    hist = cluster.metrics.merged_histogram("wal_group_commit_size")
    assert hist.count > 0
    # 7 mutations over 2 regions on 3 servers: at least one group holds
    # several records.
    assert hist.max >= 2


def test_sync_full_batching_doubles_sim_throughput():
    """The §8.2 batching win on the foreground path: fresh-row inserts
    under sync-full (each pays PI + RB + DI) through ``batch_put`` at
    width 32 must beat width 1 — the classic one-row multi_put — by at
    least 2x in simulated rows/s."""
    items = [(b"%s%03d" % (half, i), {"c": VALUES[i % 3]})
             for half in (b"a", b"z") for i in range(32)]

    def sim_ms(width):
        cluster, client = build(IndexScheme.SYNC_FULL)

        def driver():
            for at in range(0, len(items), width):
                yield from client.batch_put("t", items[at:at + width])
        start = cluster.sim.now()
        cluster.run(driver())
        return cluster.sim.now() - start

    assert sim_ms(1) >= 2.0 * sim_ms(32)


def test_kill_server_mid_batch_never_double_applies():
    """A server crash while its slice of the batch is in flight: the
    client re-routes only the unacknowledged rows after recovery, and
    timestamp idempotence keeps re-sends convergent — every row lands
    exactly once in base and index."""
    cluster, client = build(IndexScheme.SYNC_FULL, num_servers=4, seed=13,
                            heartbeat_timeout_ms=800.0)
    rows = ([f"a{i:02d}".encode() for i in range(6)] +
            [f"z{i:02d}".encode() for i in range(6)])
    items = [(row, {"c": VALUES[i % 3]}) for i, row in enumerate(rows)]
    victim = cluster.master.locate("t", b"a00").server_name

    task = cluster.sim.spawn(client.batch_put("t", items), name="batch")
    cluster.advance(0.5)  # let the scatter reach the servers
    cluster.kill_server(victim)
    timestamps = cluster.sim.run_until_complete(task)
    assert victim in cluster.coordinator.recoveries_completed
    assert len(timestamps) == len(items) and None not in timestamps
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


def test_batch_straddles_closing_split():
    """Batches issued while the parent region is closing get per-row
    ("retry", ...) answers; the client re-routes just those rows onto
    the daughters with no double-apply and no client-visible errors."""
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

    def batches():
        for b in range(5):
            items = [(f"row{b:02d}{i:03d}x".encode(), {"v": b"during-split"})
                     for i in range(8)]
            yield from client.batch_put("t", items)
    cluster.run(batches())
    done = cluster.run(job.wait())
    assert done.phase is SplitPhase.DONE
    cluster.quiesce()

    hit_rows = [h.rowkey for h in
                cluster.run(client.get_by_index("ix",
                                                equals=[b"during-split"]))]
    assert len(hit_rows) == len(set(hit_rows)) == 40
    assert check_index(cluster, "ix").is_consistent


def test_block_cache_metrics_report_traffic():
    """block_cache_hits/misses counters count real accesses and the
    derived hit-rate gauge refreshes on the maintenance tick."""
    cluster, client = build(IndexScheme.SYNC_FULL)
    apply_batched(cluster, client)
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
