"""repro.lsm.remix: the REMIX-style cross-SSTable sorted view.

DESIGN.md §13 invariants under test:

* a remix cursor scan returns exactly what the reference heap merge
  returns, for every flush/compaction/delete state of one tree;
* the view is maintained *incrementally* — the flush/compaction merge
  products equal a from-scratch build over the same table set;
* tombstone pointers are skip metadata: a deleted key costs the cursor
  walk zero block reads (a heap merge must open the block to learn it);
* a stale view (a store relink the tree didn't see) is rebuilt by the
  scan that finds it, counted, never wrong;
* every store-relink site in the cluster (split adoption, region move,
  recovery, follower promotion) leaves the adopting tree with a fresh
  view, so steady-state scans never fall back.
"""

from repro import (IndexDescriptor, IndexScheme, KeyRange, MiniCluster,
                   PlacementConfig, ReplicationConfig, check_index)
from repro.lsm.remix import RemixView
from repro.lsm.tree import LSMTree, ReadStats
from repro.lsm.types import Cell
from repro.obs import MetricsRegistry
from tests.test_scan_equivalence_property import heap_scan


def mk_tree():
    return LSMTree(name="t")


def flush(tree):
    handle = tree.prepare_flush()
    if handle is not None:
        tree.complete_flush(handle)


def key(i):
    return f"k{i:04d}".encode()


def view_dump(view):
    return list(zip(view.keys, view.entries))


# -- correctness vs the heap path -------------------------------------------


def test_cursor_scan_matches_heap_scan():
    tree = mk_tree()
    for round_ts in (10, 20, 30):
        for i in range(40):
            tree.add(Cell(key(i), round_ts + i % 3, b"v%d" % round_ts))
        flush(tree)
    for i in range(0, 40, 5):
        tree.add(Cell(key(i), 40, None))   # delete every 5th
    flush(tree)
    assert tree.remix_fresh
    for rng in (KeyRange(b"", None), KeyRange(key(3), key(27)),
                KeyRange(key(10), key(10)), KeyRange(b"zzz", None)):
        for max_ts in (None, 15, 25, 40):
            assert (tree.scan(rng, max_ts=max_ts)
                    == heap_scan(tree, rng, max_ts=max_ts)), (rng, max_ts)
    assert (tree.scan(KeyRange(b"", None), limit=7)
            == heap_scan(tree, KeyRange(b"", None), limit=7))


def test_scan_merges_unflushed_memtable_with_view():
    tree = mk_tree()
    for i in range(10):
        tree.add(Cell(key(i), 10, b"old"))
    flush(tree)
    tree.add(Cell(key(3), 20, b"new"))       # overwrite, memtable only
    tree.add(Cell(key(4), 20, None))         # delete, memtable only
    tree.add(Cell(key(99), 20, b"fresh"))    # brand-new key
    out = {c.key: c.value for c in tree.scan(KeyRange(b"", None))}
    assert out[key(3)] == b"new"
    assert key(4) not in out
    assert out[key(99)] == b"fresh"
    assert len(out) == 10  # 10 flushed - 1 deleted + 1 new


def test_equal_ts_put_and_delete_in_memtable_masked():
    """The regression the property suite caught: memtable version lists
    order equal-ts value/tombstone by insertion, but resolution must let
    the tombstone mask the equal-ts value either way."""
    for first, second in ((b"v", None), (None, b"v")):
        tree = mk_tree()
        tree.add(Cell(b"a", 10, first))
        tree.add(Cell(b"a", 10, second))
        assert tree.scan(KeyRange(b"", None)) == []


# -- incremental maintenance -------------------------------------------------


def test_flush_merges_incrementally_and_equals_full_build():
    tree = mk_tree()
    for round_ts in (10, 20, 30):
        for i in range(20):
            tree.add(Cell(key(i), round_ts, b"x"))
        flush(tree)
    rebuilt = RemixView.build(tree._sstables)
    assert view_dump(tree.remix_view) == view_dump(rebuilt)
    assert tree.remix_view.table_ids == rebuilt.table_ids


def test_compaction_merge_equals_full_build():
    tree = mk_tree()
    for round_ts in (10, 20, 30, 40):
        for i in range(20):
            tree.add(Cell(key(i), round_ts, b"v%d" % round_ts))
        if round_ts == 20:
            for i in range(0, 20, 4):
                tree.add(Cell(key(i), 21, None))
        flush(tree)
    assert tree.sstable_count == 4
    result = tree.compact()
    assert result is not None
    assert tree.remix_fresh
    rebuilt = RemixView.build(tree._sstables)
    assert view_dump(tree.remix_view) == view_dump(rebuilt)


def test_major_compaction_dropping_everything_empties_view():
    tree = mk_tree()
    for i in range(10):
        tree.add(Cell(key(i), 10, b"v"))
    flush(tree)
    for i in range(10):
        tree.add(Cell(key(i), 20, None))
    flush(tree)
    for _ in range(6):  # reach the policy's min_files / major cadence
        for i in range(10):
            tree.add(Cell(key(i), 30, None))
        flush(tree)
    while tree.compact() is not None:
        pass
    assert tree.remix_fresh
    assert tree.scan(KeyRange(b"", None)) == []


def test_view_pointers_only_reference_live_tables():
    tree = mk_tree()
    for round_ts in (10, 20, 30, 40):
        for i in range(15):
            tree.add(Cell(key(i), round_ts, b"x"))
        flush(tree)
    tree.compact()
    live = {t.sstable_id for t in tree._sstables}
    assert tree.remix_view.table_ids == live
    for pointers in tree.remix_view.entries:
        for pointer in pointers:
            assert pointer[2] in live


# -- tombstone skip metadata -------------------------------------------------


def test_deleted_key_costs_zero_block_reads():
    tree = mk_tree()
    tree.add(Cell(b"dead", 10, b"x" * 64))
    flush(tree)
    tree.add(Cell(b"dead", 20, None))
    flush(tree)
    r_stats, h_stats = ReadStats(), ReadStats()
    dead = KeyRange(b"dead", b"dead\xff")
    assert tree.scan(dead, stats=r_stats) == []
    assert heap_scan(tree, dead, stats=h_stats) == []
    assert r_stats.blocks_from_disk + r_stats.blocks_from_cache == 0
    assert h_stats.blocks_from_disk + h_stats.blocks_from_cache > 0


def test_superseded_versions_cost_no_extra_blocks():
    """Only the winning version's block is charged, however many stale
    SSTables hold older versions of the key."""
    tree = mk_tree()
    for round_ts in (10, 20, 30, 40, 50):
        tree.add(Cell(b"hot", round_ts, b"x" * 64))
        flush(tree)
    stats = ReadStats()
    [cell] = tree.scan(KeyRange(b"hot", b"hot\xff"), stats=stats)
    assert cell.ts == 50
    assert stats.blocks_from_disk + stats.blocks_from_cache == 1


# -- freshness / fallback ----------------------------------------------------


def test_stale_view_is_rebuilt_at_scan_and_counts():
    tree = mk_tree()
    registry = MetricsRegistry()
    tree.bind_metrics(registry)
    for i in range(10):
        tree.add(Cell(key(i), 10, b"v"))
    flush(tree)
    before = tree.scan(KeyRange(b"", None))
    assert len(before) == 10
    assert registry.counter("remix_cursor_scans_total").value == 1
    assert registry.counter("remix_fallback_scans_total").value == 0
    # A relink the tree is not told about (bypassing relink_sstables)
    # leaves the view stale; the scan rebuilds it, counts the miss, and
    # answers from the current file set.
    for i in range(10, 15):
        tree.add(Cell(key(i), 20, b"w"))
    flush(tree)
    tree._sstables = tree._sstables[1:]   # the newest file, unannounced
    assert not tree.remix_fresh
    after = tree.scan(KeyRange(b"", None))
    assert after == before
    assert registry.counter("remix_fallback_scans_total").value == 1
    assert tree.remix_fresh
    assert tree.scan(KeyRange(b"", None)) == after
    assert registry.counter("remix_fallback_scans_total").value == 1
    assert registry.counter("remix_cursor_scans_total").value == 2


def test_relink_rebuilds_view():
    donor = mk_tree()
    for round_ts in (10, 20):
        for i in range(10):
            donor.add(Cell(key(i), round_ts, b"v"))
        flush(donor)
    adopter = mk_tree()
    adopter.relink_sstables(donor._sstables)
    assert adopter.remix_fresh
    assert (adopter.scan(KeyRange(b"", None))
            == donor.scan(KeyRange(b"", None)))


# -- cluster-level relink coverage ------------------------------------------


def all_region_trees(cluster):
    for server in cluster.alive_servers():
        for region in server.regions.values():
            yield region


def assert_all_views_fresh(cluster):
    for region in all_region_trees(cluster):
        assert region.tree.remix_fresh, region.name


def load(cluster, client, n=60, pad=48):
    def driver():
        for i in range(n):
            yield from client.put("t", f"row{i:05d}".encode(),
                                  {"c": f"val{i % 5}".encode(),
                                   "pad": b"x" * pad})
    cluster.run(driver())


def test_split_adoption_leaves_fresh_views():
    cluster = MiniCluster(num_servers=3,
                          placement=PlacementConfig()).start()
    cluster.create_table("t", flush_threshold_bytes=2048)
    client = cluster.new_client()
    load(cluster, client)
    [info] = cluster.master.layout["t"]
    job = cluster.placement.request_split("t", info.region_name)
    cluster.run(job.wait())
    assert len(cluster.master.layout["t"]) == 2
    assert_all_views_fresh(cluster)
    cells = cluster.run(client.scan_table("t", KeyRange()))
    rows = {c.key.split(b"\x00")[0] for c in cells}
    assert len(rows) == 60


def test_move_region_leaves_fresh_views():
    cluster = MiniCluster(num_servers=3,
                          placement=PlacementConfig()).start()
    cluster.create_table("t", flush_threshold_bytes=2048)
    client = cluster.new_client()
    load(cluster, client)
    [info] = cluster.master.layout["t"]
    target = next(name for name in cluster.servers
                  if name != info.server_name)
    cluster.run(cluster.placement.move_region("t", info.region_name, target))
    assert_all_views_fresh(cluster)
    cells = cluster.run(client.scan_table("t", KeyRange()))
    assert len({c.key.split(b"\x00")[0] for c in cells}) == 60


def test_promotion_leaves_fresh_views():
    cluster = MiniCluster(
        num_servers=4, heartbeat_timeout_ms=800.0,
        replication=ReplicationConfig(replication_factor=2)).start()
    cluster.create_table("t", flush_threshold_bytes=2048,
                         split_keys=[b"row00030"])
    client = cluster.new_client()
    load(cluster, client)
    victim = cluster.master.locate("t", b"row00000").server_name
    cluster.kill_server(victim)
    while victim not in cluster.coordinator.recoveries_completed:
        cluster.advance(100.0)
    assert cluster.metrics.counter("promotions_total").value > 0
    assert_all_views_fresh(cluster)
    cells = cluster.run(client.scan_table("t", KeyRange()))
    assert len({c.key.split(b"\x00")[0] for c in cells}) == 60


def test_promoted_follower_that_missed_a_flush_has_a_fresh_view():
    """The leader flushes and dies before any ship batch carries the new
    flush point, so the follower's view covers the older store listing.
    Promotion adopts the durable listing; it must relink the view too."""
    cluster = MiniCluster(
        num_servers=3, heartbeat_timeout_ms=800.0,
        replication=ReplicationConfig(replication_factor=2)).start()
    cluster.create_table("t", flush_threshold_bytes=1 << 20)
    client = cluster.new_client()
    load(cluster, client)
    cluster.advance(50.0)          # every row reaches the follower
    info = cluster.master.locate("t", b"row00000")
    leader = cluster.servers[info.server_name]
    [follower_name] = info.replica_servers
    follower = cluster.servers[follower_name].follower_regions[
        info.region_name]
    assert follower.region.tree.sstable_count == 0
    cluster.run(leader.flush_region(leader.regions[info.region_name]))
    cluster.kill_server(leader.name)
    while leader.name not in cluster.coordinator.recoveries_completed:
        cluster.advance(100.0)
    assert cluster.metrics.counter("promotions_total").value == 1
    promoted = cluster.servers[follower_name].regions[info.region_name]
    assert promoted.tree.sstable_count == 1
    assert promoted.tree.remix_fresh
    cells = cluster.run(client.scan_table("t", KeyRange()))
    assert len({c.key.split(b"\x00")[0] for c in cells}) == 60
    assert cluster.metrics.total("remix_fallback_scans_total") == 0


def test_index_maintenance_correct_on_both_engines():
    """Sync-full maintenance leaves a consistent index, and every region
    of the cluster scans the same through the cursor walk as through the
    reference heap merge."""
    cluster = MiniCluster(num_servers=3).start()
    cluster.create_table("t", flush_threshold_bytes=1024)
    cluster.create_index(IndexDescriptor(
        "ix", "t", ("c",), scheme=IndexScheme.SYNC_FULL))

    def driver(client):
        for i in range(30):
            yield from client.put("t", b"r%03d" % i,
                                  {"c": b"v%d" % (i % 4)})
        for i in range(0, 30, 3):
            yield from client.delete("t", b"r%03d" % i, ["c"])
    cluster.run(driver(cluster.new_client()))
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, report
    for region in all_region_trees(cluster):
        assert (region.tree.scan(KeyRange())
                == heap_scan(region.tree, KeyRange())), region.name
