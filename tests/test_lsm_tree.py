"""Integration tests for the LSMTree: flush, compaction, reads, stats."""

import pytest

from repro.lsm import (BlockCache, Cell, CompactionPolicy, KeyRange, LSMConfig,
                       LSMTree, ReadStats)


def key(i):
    return f"k{i:05d}".encode()


def small_tree(**over):
    config = LSMConfig(flush_threshold_bytes=over.pop("flush_bytes", 2048),
                       block_bytes=over.pop("block_bytes", 256),
                       max_versions=over.pop("max_versions", 3),
                       compaction=over.pop("compaction", CompactionPolicy()))
    return LSMTree(config=config, **over)


def flush(tree):
    handle = tree.prepare_flush()
    assert handle is not None
    return tree.complete_flush(handle)


def test_get_across_memtable_and_sstables():
    tree = small_tree()
    tree.add(Cell(b"a", 1, b"v1"))
    flush(tree)
    tree.add(Cell(b"a", 2, b"v2"))
    assert tree.get(b"a").value == b"v2"
    assert tree.get(b"a", max_ts=1).value == b"v1"


def test_tombstone_masks_flushed_data():
    tree = small_tree()
    tree.add(Cell(b"a", 1, b"v1"))
    flush(tree)
    tree.add(Cell(b"a", 2, None))
    assert tree.get(b"a") is None


def test_prepare_flush_empty_returns_none():
    tree = small_tree()
    assert tree.prepare_flush() is None


def test_needs_flush_threshold():
    tree = small_tree(flush_bytes=500)
    assert not tree.needs_flush
    for i in range(20):
        tree.add(Cell(key(i), 1, b"x" * 40))
    assert tree.needs_flush


def test_reads_during_flush_see_sealed_memtable():
    """Between prepare and complete, data must stay visible (Figure 2(b):
    the mem-store snapshot is still part of the read path)."""
    tree = small_tree()
    tree.add(Cell(b"a", 1, b"v1"))
    handle = tree.prepare_flush()
    assert tree.get(b"a").value == b"v1"
    tree.complete_flush(handle)
    assert tree.get(b"a").value == b"v1"


def test_writes_during_flush_go_to_new_memtable():
    tree = small_tree()
    tree.add(Cell(b"a", 1, b"v1"))
    handle = tree.prepare_flush()
    tree.add(Cell(b"a", 2, b"v2"))
    tree.complete_flush(handle)
    assert tree.get(b"a").value == b"v2"
    assert [c.ts for c in tree.get_versions(b"a", 2)] == [2, 1]


def test_scan_merges_components():
    tree = small_tree()
    tree.add(Cell(b"a", 1, b"1"))
    tree.add(Cell(b"c", 1, b"1"))
    flush(tree)
    tree.add(Cell(b"b", 2, b"2"))
    tree.add(Cell(b"a", 2, b"2"))  # newer version of flushed key
    cells = tree.scan(KeyRange(b"", None))
    assert [(c.key, c.value) for c in cells] == [
        (b"a", b"2"), (b"b", b"2"), (b"c", b"1")]


def test_scan_limit():
    tree = small_tree()
    for i in range(10):
        tree.add(Cell(key(i), 1, b"v"))
    assert len(tree.scan(KeyRange(b"", None), limit=4)) == 4


def test_scan_skips_deleted():
    tree = small_tree()
    tree.add(Cell(b"a", 1, b"1"))
    tree.add(Cell(b"b", 1, b"1"))
    tree.add(Cell(b"b", 2, None))
    assert [c.key for c in tree.scan(KeyRange(b"", None))] == [b"a"]


def test_compaction_reduces_file_count():
    tree = small_tree(compaction=CompactionPolicy(min_files=3, major_every=1000))
    for round_ in range(4):
        for i in range(5):
            tree.add(Cell(key(i), round_ + 1, b"v"))
        flush(tree)
    assert tree.sstable_count == 4
    result = tree.compact()
    assert result is not None
    assert tree.sstable_count < 4
    # data still visible with the newest version
    assert tree.get(key(0)).ts == 4


def test_major_compaction_drops_tombstones():
    tree = small_tree(compaction=CompactionPolicy(min_files=2, major_every=1))
    tree.add(Cell(b"a", 1, b"v"))
    flush(tree)
    tree.add(Cell(b"a", 2, None))
    flush(tree)
    result = tree.compact()
    assert result.dropped_tombstones >= 1
    assert tree.get(b"a") is None
    assert tree.total_cells == 0


def test_minor_compaction_keeps_tombstones():
    policy = CompactionPolicy(min_files=2, max_files=2, major_every=1000)
    tree = small_tree(compaction=policy)
    tree.add(Cell(b"a", 1, b"v"))
    flush(tree)
    tree.add(Cell(b"a", 2, None))
    flush(tree)
    tree.add(Cell(b"pad", 1, b"v"))
    flush(tree)
    # The two oldest files get merged; they contain the whole history of
    # "a" and since the merge isn't covering (file 3 exists) it must keep
    # the tombstone so nothing resurfaces.
    tree.compact()
    assert tree.get(b"a") is None


def test_version_retention_in_compaction():
    tree = small_tree(max_versions=2,
                      compaction=CompactionPolicy(min_files=2, major_every=1))
    for ts in range(1, 6):
        tree.add(Cell(b"a", ts, f"v{ts}".encode()))
        flush(tree)
    tree.compact()
    versions = tree.get_versions(b"a", 10)
    assert [c.ts for c in versions] == [5, 4]


def test_read_stats_memtable_only():
    tree = small_tree()
    tree.add(Cell(b"a", 1, b"v"))
    stats = ReadStats()
    tree.get(b"a", stats=stats)
    assert stats.memtable_probes == 1
    assert stats.blocks_from_disk == 0


def test_read_stats_disk_read_without_cache():
    tree = small_tree()
    tree.add(Cell(b"a", 1, b"v"))
    flush(tree)
    stats = ReadStats()
    tree.get(b"a", stats=stats)
    assert stats.bloom_probes == 1
    assert stats.blocks_from_disk == 1


def test_read_stats_bloom_skip():
    tree = small_tree()
    tree.add(Cell(b"a", 1, b"v"))
    flush(tree)
    stats = ReadStats()
    tree.get(b"zzz-not-there", stats=stats)
    assert stats.bloom_probes == 1
    assert stats.blocks_from_disk == 0  # bloom filter skipped the file


def blocks_read(stats):
    return stats.blocks_from_disk + stats.blocks_from_cache


def test_get_decided_in_memtable_touches_no_file():
    """The read-before-write of a row updated since the last flush: the
    flushed copy is older than the cell in hand, so its file is skipped
    before the bloom probe."""
    tree = small_tree()
    tree.add(Cell(b"a", 1, b"old"))
    flush(tree)
    tree.add(Cell(b"a", 5, b"new"))
    tree.add(Cell(b"a", 9, b"newest"))
    stats = ReadStats()
    assert tree.get(b"a", max_ts=8, stats=stats).value == b"new"
    assert stats.bloom_probes == 0
    assert blocks_read(stats) == 0


def test_get_over_stacked_rewrites_reads_one_block():
    tree = small_tree()
    for ts in (1, 2, 3):
        for i in range(10):
            tree.add(Cell(key(i), ts, b"v%d" % ts))
        flush(tree)
    stats = ReadStats()
    assert tree.get(key(4), stats=stats).value == b"v3"
    assert blocks_read(stats) == 1
    assert stats.bloom_probes == 1


def test_get_skips_files_newer_than_max_ts():
    tree = small_tree()
    tree.add(Cell(b"a", 1, b"old"))
    flush(tree)
    tree.add(Cell(b"a", 5, b"new"))
    flush(tree)
    stats = ReadStats()
    assert tree.get(b"a", max_ts=4, stats=stats).value == b"old"
    assert stats.bloom_probes == 1      # the ts-5 file was never probed
    assert blocks_read(stats) == 1


def test_equal_ts_tombstone_in_older_file_still_masks():
    """Why the skip is ``max_ts < best_ts`` and not ``<=``."""
    tree = small_tree()
    tree.add(Cell(b"a", 5, None))
    flush(tree)
    tree.add(Cell(b"a", 5, b"v"))
    flush(tree)
    assert tree.get(b"a") is None
    assert tree.get_versions(b"a", 1) == []


def test_block_cache_hit_on_second_read():
    cache = BlockCache(capacity_bytes=1 << 20)
    tree = small_tree(cache=cache)
    tree.add(Cell(b"a", 1, b"v"))
    flush(tree)
    s1, s2 = ReadStats(), ReadStats()
    tree.get(b"a", stats=s1)
    tree.get(b"a", stats=s2)
    assert s1.blocks_from_disk == 1
    assert s2.blocks_from_cache == 1
    assert s2.blocks_from_disk == 0


def test_cache_invalidated_after_compaction():
    cache = BlockCache(capacity_bytes=1 << 20)
    tree = small_tree(cache=cache,
                      compaction=CompactionPolicy(min_files=2, major_every=1))
    tree.add(Cell(b"a", 1, b"v"))
    flush(tree)
    tree.add(Cell(b"a", 2, b"v"))
    flush(tree)
    tree.get(b"a", stats=ReadStats())  # warm the cache
    warm = len(cache)
    tree.compact()
    assert len(cache) < warm or warm == 0


def test_many_keys_roundtrip_through_flush_and_compaction():
    tree = small_tree(compaction=CompactionPolicy(min_files=2, major_every=2))
    n = 200
    for i in range(n):
        tree.add(Cell(key(i), i + 1, f"val{i}".encode()))
        if i % 50 == 49:
            flush(tree)
            if tree.needs_compaction:
                tree.compact()
    for i in range(0, n, 7):
        got = tree.get(key(i))
        assert got is not None and got.value == f"val{i}".encode()
