"""The per-SSTable timestamp sidecar and the validation read built on it
(DESIGN.md §14.2, §14.6).

* ``LSMTree.probe_ts`` answers what the exhaustive collector's newest
  cell says, bloom false positives included;
* the sidecar's prefix-compressed block layout, by hand and against the
  old one-value-less-cell-per-entry accounting;
* the validation read keeps exactly the hits the old value-comparing
  check kept, at every quiesced point of random histories of partial
  and whole puts and deletes, flushes, compactions and splits — by
  timestamp on a one-column index, by value on a composite one;
* between quiesced points the one difference is pinned: a same-value
  rewrite validated before its blind ship lands;
* a timestamps-only read charges sidecar blocks, never data blocks, and
  still counts one base read per row; sync-insert's double-check still
  reads data blocks.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IndexDescriptor, IndexScheme, MiniCluster
from repro.core import reader
from repro.core.index import (DEAD, LIVE, UNSETTLED, checks_timestamps,
                              entry_verdict, extract_index_values)
from repro.lsm import (BlockCache, Cell, CompactionPolicy, KeyRange,
                       LSMConfig, LSMTree, ReadStats, SSTableBuilder,
                       cell_size)

KEYS = [f"r{i}\x00c".encode() for i in range(3)]


class _AlwaysMaybe:
    """A bloom filter that answers "maybe" to every key."""

    @staticmethod
    def might_contain(_key: bytes) -> bool:
        return True


# One component's cells: (key_idx, ts, is_tombstone) from tiny ranges, so
# equal-ts value/tombstone pairs and interleaved file windows are common.
component_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 6), st.booleans()),
    min_size=1, max_size=8)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(component_strategy, st.booleans()),
                min_size=0, max_size=4),
       st.one_of(st.none(), component_strategy), component_strategy)
def test_probe_equals_newest_collected_cell(flushed, sealed, active):
    """The probe's ``(ts, is_tombstone)`` is the newest cell the
    exhaustive walk collects, a tombstone outranking an equal-ts value —
    across the memtable, a flushing memtable and SSTables, some of whose
    bloom filters say "maybe" to everything."""
    tree = LSMTree(config=LSMConfig(flush_threshold_bytes=10 ** 9))

    def fill(component):
        for key_idx, ts, tomb in component:
            tree.add(Cell(KEYS[key_idx], ts, None if tomb else b"v"))

    for component, false_positive in flushed:
        fill(component)
        sstable = tree.complete_flush(tree.prepare_flush())
        if false_positive:
            sstable.bloom = _AlwaysMaybe()
    if sealed is not None:
        fill(sealed)
        tree.prepare_flush()            # stays a flushing memtable
    fill(active)

    for key in KEYS:
        cells = tree._collect_cells(key, None, None)
        expected = max(((c.ts, c.value is None) for c in cells), default=None)
        assert tree.probe_ts(key) == expected, key


def test_probe_charges_one_sidecar_block_per_opened_file():
    """Three files hold the key; the newest-first walk opens the first,
    skips the two whose ``max_ts`` is below the ts in hand, and charges
    one sidecar block (negative id) and no data block.  A bloom false
    positive opens a file and charges the block the key would sit in."""
    cache = BlockCache(1 << 20)
    tree = LSMTree(config=LSMConfig(flush_threshold_bytes=10 ** 9),
                   cache=cache)
    for ts in (1, 2, 3):
        tree.add(Cell(KEYS[0], ts, b"v"))
        tree.add(Cell(KEYS[2], ts, b"v"))
        tree.complete_flush(tree.prepare_flush())
    stats = ReadStats()
    assert tree.probe_ts(KEYS[0], stats) == (3, False)
    assert (stats.blocks_from_disk, stats.bloom_probes) == (1, 1)
    newest = tree._sstables[0].sstable_id
    assert cache.block_ids() == [(newest, -1)]

    for sstable in tree._sstables:
        sstable.bloom = _AlwaysMaybe()
    stats = ReadStats()
    assert tree.probe_ts(KEYS[1], stats) is None
    assert stats.blocks_from_disk == 2          # two fresh sidecar blocks
    assert stats.blocks_from_cache == 1
    assert all(block < 0 for _table, block in cache.block_ids())


def test_sidecar_groups_one_qualifier_per_block():
    """Entries sort by (qualifier, row), so a column's entries share
    blocks; a block never mixes qualifiers, and the sidecar stays out of
    the file's accounted bytes."""
    tree = LSMTree(config=LSMConfig(flush_threshold_bytes=10 ** 9,
                                    block_bytes=256))
    for row in range(40):
        for column in (b"a", b"b"):
            tree.add(Cell(f"row{row:02d}\x00".encode() + column, 1,
                          b"x" * 50))
    sstable = tree.complete_flush(tree.prepare_flush())
    before = sstable.total_bytes
    blocks = {col: {sstable.probe_ts(f"row{row:02d}\x00".encode() + col)[1]
                    for row in range(40)}
              for col in (b"a", b"b")}
    assert not blocks[b"a"] & blocks[b"b"]
    # A block opens with its 1-byte qualifier (3 bytes).  A restart entry
    # (row00, row16) is 2 length bytes + the 5-byte row + 8 bytes of ts +
    # a 4-byte restart slot = 19; any other entry stores the 1 row byte
    # past the shared "row0"/"row1" prefix (11 bytes), or 2 where the
    # tens digit changes (row10, row20: 12).  row00..row20 sum to
    # 3 + 19 + 9*11 + 12 + 5*11 + 19 + 3*11 + 12 = 252 < 256, and row21
    # cuts the block at 263: 22 entries, then 18, so 2 blocks a column.
    assert len(blocks[b"a"]) == len(blocks[b"b"]) == 2
    assert sstable.block_bytes(-1) == 263
    assert sstable.total_bytes == before


def test_sidecar_block_bytes_by_hand():
    """One block of 17 entries of the ``price`` column: the qualifier
    once, a full-key restart at slots 0 and 16, prefix-shared rows in
    between, and 8 bytes of ts on every entry."""
    builder = SSTableBuilder(block_bytes=4096)
    for row in range(17):
        builder.add(Cell(f"r{row:02d}\x00price".encode(), 1, b"v"))
    sstable = builder.finish()
    assert sstable.probe_ts(b"r16\x00price") == ((1, False), -1)
    qualifier = 2 + len(b"price")                  # 7
    restart = 2 + len(b"r00") + 8 + 4              # 17
    one_byte = 2 + 1 + 8                           # r01..r09, r11..r15
    two_bytes = 2 + 2 + 8                          # r10: only "r" shared
    assert sstable.block_bytes(-1) == (qualifier + 2 * restart
                                       + 14 * one_byte + two_bytes) == 207


# Keys of a few rows over a few columns, plus separator-less keys (index
# entries), so buckets, restarts and prefix sharing all vary.
sidecar_keys = st.lists(
    st.tuples(st.binary(min_size=1, max_size=12).filter(
                  lambda row: b"\x00" not in row),
              st.sampled_from([None, b"a", b"price", b"qualifier"])),
    min_size=1, max_size=80)


@settings(max_examples=100, deadline=None)
@given(sidecar_keys, st.integers(16, 600))
def test_sidecar_block_no_larger_than_value_less_cells(keys, block_bytes):
    """Every sidecar block is no larger than the old accounting of the
    same entries, one value-less cell (key + 24-byte header) each, and
    building the sidecar leaves ``total_bytes`` alone."""
    cells = [Cell(key, 1, b"v") for key in sorted(
        {row if qualifier is None else row + b"\x00" + qualifier
         for row, qualifier in keys})]
    builder = SSTableBuilder(block_bytes=block_bytes)
    builder.add_all(cells)
    sstable = builder.finish()
    before = sstable.total_bytes
    entries = {}
    for cell in cells:
        entry, block = sstable.probe_ts(cell.key)
        assert entry == (1, False)
        entries.setdefault(block, []).append(cell.key)
    assert sorted(entries) == list(range(-len(entries), 0))
    for block, block_keys in entries.items():
        assert sstable.block_bytes(block) <= sum(
            cell_size(Cell(key, 1, None)) for key in block_keys)
    assert sstable.total_bytes == before == sum(
        cell_size(cell) for cell in cells)


# -- validation: the timestamp check against the value check -------------

ROWS = [f"r{i}".encode() for i in range(4)]
VALUES = [b"a", b"b"]
STORAGE = LSMConfig(flush_threshold_bytes=10 ** 9,
                    # min 2 files, at most 2 merged: a round over three or
                    # more files is minor, and every second round is major.
                    compaction=CompactionPolicy(min_files=2, max_files=2,
                                                major_every=2))


def value_check(client, index, hits):
    """The validation read before the sidecar: fetch each candidate's
    indexed values and keep the hit when they still derive its tuple."""
    row_map = yield from client.multi_get(
        index.base_table, [hit.rowkey for hit in hits],
        columns=list(index.columns))
    kept = []
    for hit in hits:
        current = {col: value for col, (value, _ts)
                   in row_map.get(hit.rowkey, {}).items()}
        if extract_index_values(index, current) == hit.values:
            kept.append(hit)
    return kept


def test_entry_verdict_timestamp_rule():
    """By timestamp, live iff the indexed cell's newest version is a value
    no newer than the entry; a tombstone at the entry's own ts masks it.
    A cell at least as new refutes the entry; none leaves it unsettled
    unless the caller knows the row is not locked."""
    ix = IndexDescriptor("ix", "t", ("c",))

    def verdict(stamp, row_locked=None):
        return entry_verdict(ix, 5, (b"v",), {"c": stamp}, row_locked,
                             timestamps_only=True)

    assert verdict((5, False)) == LIVE
    assert verdict((4, False)) == LIVE
    assert verdict((6, False)) == DEAD
    assert verdict((5, True)) == DEAD
    assert verdict((3, True)) == UNSETTLED
    assert verdict(None) == UNSETTLED
    assert verdict(None, row_locked=True) == UNSETTLED
    assert verdict(None, row_locked=False) == DEAD


def test_entry_verdict_value_rule():
    """By value, live iff the row's cells derive the entry's tuple, whatever
    their timestamps; otherwise the same refute-or-unlocked rule."""
    ix = IndexDescriptor("ix", "t", ("c", "d"))

    def verdict(row, row_locked=None):
        return entry_verdict(ix, 5, (b"a", b"b"), row, row_locked)

    assert verdict({"c": (b"a", 9), "d": (b"b", 2)}) == LIVE
    assert verdict({"c": (b"a", 5), "d": (None, 5)}) == DEAD
    assert verdict({"c": (b"x", 4)}) == UNSETTLED
    assert verdict({"c": (b"x", 4)}, row_locked=True) == UNSETTLED
    assert verdict({"c": (b"x", 4)}, row_locked=False) == DEAD
    assert verdict({}, row_locked=False) == DEAD


def test_only_single_column_indexes_check_timestamps():
    assert checks_timestamps(IndexDescriptor("ix", "t", ("c",)))
    assert not checks_timestamps(IndexDescriptor("ix", "t", ("c", "d")))


def history_strategy(columns):
    """Puts write any subset of the indexed columns (none, for a put of
    the non-indexed ``x`` alone), deletes remove any non-empty subset of
    ``columns + x``: partial mutations are where a timestamp rule could
    part from the row's values (DESIGN.md §14.2)."""
    put = st.tuples(st.just("put"), st.integers(0, len(ROWS) - 1),
                    st.lists(st.one_of(st.none(), st.sampled_from(VALUES)),
                             min_size=len(columns), max_size=len(columns)),
                    st.booleans())
    delete = st.tuples(st.just("del"), st.integers(0, len(ROWS) - 1),
                       st.lists(st.sampled_from(list(columns) + ["x"]),
                                min_size=1, max_size=len(columns) + 1,
                                unique=True))
    return st.lists(st.one_of(put, put, delete, st.just("flush"),
                              st.just("compact"), st.just("split")),
                    min_size=1, max_size=12)


def assert_validate_matches_value_check(columns, history):
    cluster = MiniCluster(num_servers=2, seed=5, storage=STORAGE).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", columns,
                                         scheme=IndexScheme.VALIDATION))
    index = cluster.index_descriptor("ix")
    client = cluster.new_client()

    def regions(table):
        return [(server, region) for server in cluster.alive_servers()
                for region in list(server.regions.values())
                if region.table.name == table]

    for op in history:
        if op == "flush":
            for server, region in regions("t") + regions(index.table_name):
                cluster.run(server.flush_region(region))
        elif op == "compact":
            for server, region in regions("t") + regions(index.table_name):
                cluster.run(server.compact_region(region))
        elif op == "split":
            for _server, region in regions("t"):
                split_key = region.split_point()
                if split_key is not None:
                    cluster.run(cluster.placement.request_split(
                        "t", region.name, split_key).wait())
                    break
        elif op[0] == "put":
            _kind, row, values, extra = op
            payload = {col: value for col, value in zip(columns, values)
                       if value is not None}
            if extra or not payload:
                payload["x"] = b"filler"
            cluster.run(client.put("t", ROWS[row], payload))
        else:
            _kind, row, deleted = op
            cluster.run(client.delete("t", ROWS[row], deleted))
        cluster.quiesce()
        cells = cluster.run(client.scan_table(index.table_name, KeyRange()))
        hits = reader._decode_hits(index, cells)
        expected = cluster.run(value_check(client, index, hits))
        assert cluster.run(reader._validate(client, index, hits)) == expected


relaxed = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large])


@relaxed
@given(history_strategy(("c",)))
def test_validate_equals_value_check(history):
    assert_validate_matches_value_check(("c",), history)


@relaxed
@given(history_strategy(("c", "d")))
def test_validate_equals_value_check_two_columns(history):
    assert_validate_matches_value_check(("c", "d"), history)


def _validation_cluster(columns):
    cluster = MiniCluster(num_servers=2, seed=5).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", columns,
                                         scheme=IndexScheme.VALIDATION))
    return cluster, cluster.index_descriptor("ix"), cluster.new_client()


def _served(cluster, client, **predicate):
    return sorted((hit.values, hit.rowkey) for hit in
                  cluster.run(client.get_by_index("ix", **predicate)))


def test_partial_put_on_composite_index_keeps_the_row_entry():
    """A put of ``c`` alone on ``(c, d)`` ships ``(a, None)`` for a row
    whose tuple is still ``(a, b)``.  The value check filters the shipped
    entry and keeps the real one; the cleaner then purges only the dead
    entry, so the row stays reachable through the index."""
    cluster, _index, client = _validation_cluster(("c", "d"))
    cluster.run(client.put("t", b"r", {"c": b"a", "d": b"b"}))
    cluster.quiesce()
    cluster.run(client.put("t", b"r", {"c": b"a"}))
    cluster.quiesce()
    assert _served(cluster, client, low=b"a", high=b"b") == [
        ((b"a", b"b"), b"r")]
    cluster.run(cluster.validation_cleaner.drain_batch())
    assert _served(cluster, client, equals=[b"a", b"b"]) == [
        ((b"a", b"b"), b"r")]


def test_same_value_rewrite_racing_the_blind_ship():
    """The one read the timestamp check answers differently from the
    value check (DESIGN.md §14.2): a rewrite of the indexed column with
    its unchanged value, validated before its blind ship has landed.  The
    old entry is older than the cell, so it is filtered and noted to the
    cleaner although the row matched all along.  Once the ship lands the
    row is served again, and purging the old version leaves the new one."""
    cluster, index, client = _validation_cluster(("c",))
    cluster.run(client.put("t", b"r", {"c": b"v"}))
    cluster.quiesce()
    cells = cluster.run(client.scan_table(index.table_name, KeyRange()))
    old_hits = reader._decode_hits(index, cells)
    cluster.run(client.put("t", b"r", {"c": b"v"}))
    assert cluster.run(value_check(client, index, old_hits)) == old_hits
    assert cluster.run(reader._validate(client, index, old_hits)) == []
    assert cluster.validation_cleaner.backlog == 1
    cluster.quiesce()
    cluster.run(cluster.validation_cleaner.drain_batch())
    assert cluster.validation_cleaner.purged == 1
    assert _served(cluster, client, equals=[b"v"]) == [((b"v",), b"r")]


# -- accounting through the cluster -----------------------------------------

def _flushed_cluster(scheme):
    cluster = MiniCluster(num_servers=1, seed=3).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme))
    client = cluster.new_client()
    for i in range(6):
        cluster.run(client.put("t", f"r{i}".encode(),
                               {"c": b"v", "pad": b"p" * 40}))
    cluster.quiesce()
    [server] = cluster.alive_servers()
    for region in list(server.regions.values()):
        cluster.run(server.flush_region(region))
    return cluster, client, server


def _base_blocks(server, table="t"):
    """Cache entries of ``table``'s SSTables: (data, sidecar) block ids."""
    ids = {sstable.sstable_id for region in server.regions.values()
           if region.table.name == table
           for sstable in region.tree._sstables}
    blocks = [block for sstable_id, block in server.cache.block_ids()
              if sstable_id in ids]
    return ([b for b in blocks if b >= 0], [b for b in blocks if b < 0])


def test_timestamps_only_read_charges_sidecar_blocks_and_counts_base_read():
    cluster, client, server = _flushed_cluster(
        IndexScheme.VALIDATION)
    for region in server.regions.values():
        for sstable in region.tree._sstables:
            server.cache.invalidate_sstable(sstable.sstable_id)
    before = cluster.counters.snapshot()
    stamps = cluster.run(client.multi_get("t", [b"r2"], columns=["c"],
                                          timestamps_only=True))
    assert stamps[b"r2"]["c"][1] is False
    assert cluster.counters.since(before).base_read == 1
    assert _base_blocks(server) == ([], [-1])


def test_validation_read_counts_one_base_read_per_hit():
    cluster, client, server = _flushed_cluster(
        IndexScheme.VALIDATION)
    before = cluster.counters.snapshot()
    hits = cluster.run(client.get_by_index("ix", equals=[b"v"]))
    assert len(hits) == 6
    assert cluster.counters.since(before).base_read == 6
    data, _sidecar = _base_blocks(server)
    assert data == []


def test_sync_insert_double_check_still_reads_data_blocks():
    cluster, client, server = _flushed_cluster(
        IndexScheme.SYNC_INSERT)
    hits = cluster.run(client.get_by_index("ix", equals=[b"v"]))
    assert len(hits) == 6
    data, sidecar = _base_blocks(server)
    assert data and not sidecar


def test_compaction_leaves_no_sidecar_block_of_a_retired_file():
    cache = BlockCache(1 << 20)
    tree = LSMTree(config=LSMConfig(
        flush_threshold_bytes=10 ** 9,
        compaction=CompactionPolicy(min_files=2)), cache=cache)
    for key_idx in (0, 1):
        tree.add(Cell(KEYS[key_idx], key_idx + 1, b"v"))
        tree.complete_flush(tree.prepare_flush())
    retired = {sstable.sstable_id for sstable in tree._sstables}
    for key in KEYS:
        tree.probe_ts(key, ReadStats())
    assert {sstable_id for sstable_id, _block in cache.block_ids()} == retired
    assert tree.compact() is not None
    assert not any(sstable_id in retired
                   for sstable_id, _block in cache.block_ids())
