"""Unit tests for SSTable building, lookup planning and scanning."""

import pytest

from repro.errors import StorageError
from repro.lsm import Cell, KeyRange, SSTableBuilder
from repro.lsm.iterators import newest_run


def build(cells, block_bytes=128):
    builder = SSTableBuilder(block_bytes=block_bytes)
    builder.add_all(cells)
    return builder.finish()


def key(i):
    return f"k{i:04d}".encode()


def versions(table, k, max_ts=None):
    """A point lookup: the one block that could hold ``k``, then the run
    at its newest admissible timestamp there."""
    block_id = table.block_for_key(k)
    return [] if block_id is None else list(
        newest_run(table.get_block(block_id), k, max_ts))


def test_build_and_point_lookup():
    table = build([Cell(key(i), 1, b"v") for i in range(10)])
    assert versions(table, key(3))[0].key == key(3)
    assert versions(table, b"absent") == []
    assert versions(table, key(3) + b"-between") == []


def test_out_of_order_keys_rejected():
    builder = SSTableBuilder()
    builder.add(Cell(b"b", 1, b"v"))
    with pytest.raises(StorageError):
        builder.add(Cell(b"a", 1, b"v"))


def test_out_of_order_versions_rejected():
    builder = SSTableBuilder()
    builder.add(Cell(b"a", 1, b"v"))
    with pytest.raises(StorageError):
        builder.add(Cell(b"a", 5, b"v"))  # versions must be newest-first


def test_versions_newest_first_accepted():
    table = build([Cell(b"a", 5, b"new"), Cell(b"a", 1, b"old")])
    assert [c.ts for c in table.all_cells()] == [5, 1]
    assert [c.ts for c in versions(table, b"a")] == [5]
    assert [c.ts for c in versions(table, b"a", max_ts=4)] == [1]
    assert versions(table, b"a", max_ts=0) == []


def test_empty_build_rejected():
    with pytest.raises(StorageError):
        SSTableBuilder().finish()


def test_blocks_split_at_key_boundaries():
    """A key's versions never straddle blocks, so a point get costs one block."""
    cells = []
    for i in range(20):
        for ts in (3, 2, 1):
            cells.append(Cell(key(i), ts, b"x" * 40))
    table = build(cells, block_bytes=100)
    assert table.num_blocks > 1
    for i in range(20):
        block_id = table.block_for_key(key(i))
        block = table.get_block(block_id)
        assert sum(1 for c in block if c.key == key(i)) == 3


def test_block_for_key_outside_range_is_none():
    table = build([Cell(key(5), 1, b"v")])
    assert table.block_for_key(key(1)) is None
    assert table.block_for_key(key(9)) is None


def test_bloom_filters_absent_keys():
    table = build([Cell(key(i), 1, b"v") for i in range(0, 100, 2)])
    present_hits = sum(table.may_contain(key(i)) for i in range(0, 100, 2))
    assert present_hits == 50  # no false negatives
    absent_hits = sum(table.may_contain(key(i)) for i in range(1, 100, 2))
    assert absent_hits <= 5  # ~1% fp rate, generous bound


def test_scan_range():
    table = build([Cell(key(i), 1, b"v") for i in range(10)])
    got = [c.key for c in table.scan(KeyRange(key(3), key(7)))]
    assert got == [key(3), key(4), key(5), key(6)]


def test_scan_unbounded_end():
    table = build([Cell(key(i), 1, b"v") for i in range(5)])
    assert len(list(table.scan(KeyRange(key(2), None)))) == 3


def test_scan_empty_when_disjoint():
    table = build([Cell(key(i), 1, b"v") for i in range(5)])
    assert list(table.scan(KeyRange(b"z", None))) == []
    assert list(table.scan(KeyRange(b"", b"a"))) == []


def test_blocks_for_range_covers_all_matching_blocks():
    cells = [Cell(key(i), 1, b"x" * 40) for i in range(50)]
    table = build(cells, block_bytes=100)
    full = table.blocks_for_range(KeyRange(b"", None))
    assert list(full) == list(range(table.num_blocks))


def test_blocks_for_range_empty_range_is_empty():
    table = build([Cell(key(i), 1, b"x" * 40) for i in range(50)],
                  block_bytes=100)
    assert list(table.blocks_for_range(KeyRange(key(3), key(3)))) == []
    assert list(table.blocks_for_range(KeyRange(key(7), key(3)))) == []


def test_blocks_for_range_single_block_table():
    table = build([Cell(key(i), 1, b"v") for i in range(3)],
                  block_bytes=4096)
    assert table.num_blocks == 1
    assert list(table.blocks_for_range(KeyRange(b"", None))) == [0]
    assert list(table.blocks_for_range(KeyRange(key(1), key(2)))) == [0]
    # Ends at-or-below the table's first key, or starts above its last.
    assert list(table.blocks_for_range(KeyRange(b"", key(0)))) == []
    assert list(table.blocks_for_range(KeyRange(b"zzz", None))) == []


def test_blocks_for_range_end_on_block_boundary_excluded():
    """A range whose exclusive end IS a block's first key must not open
    that block — it holds only keys >= end."""
    cells = [Cell(key(i), 1, b"x" * 40) for i in range(50)]
    table = build(cells, block_bytes=100)
    assert table.num_blocks > 2
    boundary = table._block_first_keys[1]
    blocks = list(table.blocks_for_range(KeyRange(b"", boundary)))
    assert blocks == [0]


def test_blocks_for_range_straddles_last_block():
    cells = [Cell(key(i), 1, b"x" * 40) for i in range(50)]
    table = build(cells, block_bytes=100)
    last_first = table._block_first_keys[-1]
    blocks = list(table.blocks_for_range(KeyRange(last_first, b"zzz")))
    assert blocks == [table.num_blocks - 1]
    # Ranges inside the table span always open at least one block.
    for i in range(49):
        assert len(table.blocks_for_range(KeyRange(key(i), key(i + 1)))) >= 1


def test_metadata():
    table = build([Cell(key(0), 2, b"v"), Cell(key(1), 7, b"v")])
    assert table.min_key == key(0)
    assert table.max_key == key(1)
    assert table.cell_count == 2
    assert table.min_ts == 2
    assert table.max_ts == 7
    assert table.total_bytes > 0


def test_all_cells_roundtrip():
    cells = [Cell(key(i), 1, bytes([i])) for i in range(10)]
    table = build(cells)
    assert list(table.all_cells()) == cells
