"""Unit tests for the MemTable (multi-version, append-only buffer)."""

import pytest

from repro.errors import ImmutableError
from repro.lsm import Cell, KeyRange, MemTable
from repro.lsm.iterators import newest_run


def make(key, ts, value=b"v"):
    return Cell(key, ts, value)


def test_add_and_read_back():
    mt = MemTable()
    mt.add(make(b"a", 1))
    cells = mt.cells_for(b"a")
    assert len(cells) == 1
    assert cells[0].value == b"v"


def test_versions_newest_first():
    mt = MemTable()
    mt.add(make(b"a", 1, b"old"))
    mt.add(make(b"a", 5, b"new"))
    mt.add(make(b"a", 3, b"mid"))
    assert [c.ts for c in mt.cells_for(b"a")] == [5, 3, 1]


def test_max_ts_filters_versions():
    mt = MemTable()
    mt.add(make(b"a", 1, b"old"))
    mt.add(make(b"a", 5, b"new"))
    chain = mt.cells_for(b"a")
    assert [c.ts for c in newest_run(chain, b"a", max_ts=4)] == [1]
    assert [c.ts for c in newest_run(chain, b"a", max_ts=5)] == [5]
    assert [c.ts for c in newest_run(chain, b"a")] == [5]
    assert list(newest_run(chain, b"a", max_ts=0)) == []


def test_same_key_same_ts_overwrites():
    """LSM semantics: re-adding the same (key, ts) replaces the value."""
    mt = MemTable()
    mt.add(make(b"a", 7, b"first"))
    mt.add(make(b"a", 7, b"second"))
    cells = mt.cells_for(b"a")
    assert len(cells) == 1
    assert cells[0].value == b"second"


def test_tombstone_stored_as_version():
    mt = MemTable()
    mt.add(make(b"a", 1))
    mt.add(Cell(b"a", 2, None))
    cells = mt.cells_for(b"a")
    assert cells[0].is_tombstone
    assert not cells[1].is_tombstone


def test_tombstone_and_put_at_same_ts_coexist():
    """A delete and a put at the same ts are distinct physical cells;
    resolution happens in the iterator layer."""
    mt = MemTable()
    mt.add(make(b"a", 5, b"val"))
    mt.add(Cell(b"a", 5, None))
    assert len(mt.cells_for(b"a")) == 2


def test_missing_key_returns_empty():
    mt = MemTable()
    assert mt.cells_for(b"nope") == []


def test_scan_orders_keys_and_respects_range():
    mt = MemTable()
    for key in [b"d", b"b", b"f"]:
        mt.add(make(key, 1))
    rows = list(mt.scan(KeyRange(b"b", b"f")))
    assert [k for k, _ in rows] == [b"b", b"d"]


def test_scan_unbounded():
    mt = MemTable()
    for key in [b"a", b"b"]:
        mt.add(make(key, 1))
    assert [k for k, _ in mt.scan(KeyRange())] == [b"a", b"b"]


def test_seal_blocks_writes():
    mt = MemTable()
    mt.add(make(b"a", 1))
    mt.seal()
    with pytest.raises(ImmutableError):
        mt.add(make(b"b", 2))
    # reads still fine
    assert mt.cells_for(b"a")


def test_size_accounting_grows():
    mt = MemTable()
    assert mt.approximate_bytes == 0
    mt.add(make(b"a", 1, b"x" * 100))
    first = mt.approximate_bytes
    assert first > 100
    mt.add(make(b"b", 1, b"x" * 100))
    assert mt.approximate_bytes > first
    assert mt.cell_count == 2


def test_overwrite_adjusts_size_not_count():
    mt = MemTable()
    mt.add(make(b"a", 1, b"short"))
    mt.add(make(b"a", 1, b"a-much-longer-value"))
    assert mt.cell_count == 1
    mt2 = MemTable()
    mt2.add(make(b"a", 1, b"a-much-longer-value"))
    assert mt.approximate_bytes == mt2.approximate_bytes


def test_all_cells_stream_is_flush_ordered():
    mt = MemTable()
    mt.add(make(b"b", 1))
    mt.add(make(b"a", 2))
    mt.add(make(b"a", 5))
    stream = list(mt.all_cells())
    assert [(c.key, c.ts) for c in stream] == [(b"a", 5), (b"a", 2), (b"b", 1)]
