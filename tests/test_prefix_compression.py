"""Index prefix compression (§10 future work, citing DB2's index
compression [5]): accounted block sizes shrink, correctness unchanged."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.lsm import Cell, SSTableBuilder
from repro.lsm.sstable import compressed_block_bytes
from repro.lsm.types import cell_size


def index_like_cells(n=200, fanout=10):
    """Index-style keys: long shared prefixes (same indexed value)."""
    cells = []
    for value_id in range(n // fanout):
        for row in range(fanout):
            key = (f"title-{value_id:08d}".encode() + b"\x00\x00"
                   + f"item{row:010d}".encode())
            cells.append(Cell(key, 1, b""))
    cells.sort(key=lambda c: (c.key, -c.ts))
    return cells


def test_compressed_accounting_is_smaller():
    cells = index_like_cells()
    raw = sum(cell_size(c) for c in cells)
    compressed = compressed_block_bytes(cells)
    assert compressed < 0.6 * raw     # long shared prefixes compress well


def test_first_cell_pays_full_key():
    cells = [Cell(b"abcdef", 1, b"")]
    assert compressed_block_bytes(cells) == len(b"abcdef") + 2 + 24


def test_later_cells_pay_only_their_suffix():
    """Each cell stores the key bytes past the prefix it shares with the
    previous key (a key that extends the previous one shares all of
    it), plus the 2-byte length, its value and the 24-byte header."""
    cells = [Cell(b"abcdef", 1, b"v"), Cell(b"abcxy", 1, b""),
             Cell(b"abcxyz", 1, None)]
    assert compressed_block_bytes(cells) == ((6 + 2 + 1 + 24)
                                             + (2 + 2 + 0 + 24)
                                             + (1 + 2 + 0 + 24)) == 88


def test_unrelated_keys_barely_compress():
    cells = sorted([Cell(bytes([i]) * 8, 1, b"") for i in range(30)],
                   key=lambda c: c.key)
    raw = sum(cell_size(c) for c in cells)
    compressed = compressed_block_bytes(cells)
    assert compressed > 0.8 * raw


def test_sstable_total_bytes_reflect_compression():
    cells = index_like_cells()
    plain = SSTableBuilder(block_bytes=2048)
    plain.add_all(cells)
    compressed = SSTableBuilder(block_bytes=2048, prefix_compression=True)
    compressed.add_all(cells)
    table_plain = plain.finish()
    table_compressed = compressed.finish()
    assert table_compressed.total_bytes < 0.6 * table_plain.total_bytes
    # data itself is identical
    assert list(table_compressed.all_cells()) == list(table_plain.all_cells())


def test_block_bytes_per_block():
    cells = index_like_cells(60)
    builder = SSTableBuilder(block_bytes=512, prefix_compression=True)
    builder.add_all(cells)
    table = builder.finish()
    assert sum(table.block_bytes(i) for i in range(table.num_blocks)) \
        == table.total_bytes


def test_compressed_index_end_to_end():
    """A compressed index behaves identically; more of it fits in cache."""
    cluster = MiniCluster(num_servers=2, seed=43).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_FULL),
                         prefix_compression=True)
    client = cluster.new_client()
    for i in range(40):
        cluster.run(client.put("t", f"item{i:06d}".encode(),
                               {"c": f"shared-title-{i % 4}".encode()}))
    got = cluster.run(client.get_by_index("ix", equals=[b"shared-title-1"]))
    assert len(got) == 10
    assert check_index(cluster, "ix").is_consistent
    # flush the index regions: flushed SSTables carry the flag
    index_table = cluster.index_descriptor("ix").table_name
    for info in cluster.master.layout[index_table]:
        server = cluster.servers[info.server_name]
        region = server.regions[info.region_name]
        if len(region.tree._memtable) > 0:
            cluster.run(server.flush_region(region))
    for info in cluster.master.layout[index_table]:
        region = cluster.servers[info.server_name].regions[info.region_name]
        for sstable in region.tree._sstables:
            assert sstable.prefix_compressed
    # reads still correct from disk
    got = cluster.run(client.get_by_index("ix", equals=[b"shared-title-2"]))
    assert len(got) == 10


def test_compression_survives_compaction():
    from repro.lsm import CompactionPolicy, LSMConfig, LSMTree
    tree = LSMTree(config=LSMConfig(
        prefix_compression=True,
        compaction=CompactionPolicy(min_files=2, major_every=1)))
    for batch in range(2):
        for cell in index_like_cells(40):
            tree.add(Cell(cell.key, batch + 1, b""))
        handle = tree.prepare_flush()
        tree.complete_flush(handle)
    tree.compact()
    assert all(t.prefix_compressed for t in tree._sstables)
