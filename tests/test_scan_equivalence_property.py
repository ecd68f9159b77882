"""Property: the REMIX cursor walk scans exactly like a K-way heap merge.

``LSMTree.scan`` walks one cross-SSTable sorted view.  The specification
it must meet is the classic LSM scan — heap-merge one stream per
memtable and SSTable, and resolve each key to its newest visible version
under tombstone masking and ``max_ts`` pinning — kept here as the
test-local reference :func:`heap_scan`.  Hypothesis drives random
put/delete/flush/compact interleavings and insists the two never
diverge, for full scans, subranges and historical reads; a second test
holds every region of a running cluster to the same reference for every
Diff-Index scheme.
"""

from typing import Iterator, List, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (IndexDescriptor, IndexScheme, KeyRange, MiniCluster,
                   check_index)
from repro.lsm.iterators import merge_key_streams, resolve_get
from repro.lsm.tree import LSMTree, ReadStats
from repro.lsm.types import Cell


def _sstable_stream(tree: LSMTree, sstable, key_range: KeyRange,
                    stats: Optional[ReadStats],
                    ) -> Iterator[Tuple[bytes, List[Cell]]]:
    """One SSTable's cells in ``key_range``, grouped by key, charging each
    block the walk opens."""
    current_key: Optional[bytes] = None
    bucket: List[Cell] = []
    last_block = -1
    for block_id in sstable.blocks_for_range(key_range):
        for cell in sstable.get_block(block_id):
            if cell.key < key_range.start:
                continue
            if key_range.end is not None and cell.key >= key_range.end:
                break
            if block_id != last_block:
                tree._charge_block(sstable, block_id, stats)
                last_block = block_id
            if cell.key != current_key:
                if bucket:
                    yield current_key, bucket
                current_key = cell.key
                bucket = []
            bucket.append(cell)
    if bucket:
        yield current_key, bucket


def heap_scan(tree: LSMTree, key_range: KeyRange,
              max_ts: Optional[int] = None, limit: Optional[int] = None,
              stats: Optional[ReadStats] = None) -> List[Cell]:
    """The reference scan: heap-merge one stream per component of
    ``tree`` (memtables first, then SSTables newest first) and keep each
    key's newest visible version at or before ``max_ts``."""
    streams = []
    for memtable in [tree._memtable] + [h.memtable for h in tree._flushing]:
        streams.append(memtable.scan(key_range))
        if stats is not None:
            stats.memtable_probes += 1
    for sstable in tree._sstables:
        streams.append(_sstable_stream(tree, sstable, key_range, stats))
    out: List[Cell] = []
    for _key, cells in merge_key_streams(streams):
        if max_ts is not None:
            cells = [c for c in cells if c.ts <= max_ts]
        visible = resolve_get(cells)
        if visible is not None:
            out.append(visible)
            if limit is not None and len(out) >= limit:
                break
    return out


def key(i):
    return b"k%03d" % i


ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 15), st.integers(1, 30)),
        st.tuples(st.just("del"), st.integers(0, 15), st.integers(1, 30)),
        st.tuples(st.just("flush"), st.none(), st.none()),
        st.tuples(st.just("compact"), st.none(), st.none()),
    ),
    min_size=1, max_size=40)


def apply_ops(tree, history):
    for op, arg, ts in history:
        if op == "put":
            tree.add(Cell(key(arg), ts, b"v%d" % ts))
        elif op == "del":
            tree.add(Cell(key(arg), ts, None))
        elif op == "flush":
            handle = tree.prepare_flush()
            if handle is not None:
                tree.complete_flush(handle)
        elif op == "compact":
            tree.compact()


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops, st.integers(0, 15), st.integers(0, 15),
       st.one_of(st.none(), st.integers(1, 30)))
def test_all_engines_scan_identically(history, lo, hi, max_ts):
    tree = LSMTree()
    apply_ops(tree, history)
    ranges = [KeyRange(b"", None),
              KeyRange(key(min(lo, hi)), key(max(lo, hi))),
              KeyRange(key(lo), None)]
    for key_range in ranges:
        assert (tree.scan(key_range, max_ts=max_ts)
                == heap_scan(tree, key_range, max_ts=max_ts)), (
                    key_range, max_ts)
        assert (tree.scan(key_range, max_ts=max_ts, limit=3)
                == heap_scan(tree, key_range, max_ts=max_ts, limit=3)), (
                    key_range, max_ts)


SCHEMES = [IndexScheme.SYNC_INSERT, IndexScheme.SYNC_FULL,
           IndexScheme.ASYNC_SIMPLE, IndexScheme.ASYNC_SESSION]


def run_workload(scheme):
    cluster = MiniCluster(num_servers=3, seed=7).start()
    cluster.create_table("t", flush_threshold_bytes=4096)
    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme))
    client = cluster.new_client()

    def driver():
        for i in range(60):
            yield from client.put("t", b"r%03d" % i,
                                  {"c": b"v%02d" % (i % 9),
                                   "pad": b"x" * 40})
        for i in range(0, 60, 4):
            yield from client.put("t", b"r%03d" % i,
                                  {"c": b"v%02d" % ((i + 1) % 9)})
        for i in range(0, 60, 7):
            yield from client.delete("t", b"r%03d" % i, ["c", "pad"])
    cluster.run(driver())
    cluster.quiesce()
    return cluster


def test_cluster_scans_identical_across_engines_all_schemes():
    """Every region's cursor walk equals the reference heap merge over
    the same memtables and flushed files, base and index tables alike,
    for every scheme — on trees a real cluster flushed and compacted (and
    a consistent index for sync-full, whose reads trust it)."""
    for scheme in SCHEMES:
        cluster = run_workload(scheme)
        sstables = 0
        for server in cluster.alive_servers():
            for region in server.regions.values():
                tree = region.tree
                sstables += tree.sstable_count
                for max_ts in (None, cluster.sim.now() / 2):
                    bound = None if max_ts is None else int(max_ts)
                    assert (tree.scan(KeyRange(), max_ts=bound)
                            == heap_scan(tree, KeyRange(), max_ts=bound)), (
                                scheme, region.name, max_ts)
        assert sstables > 0, scheme
        if scheme is IndexScheme.SYNC_FULL:
            assert check_index(cluster, "ix").is_consistent
