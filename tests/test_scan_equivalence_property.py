"""Property: every scan engine returns byte-identical results.

The remix cursor walk (with and without the learned block index) and the
legacy heap merge are three implementations of one specification —
``scan`` returns the newest visible version per key, in key order, under
tombstone masking and ``max_ts`` pinning.  Hypothesis drives random
put/delete/flush/compact interleavings through all three and insists the
outputs never diverge, for full scans, subranges and historical reads;
a second test checks the same equivalence end-to-end through the cluster
for every Diff-Index scheme.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (IndexDescriptor, IndexScheme, KeyRange, MiniCluster,
                   check_index)
from repro.lsm.tree import LSMConfig, LSMTree
from repro.lsm.types import Cell


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


def engines():
    return {
        "remix+learned": LSMTree(config=LSMConfig(
            remix_enabled=True, learned_index=True)),
        "remix": LSMTree(config=LSMConfig(
            remix_enabled=True, learned_index=False)),
        "heap": LSMTree(config=LSMConfig(
            remix_enabled=False, learned_index=False)),
    }


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops, st.integers(0, 15), st.integers(0, 15),
       st.one_of(st.none(), st.integers(1, 30)))
def test_all_engines_scan_identically(history, lo, hi, max_ts):
    trees = engines()
    for tree in trees.values():
        apply_ops(tree, history)
    ranges = [KeyRange(b"", None),
              KeyRange(key(min(lo, hi)), key(max(lo, hi))),
              KeyRange(key(lo), None)]
    baseline = trees.pop("heap")
    for key_range in ranges:
        expected = baseline.scan(key_range, max_ts=max_ts)
        for name, tree in trees.items():
            got = tree.scan(key_range, max_ts=max_ts)
            assert got == expected, (name, key_range, max_ts)
        limited = baseline.scan(key_range, max_ts=max_ts, limit=3)
        for name, tree in trees.items():
            assert (tree.scan(key_range, max_ts=max_ts, limit=3)
                    == limited), (name, key_range)


SCHEMES = [IndexScheme.SYNC_INSERT, IndexScheme.SYNC_FULL,
           IndexScheme.ASYNC_SIMPLE, IndexScheme.ASYNC_SESSION]


def run_workload(remix, scheme):
    cluster = MiniCluster(num_servers=3, seed=7,
                          storage=LSMConfig(remix_enabled=remix)).start()
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
    index_cells = cluster.run(
        client.scan_table(IndexDescriptor("ix", "t", ("c",)).table_name,
                          KeyRange()))
    base_cells = cluster.run(client.scan_table("t", KeyRange()))
    report = check_index(cluster, "ix")
    return ([(c.key, c.value) for c in index_cells],
            [(c.key, c.value) for c in base_cells],
            report.is_consistent)


def test_cluster_scans_identical_across_engines_all_schemes():
    """Same workload, same seed, both engines: byte-identical base and
    index table contents for every scheme (and a consistent index for
    sync-full — sync-insert keeps stale entries by design and the async
    schemes converge via the AUQ, all equally on both engines)."""
    for scheme in SCHEMES:
        remix = run_workload(True, scheme)
        heap = run_workload(False, scheme)
        assert remix == heap, scheme
        if scheme is IndexScheme.SYNC_FULL:
            assert remix[2], scheme
