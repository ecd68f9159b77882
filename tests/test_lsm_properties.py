"""Property tests: the LSM tree against a model map under random
operation/flush/compaction interleavings, the bounded point-read walk
against the exhaustive collector, and concurrent-writer consistency for
sync-full."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.lsm import Cell, CompactionPolicy, KeyRange, LSMConfig, LSMTree
from repro.sim.kernel import all_of

KEYS = [f"k{i}".encode() for i in range(8)]

# op: (key_idx, value_idx | None=delete) plus control markers
op_strategy = st.one_of(
    st.tuples(st.integers(0, len(KEYS) - 1),
              st.one_of(st.none(), st.integers(0, 5))),
    st.just("flush"),
    st.just("compact"),
)

relaxed = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@relaxed
@given(st.lists(op_strategy, min_size=1, max_size=60))
def test_lsm_tree_matches_model_map(ops):
    """Visible state == a plain dict, no matter how writes interleave
    with flushes and compactions."""
    tree = LSMTree(config=LSMConfig(
        flush_threshold_bytes=10 ** 9,   # flush only when we say so
        compaction=CompactionPolicy(min_files=2, major_every=2)))
    model = {}
    ts = 0
    for op in ops:
        if op == "flush":
            handle = tree.prepare_flush()
            if handle is not None:
                tree.complete_flush(handle)
        elif op == "compact":
            tree.compact()
        else:
            key_idx, value_idx = op
            ts += 1
            key = KEYS[key_idx]
            if value_idx is None:
                tree.add(Cell(key, ts, None))
                model.pop(key, None)
            else:
                value = f"v{value_idx}".encode()
                tree.add(Cell(key, ts, value))
                model[key] = value

    for key in KEYS:
        got = tree.get(key)
        if key in model:
            assert got is not None and got.value == model[key], key
        else:
            assert got is None, key

    scanned = {c.key: c.value for c in tree.scan(KeyRange())}
    assert scanned == model


@relaxed
@given(st.lists(op_strategy, min_size=1, max_size=60))
def test_lsm_scan_is_sorted_and_deduped(ops):
    tree = LSMTree(config=LSMConfig(flush_threshold_bytes=10 ** 9))
    ts = 0
    for op in ops:
        if op == "flush":
            handle = tree.prepare_flush()
            if handle is not None:
                tree.complete_flush(handle)
        elif op == "compact":
            tree.compact()
        else:
            key_idx, value_idx = op
            ts += 1
            value = None if value_idx is None else b"v"
            tree.add(Cell(KEYS[key_idx], ts, value))
    cells = tree.scan(KeyRange())
    keys = [c.key for c in cells]
    assert keys == sorted(set(keys))


# One component's cells: (key_idx, ts, is_tombstone).  Timestamps come
# from a tiny range and are NOT ordered by component, so equal-ts
# value+tombstone pairs, equal-ts duplicates across components and files
# whose [min_ts, max_ts] windows interleave are all common.
component_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 6), st.booleans()),
    min_size=1, max_size=8)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(component_strategy, min_size=0, max_size=5),
       st.one_of(st.none(), component_strategy), component_strategy,
       st.one_of(st.none(), st.integers(0, 7)))
def test_bounded_get_equals_exhaustive_resolution(flushed, sealed, active,
                                                  max_ts):
    """``get`` stops early and skips files by their timestamp window;
    ``get_versions`` collects every version from every component.  They
    must agree on the visible cell — same ts AND same value, so the
    first-seen-wins rule for equal-ts duplicates is held too — for every
    key, whatever order the components' timestamps come in."""
    tree = LSMTree(config=LSMConfig(flush_threshold_bytes=10 ** 9))

    def fill(component, tag):
        for n, (key_idx, ts, tomb) in enumerate(component):
            tree.add(Cell(KEYS[key_idx], ts,
                          None if tomb else f"{tag}.{n}".encode()))

    for i, component in enumerate(flushed):
        fill(component, f"sst{i}")
        tree.complete_flush(tree.prepare_flush())
    if sealed is not None:
        fill(sealed, "sealed")
        tree.prepare_flush()            # stays a flushing memtable
    fill(active, "active")

    for key in KEYS[:3]:
        reference = tree.get_versions(key, 1, max_ts)
        got = tree.get(key, max_ts)
        if not reference:
            assert got is None, (key, got)
        else:
            assert got is not None, (key, reference)
            assert (got.ts, got.value) == (reference[0].ts,
                                           reference[0].value), key


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
             min_size=1, max_size=8),
    min_size=2, max_size=4))
def test_concurrent_sync_full_writers_always_consistent(writer_scripts):
    """Several clients write concurrently to overlapping rows; whatever
    interleaving the row locks produce, the sync-full index must match
    the final base state exactly."""
    cluster = MiniCluster(num_servers=3, seed=len(writer_scripts)).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_FULL))

    def writer(client, script):
        for row_idx, value_idx in script:
            yield from client.put("t", f"row{row_idx}".encode(),
                                  {"c": f"val{value_idx}".encode()})

    procs = []
    for i, script in enumerate(writer_scripts):
        client = cluster.new_client(f"w{i}")
        procs.append(cluster.spawn(writer(client, script), name=f"w{i}"))
    cluster.sim.run_until_complete(all_of(cluster.sim, procs))
    cluster.quiesce()   # drain any fault-degraded stragglers (none expected)
    report = check_index(cluster, "ix")
    assert report.is_consistent, (writer_scripts, report)
