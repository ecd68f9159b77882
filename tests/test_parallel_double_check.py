"""The parallel sync-insert double-check (Algorithm 2 over multiget) must
be observably identical to the sequential reference: same counters, same
per-row charges, same repairs, same final index state."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.cluster.region import compose_cell_key
from repro.core import reader
from repro.core.encoding import encode_index_key
from repro.core.index import extract_index_values


def newest_indexed_ts(cluster, index, row):
    """Uncharged oracle: the newest ts among ``row``'s indexed cells,
    value or tombstone, from every version its LSM tree holds."""
    server, region_name = cluster.locate(index.base_table, row)
    tree = server.regions[region_name].tree
    return max((cell.ts for col in index.columns
                for cell in tree._collect_cells(compose_cell_key(row, col),
                                                None, None)), default=-1)


def double_check_sequential(client, index, hits):
    """The pre-scatter reference: one round trip per candidate, the
    readable spec of Algorithm 2's per-hit logic."""
    metrics = client.cluster.metrics
    checks = metrics.counter("read_repair_checks", index=index.name)
    repairs = metrics.counter("read_repair_repairs", index=index.name)
    deferred = metrics.counter("read_repair_deferred", index=index.name)
    confirmed = []
    for hit in hits:
        checks.inc()
        row_data = yield from client.get(index.base_table, hit.rowkey,
                                         columns=list(index.columns))
        current = {col: value for col, (value, _ts) in row_data.items()}
        if extract_index_values(index, current) == hit.values:
            confirmed.append(hit)
        elif newest_indexed_ts(client.cluster, index, hit.rowkey) >= hit.ts:
            repairs.inc()
            yield from client.delete_index_entry(index.table_name,
                                                 hit.index_key, hit.ts)
        else:
            deferred.inc()     # no cell as new as the entry: leave it
    return confirmed


def build(seed=11):
    cluster = MiniCluster(num_servers=3, seed=seed).start()
    cluster.create_table("t", split_keys=[b"r3", b"r6"])
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_INSERT))
    return cluster, cluster.new_client()


def modes(monkeypatch):
    """Yields True (the parallel double-check), then swaps in the
    sequential reference for the rest of the test and yields False."""
    yield True
    monkeypatch.setattr(reader, "_double_check", double_check_sequential)
    yield False


def seeded_workload(cluster, client):
    """9 rows sharing value v across 3 regions; 5 of them then move to w,
    leaving 5 stale v-entries for the double-check to refute."""
    for i in range(9):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"v"}))
    for i in range(0, 9, 2):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"w"}))


def repair_counters(cluster):
    metrics = cluster.metrics
    return (metrics.counter("read_repair_checks", index="ix").value,
            metrics.counter("read_repair_repairs", index="ix").value)


@pytest.mark.parametrize("value, expected_rows", [
    (b"v", [b"r1", b"r3", b"r5", b"r7"]),
    (b"w", [b"r0", b"r2", b"r4", b"r6", b"r8"]),
])
def test_parallel_matches_sequential_everything(monkeypatch, value,
                                                 expected_rows):
    observations = {}
    for mode in modes(monkeypatch):
        cluster, client = build()
        seeded_workload(cluster, client)
        before = cluster.counters.snapshot()
        hits = cluster.run(client.get_by_index("ix", equals=[value]))
        diff = cluster.counters.since(before)
        report = check_index(cluster, "ix")
        observations[mode] = {
            "rows": sorted(h.rowkey for h in hits),
            "counters": repair_counters(cluster),
            "base_read": diff.base_read,
            "index_read": diff.index_read,
            "index_delete": diff.index_delete,
            "stale_after": sorted(report.stale),
        }
    assert observations[True] == observations[False]
    assert observations[True]["rows"] == expected_rows


def deletes_and_an_unbacked_entry(cluster, client):
    """r0..r5 hold v; r1 and r4 then lose the column, so a tombstone newer
    than their entries refutes them.  r9 gets a v-entry above every base
    ts with no cell behind it, as a put still in its base log write
    leaves one: the check must filter it and keep it."""
    for i in range(6):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"v"}))
    for row in (b"r1", b"r4"):
        cluster.run(client.delete("t", row, columns=["c"]))
    index_table = cluster.index_descriptor("ix").table_name
    key = encode_index_key([b"v"], b"r9")
    server, _region = cluster.locate(index_table, key)
    cluster.run(server.handle_index_ops(
        [("put", index_table, key, cluster.ts_floor + 1000)],
        background=False))


def test_parallel_matches_sequential_on_tombstones_and_unbacked_entries(
        monkeypatch):
    observations = {}
    for mode in modes(monkeypatch):
        cluster, client = build()
        deletes_and_an_unbacked_entry(cluster, client)
        before = cluster.counters.snapshot()
        hits = cluster.run(client.get_by_index("ix", equals=[b"v"]))
        diff = cluster.counters.since(before)
        observations[mode] = {
            "rows": sorted(h.rowkey for h in hits),
            "counters": repair_counters(cluster),
            "deferred": cluster.metrics.counter(
                "read_repair_deferred", index="ix").value,
            "base_read": diff.base_read,
            "index_delete": diff.index_delete,
            "stale_after": sorted(check_index(cluster, "ix").stale),
        }
    assert observations[True] == observations[False]
    assert observations[True]["rows"] == [b"r0", b"r2", b"r3", b"r5"]
    assert observations[True]["counters"] == (7, 2)
    assert observations[True]["deferred"] == 1
    assert len(observations[True]["stale_after"]) == 1     # r9's, kept


def test_parallel_read_pays_k_base_reads_across_regions():
    """Table 2 parity on a multi-region table: K candidates cost exactly K
    base reads and 1 index read even when they travel as ~3 multigets."""
    cluster, client = build()
    for i in range(9):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"v"}))
    before = cluster.counters.snapshot()
    hits = cluster.run(client.get_by_index("ix", equals=[b"v"]))
    diff = cluster.counters.since(before)
    assert len(hits) == 9
    assert diff.base_read == 9
    assert diff.index_read == 1


def test_duplicate_rowkey_range_query_charges_match(monkeypatch):
    """A range query can return several (stale) entries for ONE row; the
    multiget must keep the duplicates so every entry is charged its own
    base read, exactly like the sequential loop."""
    observations = {}
    for mode in modes(monkeypatch):
        cluster, client = build()
        cluster.run(client.put("t", b"r1", {"c": b"a"}))
        cluster.run(client.put("t", b"r1", {"c": b"b"}))
        cluster.run(client.put("t", b"r1", {"c": b"c"}))
        before = cluster.counters.snapshot()
        hits = cluster.run(client.get_by_index("ix", low=b"a", high=b"c"))
        diff = cluster.counters.since(before)
        observations[mode] = {
            "rows": [(h.rowkey, h.values) for h in hits],
            "counters": repair_counters(cluster),
            "base_read": diff.base_read,
        }
    assert observations[True] == observations[False]
    # Three entries (a and b stale, c live) → 3 checks, 3 base reads,
    # 2 repairs, one confirmed hit.
    assert observations[True]["base_read"] == 3
    assert observations[True]["counters"] == (3, 2)
    assert observations[True]["rows"] == [(b"r1", (b"c",))]


def test_repair_converges_to_consistent_index_in_both_modes(monkeypatch):
    for mode in modes(monkeypatch):
        cluster, client = build()
        seeded_workload(cluster, client)
        assert len(check_index(cluster, "ix").stale) == 5
        cluster.run(client.get_by_index("ix", equals=[b"v"]))
        assert check_index(cluster, "ix").is_consistent
