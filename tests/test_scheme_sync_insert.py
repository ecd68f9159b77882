"""The sync-insert scheme (§4.2 + Algorithm 2): lazy repair semantics."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.core.verify import actual_entries
from repro.sim.kernel import Timeout


@pytest.fixture
def cluster():
    c = MiniCluster(num_servers=3, seed=7).start()
    c.create_table("t")
    c.create_index(IndexDescriptor("ix", "t", ("c",),
                                   scheme=IndexScheme.SYNC_INSERT))
    return c


@pytest.fixture
def client(cluster):
    return cluster.new_client()


def hits(cluster, client, value):
    return sorted(h.rowkey for h in
                  cluster.run(client.get_by_index("ix", equals=[value])))


def test_insert_visible_immediately(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"red"}))
    assert hits(cluster, client, b"red") == [b"r1"]


def test_update_leaves_stale_entry_physically(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    report = check_index(cluster, "ix")
    assert not report.missing          # never missing after a put
    assert len(report.stale) == 1     # the old entry is still there


def test_stale_entry_never_returned_to_clients(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    assert hits(cluster, client, b"old") == []
    assert hits(cluster, client, b"new") == [b"r1"]


def test_read_repairs_stale_entry(cluster, client):
    """Algorithm 2's SR2: the double-check deletes what it refutes."""
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    assert len(check_index(cluster, "ix").stale) == 1
    hits(cluster, client, b"old")     # the query triggers the repair
    assert check_index(cluster, "ix").is_consistent


def test_repair_is_selective(cluster, client):
    """Repair deletes only refuted entries, not fresh ones that share the
    queried value."""
    cluster.run(client.put("t", b"r1", {"c": b"v"}))   # stays at v
    cluster.run(client.put("t", b"r2", {"c": b"v"}))
    cluster.run(client.put("t", b"r2", {"c": b"w"}))   # r2's v goes stale
    assert hits(cluster, client, b"v") == [b"r1"]
    report = check_index(cluster, "ix")
    assert report.is_consistent


def test_update_counts_no_base_read(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"a"}))
    base = cluster.counters.snapshot()
    cluster.run(client.put("t", b"r1", {"c": b"b"}))
    diff = cluster.counters.since(base)
    assert diff.base_read == 0         # the whole point of sync-insert
    assert diff.index_put == 1
    assert diff.index_delete == 0


def test_read_pays_k_base_reads(cluster, client):
    for i in range(5):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"v"}))
    base = cluster.counters.snapshot()
    assert len(hits(cluster, client, b"v")) == 5
    diff = cluster.counters.since(base)
    assert diff.index_read == 1
    assert diff.base_read == 5         # K = 5 double-checks


def test_delete_leaves_stale_until_read(cluster, client):
    cluster.run(client.put("t", b"r1", {"c": b"red"}))
    cluster.run(client.delete("t", b"r1", columns=["c"]))
    # physically stale...
    assert len(actual_entries(cluster, cluster.index_descriptor("ix"))) == 1
    # ...but logically repaired on read:
    assert hits(cluster, client, b"red") == []
    assert check_index(cluster, "ix").is_consistent


def test_repeated_updates_accumulate_then_one_read_cleans(cluster, client):
    for i in range(6):
        cluster.run(client.put("t", b"r1", {"c": f"v{i}".encode()}))
    assert len(check_index(cluster, "ix").stale) == 5
    for i in range(6):
        hits(cluster, client, f"v{i}".encode())
    assert check_index(cluster, "ix").is_consistent


def test_range_read_repairs_everything_in_range():
    cluster = MiniCluster(num_servers=2, seed=8).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_INSERT))
    client = cluster.new_client()
    for i in range(8):
        cluster.run(client.put("t", f"r{i}".encode(),
                               {"c": f"k{i}".encode()}))
    for i in range(8):
        cluster.run(client.put("t", f"r{i}".encode(),
                               {"c": f"m{i}".encode()}))
    got = cluster.run(client.get_by_index("ix", low=b"k0", high=b"kz"))
    assert got == []    # all k* entries are stale and get repaired
    report = check_index(cluster, "ix")
    assert report.is_consistent


# -- the PI beside the base log write (DESIGN.md §11.3) -----------------------

def _put_spans(cluster):
    """The last put's root span, its ``wal_append`` child and the ``PI``
    under its ``sync_index`` child."""
    tracer = cluster.tracer
    put = tracer.spans("put")[-1]
    children = {span.name: span for span in tracer.children_of(put)}
    [pi] = [span for span in tracer.children_of(children["sync_index"])
            if span.name == "PI"]
    return put, children["wal_append"], pi


def test_update_waits_for_max_of_wal_and_pi(cluster, client):
    """The PI ships beside the base log write, so the put costs the
    longer of the two, not their sum."""
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    cluster.run(client.put("t", b"r1", {"c": b"new"}))
    put, wal, pi = _put_spans(cluster)
    assert pi.start_ms < wal.end_ms           # PI overlaps the log write
    assert put.duration_ms == pytest.approx(
        max(wal.duration_ms, pi.duration_ms), abs=0.01)
    assert put.duration_ms < wal.duration_ms + pi.duration_ms - 0.1


def _slow_base_log(cluster, row, extra_ms):
    """Slow only the log device of ``row``'s base server, which must not
    also host the index region, so the PI lands first."""
    base, _region = cluster.locate("t", row)
    index_table = cluster.index_descriptor("ix").table_name
    assert base is not cluster.locate(index_table, b"")[0]
    write_cost = base.log_device.write_cost
    base.log_device.write_cost = lambda records: (write_cost(records)
                                                  + extra_ms)
    return lambda: setattr(base.log_device, "write_cost", write_cost)


def _poll(client, value, until):
    """Query ``value`` every 0.2 sim-ms until ``until`` resolves; returns
    the rows each query found."""
    seen = []
    while not until.future.done():
        found = yield from client.get_by_index("ix", equals=[value])
        seen.append(sorted(h.rowkey for h in found))
        yield Timeout(0.2)
    return seen


def test_read_racing_pi_before_base_never_repairs(cluster, client):
    """A reader that finds the entry before its base cell must filter it
    and leave it alone: it belongs to a put still in flight."""
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    restore = _slow_base_log(cluster, b"r1", extra_ms=5.0)
    metrics = cluster.metrics
    deletes = cluster.counters.snapshot()
    put = cluster.spawn(client.put("t", b"r1", {"c": b"new"}))
    seen = cluster.run(_poll(cluster.new_client(), b"new", put))
    restore()
    # Nothing was repaired, and the acked put is found.
    assert cluster.counters.since(deletes).index_delete == 0
    assert hits(cluster, client, b"new") == [b"r1"]
    assert not check_index(cluster, "ix").missing
    # The entry was found and filtered while the base cell was missing,
    # and answered from the moment the cell landed.
    assert seen[0] == [] and seen == sorted(seen)
    assert set(map(tuple, seen)) <= {(), (b"r1",)}
    assert metrics.total("read_repair_deferred") > 0
    assert metrics.total("read_repair_repairs") == 0


def test_deleted_row_entry_still_repaired(cluster, client):
    """A tombstone newer than the entry refutes it: the read repairs it,
    even though the row has no value left to compare."""
    cluster.run(client.put("t", b"r1", {"c": b"red"}))
    cluster.run(client.delete("t", b"r1", columns=["c"]))
    before = cluster.counters.snapshot()
    assert hits(cluster, client, b"red") == []
    assert cluster.counters.since(before).index_delete == 1
    assert cluster.metrics.total("read_repair_repairs") == 1
    assert cluster.metrics.total("read_repair_deferred") == 0
    assert check_index(cluster, "ix").is_consistent
