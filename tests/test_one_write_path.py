"""A single row is a batch of one: ``client.put``/``client.delete`` and a
one-row ``batch_mutate`` take the same server path (one ``handle_mutate``
RPC, one ``post_batch`` hook, index entries through ``handle_index_ops``)
and so cost and produce exactly the same thing, under every scheme."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, MutationBatch
from repro.core.verify import actual_entries

SCHEMES = [IndexScheme.SYNC_FULL, IndexScheme.SYNC_INSERT,
           IndexScheme.ASYNC_SIMPLE, IndexScheme.ASYNC_SESSION,
           IndexScheme.VALIDATION]

# Inserts, an update that moves an index entry, and a delete of the
# indexed column — every statement kind the observers distinguish.
SCRIPT = [
    ("put", b"a01", {"c": b"red", "x": b"1"}),
    ("put", b"z01", {"c": b"blue"}),
    ("put", b"a01", {"c": b"green"}),
    ("del", b"z01", ["c"]),
    ("put", b"z01", {"c": b"red"}),
]


def _cluster(scheme):
    cluster = MiniCluster(num_servers=3, seed=11).start()
    cluster.create_table("t", split_keys=[b"m"])
    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme))
    return cluster


def _single(client, kind, row, payload):
    if kind == "put":
        return client.put("t", row, payload)
    return client.delete("t", row, payload)


def _batch_of_one(client, kind, row, payload):
    batch = MutationBatch("t")
    if kind == "put":
        batch.put(row, payload)
    else:
        batch.delete(row, payload)
    (ts,) = yield from client.batch_mutate(batch)
    return ts


def _run(scheme, write):
    """Apply SCRIPT one statement at a time; per statement record the
    timestamp, the sim time it completed at and the Table 2 counters."""
    cluster = _cluster(scheme)
    client = cluster.new_client()
    trace = []
    for kind, row, payload in SCRIPT:
        ts = cluster.run(write(client, kind, row, payload))
        trace.append((ts, cluster.sim.now(), cluster.counters.snapshot()))
    cluster.quiesce()
    entries = actual_entries(cluster, cluster.index_descriptor("ix"))
    return trace, entries


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_single_row_call_equals_one_row_batch(scheme):
    single, single_entries = _run(scheme, _single)
    batched, batched_entries = _run(scheme, _batch_of_one)
    assert single == batched
    assert single_entries == batched_entries
    assert single_entries        # the script leaves live entries behind


def test_two_indexes_on_one_server_share_one_rpc_per_phase():
    """A sync-full put touching two indexes whose regions share a server
    ships one grouped PI call and one grouped DI call to it, not one per
    index."""
    cluster = MiniCluster(num_servers=2, seed=4).start()
    cluster.create_table("t")
    for name, column in (("ix_a", "a"), ("ix_b", "b")):
        cluster.create_index(IndexDescriptor(
            name, "t", (column,), scheme=IndexScheme.SYNC_FULL))
    [base] = cluster.master.layout["t"]
    target = next(n for n in cluster.servers if n != base.server_name)
    for name in ("ix_a", "ix_b"):
        table = cluster.index_descriptor(name).table_name
        [info] = cluster.master.layout[table]
        if info.server_name != target:
            assert cluster.run(cluster.placement.move_region(
                table, info.region_name, target))
    client = cluster.new_client()
    cluster.run(client.put("t", b"r", {"a": b"1", "b": b"1"}))

    server = cluster.servers[target]
    calls = []
    original = server.handle_index_ops

    def recording(ops, background=True):
        calls.append(sorted((op[0], op[1]) for op in ops))
        return original(ops, background=background)

    server.handle_index_ops = recording
    cluster.run(client.put("t", b"r", {"a": b"2", "b": b"2"}))
    tables = sorted(cluster.index_descriptor(name).table_name
                    for name in ("ix_a", "ix_b"))
    assert calls == [[("put", table) for table in tables],
                     [("del", table) for table in tables]]
