"""End-to-end acceptance: the paper's full setup at miniature scale.

One cluster, the extended-YCSB item table with BOTH paper indexes
(title + price), a mixed workload with inserts/updates/deletes/reads/
ranges, a mid-run region-server crash, scheme switching — and at the end
every index verifies exactly consistent."""

import pytest

from repro import (IndexDescriptor, IndexScheme, IndexScope, MiniCluster,
                   check_index)
from repro.query import Eq, plan_query, query
from repro.sim.random import RandomStream
from repro.ycsb import (CoreWorkload, ItemSchema, OpType, load_direct,
                        FILLER_COLUMNS, INDEXED_PRICE_COLUMN, TITLE_COLUMN)


@pytest.fixture(scope="module")
def world():
    schema = ItemSchema(record_count=600, title_cardinality=120)
    cluster = MiniCluster(num_servers=4, seed=31,
                          heartbeat_timeout_ms=800.0).start()
    cluster.create_table("item", split_keys=schema.split_keys(8))
    load_direct(cluster, schema, "item")
    cluster.create_index(
        IndexDescriptor("item_title", "item", (TITLE_COLUMN,),
                        scheme=IndexScheme.ASYNC_SIMPLE),
        split_keys=schema.title_split_keys(4))
    cluster.create_index(
        IndexDescriptor("item_price", "item", (INDEXED_PRICE_COLUMN,),
                        scheme=IndexScheme.SYNC_FULL),
        split_keys=schema.price_split_keys(4))
    cluster.create_index(
        IndexDescriptor("item_title_local", "item", (TITLE_COLUMN,),
                        scheme=IndexScheme.SYNC_FULL,
                        scope=IndexScope.LOCAL))
    return cluster, schema


def test_full_lifecycle(world):
    cluster, schema = world
    client = cluster.new_client()
    rng = RandomStream(99)
    workload = CoreWorkload(schema, proportions={
        OpType.UPDATE: 0.45, OpType.INSERT: 0.1, OpType.INDEX_READ: 0.25,
        OpType.BASE_READ: 0.1, OpType.INDEX_RANGE: 0.1},
        range_selectivity=0.01)

    def mixed(ops):
        for _ in range(ops):
            op = workload.next_op(rng)
            if op == OpType.UPDATE:
                row, values = workload.next_update(rng)
                yield from client.put("item", row, values)
            elif op == OpType.INSERT:
                row, values = workload.next_insert(rng)
                yield from client.put("item", row, values)
            elif op == OpType.INDEX_READ:
                title = workload.next_title_query(rng)
                yield from client.get_by_index("item_title",
                                               equals=[title])
            elif op == OpType.INDEX_RANGE:
                low, high = workload.next_price_range(rng)
                yield from client.get_by_index("item_price",
                                               low=low, high=high)
            else:
                yield from client.get("item", workload.next_rowkey(rng))

    # Phase 1: mixed traffic.
    cluster.run(mixed(250), name="phase1")

    # Phase 2: crash the busiest server mid-traffic and keep going.
    victim = max(cluster.servers.values(),
                 key=lambda s: len(s.regions)).name
    cluster.kill_server(victim)
    cluster.run(mixed(150), name="phase2")
    while victim not in cluster.coordinator.recoveries_completed:
        cluster.advance(100.0)

    # Phase 3: a few deletes and a scheme switch under traffic.
    for i in range(10):
        cluster.run(client.delete(
            "item", schema.rowkey(i),
            columns=[TITLE_COLUMN, INDEXED_PRICE_COLUMN, *FILLER_COLUMNS]))
    cluster.run(cluster.change_index_scheme("item_title",
                                            IndexScheme.SYNC_FULL).wait())
    cluster.run(mixed(100), name="phase3")

    # Quiesce; every index must be exactly consistent.
    cluster.quiesce()
    for index_name in ("item_title", "item_price", "item_title_local"):
        report = check_index(cluster, index_name)
        assert report.is_consistent, report

    # Cross-check the two title indexes agree with each other.
    title = schema.title_for(42)
    via_global = sorted(h.rowkey for h in cluster.run(
        client.get_by_index("item_title", equals=[title])))
    via_local = sorted(h.rowkey for h in cluster.run(
        client.get_by_index("item_title_local", equals=[title])))
    assert via_global == via_local

    # And the query planner produces the same rows as a broadcast scan.
    predicate = Eq(TITLE_COLUMN, title)
    plan = plan_query(cluster, "item", predicate)
    assert plan.access_path == "index"
    rows = cluster.run(query(cluster, client, "item", predicate))
    assert sorted(r[0] for r in rows) == via_global

    # Deleted rows are gone from every index.
    deleted_title = schema.title_for(0)
    hits = cluster.run(client.get_by_index("item_title",
                                           equals=[deleted_title]))
    assert schema.rowkey(0) not in {h.rowkey for h in hits}
