"""The item table's index pre-splits spread entries over every region.

The paper pre-splits its tables "to spread load evenly" (§8.1).  A split
key built with another encoder than the index's own entries lands outside
the index keyspace: a price split at ``encode_value(float)`` (tag 0x03)
sorts below every price entry (tag 0x04 wrapping the stored bytes), so all
entries and every range scan went to the last region."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster
from repro.core.encoding import encode_value, index_prefix, index_split_keys
from repro.ycsb import (INDEXED_PRICE_COLUMN, TITLE_COLUMN, ItemSchema,
                        load_direct)
from repro.ycsb.schema import PRICE_MAX, PRICE_MIN

REGIONS = 4


def test_index_split_keys_use_the_entry_encoder():
    values = [b"a\x00b", "title", 7, -1.5, encode_value(2.0), None]
    assert index_split_keys(values) == [index_prefix([v]) for v in values]
    assert index_split_keys([]) == []


def test_price_split_keys_fall_inside_the_price_keyspace():
    schema = ItemSchema(100)
    lowest = encode_value(schema.price_bytes(PRICE_MIN))
    highest = encode_value(schema.price_bytes(PRICE_MAX))
    # ROADMAP 11(h)'s repro: True while every split key sorted below the
    # cheapest price entry.
    assert not all(lowest > k for k in schema.price_split_keys(REGIONS))
    assert all(lowest < k < highest
               for k in schema.price_split_keys(REGIONS))


@pytest.fixture(scope="module")
def backfilled():
    schema = ItemSchema(4000, title_cardinality=800)
    cluster = MiniCluster(num_servers=4, seed=5).start()
    cluster.create_table("item", split_keys=schema.split_keys(REGIONS))
    load_direct(cluster, schema, "item")
    cluster.create_index(
        IndexDescriptor("item_title", "item", (TITLE_COLUMN,),
                        scheme=IndexScheme.SYNC_FULL),
        split_keys=schema.title_split_keys(REGIONS))
    cluster.create_index(
        IndexDescriptor("item_price", "item", (INDEXED_PRICE_COLUMN,),
                        scheme=IndexScheme.SYNC_FULL),
        split_keys=schema.price_split_keys(REGIONS))
    return cluster, schema


@pytest.mark.parametrize("index_name", ["item_title", "item_price"])
def test_backfilled_index_is_spread_over_its_regions(backfilled, index_name):
    cluster, schema = backfilled
    table = cluster.index_descriptor(index_name).table_name
    infos = cluster.master.layout[table]
    assert len(infos) == REGIONS
    counts = [len(cluster.servers[info.server_name]
                  .regions[info.region_name].scan_rows(info.key_range))
              for info in infos]
    assert sum(counts) == schema.record_count
    for count in counts:
        assert 0.15 <= count / schema.record_count <= 0.35, counts
