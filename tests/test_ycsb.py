"""The YCSB workload substrate: distributions, schema, mixes, drivers."""

import pytest

from repro.sim.random import RandomStream
from repro.ycsb import (CoreWorkload, ItemSchema, OpType, Uniform, Zipfian,
                        make_chooser)
from repro.ycsb.schema import PRICE_MAX, PRICE_MIN
from repro.ycsb.stats import LatencyRecorder


# -- distributions ---------------------------------------------------------------

def draw(chooser, n=5000, seed=1):
    rng = RandomStream(seed)
    return [chooser.next_index(rng) for _ in range(n)]


def test_uniform_in_range_and_spread():
    samples = draw(Uniform(100))
    assert all(0 <= s < 100 for s in samples)
    assert len(set(samples)) > 90


def test_zipfian_in_range_and_skewed():
    samples = draw(Zipfian(1000))
    assert all(0 <= s < 1000 for s in samples)
    head = sum(1 for s in samples if s < 10)
    assert head / len(samples) > 0.3     # heavy head


def test_zipfian_rank_frequency_decreases():
    samples = draw(Zipfian(1000), n=20000)
    from collections import Counter
    counts = Counter(samples)
    assert counts[0] > counts.get(50, 0) > counts.get(500, 0) - 5


def test_make_chooser_names():
    assert isinstance(make_chooser("uniform", 10), Uniform)
    assert isinstance(make_chooser("zipfian", 10), Zipfian)
    with pytest.raises(ValueError):
        make_chooser("nope", 10)


def test_invalid_item_count():
    with pytest.raises(ValueError):
        Uniform(0)
    with pytest.raises(ValueError):
        Zipfian(0)


# -- schema -----------------------------------------------------------------------

def test_item_schema_row_shape():
    schema = ItemSchema(record_count=100)
    rng = RandomStream(3)
    values = schema.row_values(5, rng)
    assert len(values) == 10            # the paper's 10 columns
    assert values["item_title"] == schema.title_for(5)
    filler = values["field0"]
    assert len(filler) == 100           # 100-byte random arrays


def test_title_cardinality_bounds_distinct_titles():
    schema = ItemSchema(record_count=100, title_cardinality=7)
    titles = {schema.title_for(i) for i in range(100)}
    assert len(titles) == 7


def test_prices_spread_uniformly():
    schema = ItemSchema(record_count=2000)
    prices = [schema.price_for(i) for i in range(2000)]
    assert all(PRICE_MIN <= p < PRICE_MAX for p in prices)
    mid = sum(1 for p in prices if p < (PRICE_MIN + PRICE_MAX) / 2)
    assert 0.4 < mid / len(prices) < 0.6


def test_price_bytes_order_preserving():
    schema = ItemSchema(record_count=10)
    assert schema.price_bytes(1.0) < schema.price_bytes(2.0) \
        < schema.price_bytes(999.0)


def test_split_keys_partition_evenly():
    schema = ItemSchema(record_count=1000)
    splits = schema.split_keys(4)
    assert len(splits) == 3
    assert splits == sorted(splits)
    assert schema.split_keys(1) == []


# -- workload ---------------------------------------------------------------------

def test_proportions_respected():
    schema = ItemSchema(record_count=100)
    workload = CoreWorkload(schema, proportions={OpType.UPDATE: 0.8,
                                                 OpType.INDEX_READ: 0.2})
    rng = RandomStream(4)
    ops = [workload.next_op(rng) for _ in range(5000)]
    share = ops.count(OpType.UPDATE) / len(ops)
    assert 0.75 < share < 0.85


def test_invalid_proportions():
    schema = ItemSchema(record_count=10)
    with pytest.raises(ValueError):
        CoreWorkload(schema, proportions={OpType.UPDATE: 0.0})


def test_insert_cursor_monotonic():
    schema = ItemSchema(record_count=10)
    workload = CoreWorkload(schema,
                            proportions={OpType.INSERT: 1.0})
    rng = RandomStream(5)
    k1, _ = workload.next_insert(rng)
    k2, _ = workload.next_insert(rng)
    assert k2 > k1


def test_price_range_selectivity():
    schema = ItemSchema(record_count=1000)
    workload = CoreWorkload(schema, range_selectivity=0.01)
    rng = RandomStream(6)
    low, high = workload.next_price_range(rng)
    assert low < high
    # 1% of 1000 rows: prices are spread evenly, so a range holds ~10.
    prices = [schema.price_bytes(schema.price_for(i)) for i in range(1000)]
    assert 8 <= sum(low <= price <= high for price in prices) <= 12


# -- stats ------------------------------------------------------------------------

def test_latency_recorder_windows_and_percentiles():
    recorder = LatencyRecorder()
    recorder.begin_window(1000.0)
    for latency in [1.0, 2.0, 3.0, 4.0, 100.0]:
        recorder.record("op", latency)
    recorder.end_window(2000.0)
    stats = recorder.stats("op")
    assert stats.count == 5
    assert stats.mean_ms == pytest.approx(22.0)
    assert stats.p50_ms == 3.0
    assert stats.max_ms == 100.0
    assert stats.throughput_tps == pytest.approx(5.0)


def test_latency_recorder_ignores_outside_window():
    recorder = LatencyRecorder()
    recorder.recording = False
    recorder.record("op", 1.0)
    recorder.begin_window(0.0)
    recorder.record("op", 2.0)
    recorder.end_window(1000.0)
    assert recorder.stats("op").count == 1


def test_latency_recorder_overall_merges_ops():
    recorder = LatencyRecorder()
    recorder.begin_window(0.0)
    recorder.record("a", 1.0)
    recorder.record("b", 3.0)
    recorder.end_window(1000.0)
    assert recorder.overall().count == 2
    assert recorder.overall().mean_ms == pytest.approx(2.0)


def test_empty_stats():
    recorder = LatencyRecorder()
    recorder.begin_window(0.0)
    recorder.end_window(100.0)
    assert recorder.stats("nothing").count == 0
    assert recorder.overall().count == 0
