"""The observability subsystem (repro.obs): registry semantics, histogram
percentile edge cases, span trees, probe wiring, and cross-run determinism."""

import json

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.cluster.counters import OpCounters
from repro.obs import (DEFAULT_LATENCY_BUCKETS_MS, Histogram, MetricsRegistry,
                       NULL_SPAN, Tracer)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    counter = registry.counter("ops")
    counter.inc(3)
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 3


def test_gauge_tracks_high_watermark():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth", server="rs1")
    gauge.set(5)
    gauge.set(2)
    assert gauge.value == 2
    assert gauge.max_value == 5
    gauge.inc(10)
    assert gauge.value == 12
    assert gauge.max_value == 12
    gauge.dec(4)
    assert gauge.value == 8
    assert gauge.max_value == 12


def test_same_name_and_labels_resolve_to_same_object():
    registry = MetricsRegistry()
    a = registry.counter("hits", server="rs1", table="t")
    b = registry.counter("hits", table="t", server="rs1")   # order-free
    c = registry.counter("hits", server="rs2", table="t")
    assert a is b
    assert a is not c
    a.inc()
    assert b.value == 1


def test_name_reuse_with_different_kind_is_an_error():
    registry = MetricsRegistry()
    registry.counter("latency", server="rs1")
    with pytest.raises(ValueError):
        registry.gauge("latency", server="rs1")


def test_empty_histogram_percentiles_are_zero():
    h = Histogram("h")
    assert h.count == 0
    assert h.percentile(50) == 0.0
    assert h.percentile(99) == 0.0
    assert h.mean() == 0.0
    assert h.summary()["p95"] == 0.0


def test_single_sample_histogram_is_exact_at_every_percentile():
    h = Histogram("h")
    h.observe(7.3)
    for p in (0, 1, 50, 95, 99, 100):
        assert h.percentile(p) == pytest.approx(7.3)
    assert h.summary()["mean"] == pytest.approx(7.3)


def test_histogram_bucket_boundaries_inclusive_upper_edge():
    h = Histogram("h", bounds=(1.0, 2.0, 4.0))
    h.observe(1.0)    # exactly on the first edge -> first bucket
    h.observe(2.0)    # exactly on the second edge -> second bucket
    h.observe(3.0)    # inside (2, 4] -> third bucket
    h.observe(9.0)    # above the last edge -> overflow bucket
    assert h.bucket_counts == [1, 1, 1, 1]
    assert h.count == 4
    assert h.min == 1.0 and h.max == 9.0


def test_histogram_percentiles_clamp_to_observed_extremes():
    h = Histogram("h", bounds=(1.0, 2.0, 4.0))
    h.observe(9.0)    # overflow bucket only
    h.observe(11.0)
    # interpolation inside the overflow bucket must never exceed the
    # observed max nor undershoot the observed min
    assert 9.0 <= h.percentile(50) <= 11.0
    assert h.percentile(100) == 11.0
    assert h.percentile(0) >= 9.0


def test_histogram_percentile_interpolates_within_buckets():
    bounds = tuple(float(i) for i in range(1, 11))
    h = Histogram("h", bounds=bounds)
    for i in range(1, 11):
        h.observe(float(i))
    assert h.percentile(50) == pytest.approx(5.0)
    assert h.percentile(100) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("h", bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", bounds=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", bounds=())


def test_merged_histogram_combines_labelled_parts():
    registry = MetricsRegistry()
    registry.histogram("lag", server="rs1").observe(5.0)
    registry.histogram("lag", server="rs2").observe(50.0)
    merged = registry.merged_histogram("lag")
    assert merged.count == 2
    assert merged.min == 5.0 and merged.max == 50.0
    assert registry.merged_histogram("no_such").count == 0


def test_snapshot_is_sorted_and_complete():
    registry = MetricsRegistry()
    registry.counter("b_counter").inc(2)
    registry.counter("a_counter", server="rs1").inc(1)
    registry.gauge("depth").set(3)
    registry.histogram("lat").observe(1.0)
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a_counter{server=rs1}", "b_counter"]
    assert snap["counters"]["b_counter"] == 2
    assert snap["gauges"]["depth"] == {"value": 3, "max": 3}
    assert snap["histograms"]["lat"]["count"] == 1


# ---------------------------------------------------------------------------
# OpCounters façade
# ---------------------------------------------------------------------------

def test_opcounters_rejects_unknown_name():
    counters = OpCounters()
    with pytest.raises(ValueError) as excinfo:
        counters.incr("base_putt")
    assert "base_putt" in str(excinfo.value)
    assert "base_put" in str(excinfo.value)   # message lists valid names


def test_opcounters_snapshot_and_since():
    counters = OpCounters()
    counters.incr("base_put", 3)
    counters.incr("index_read")
    baseline = counters.snapshot()
    counters.incr("base_put")
    diff = counters.since(baseline)
    assert diff.base_put == 1
    assert diff.index_read == 0
    assert counters.snapshot().base_put == 4


def test_opcounters_delegate_to_registry():
    registry = MetricsRegistry()
    counters = OpCounters(registry=registry)
    counters.incr("base_put", 2)
    assert registry.snapshot()["counters"]["table2_ops{op=base_put}"] == 2
    counters.reset()
    assert counters.snapshot().base_put == 0


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _manual_clock():
    state = {"now": 0.0}

    def advance(ms):
        state["now"] += ms

    return (lambda: state["now"]), advance


def test_span_parent_child_nesting_and_export():
    clock, advance = _manual_clock()
    registry = MetricsRegistry()
    tracer = Tracer(clock=clock, registry=registry)
    root = tracer.start("put", server="rs1")
    advance(1.0)
    child = tracer.start("PI", parent=root)
    advance(2.0)
    child.end()
    grandchild = tracer.start("RB", parent=child.span_id)  # raw-id parent
    advance(0.5)
    grandchild.end()
    advance(1.5)
    root.end()

    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    assert root.duration_ms == pytest.approx(5.0)
    assert tracer.children_of(root) == [child]

    lines = tracer.export_jsonl().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["span"] for r in records] == ["put", "PI", "RB"]  # start order
    by_name = {r["span"]: r for r in records}
    assert by_name["PI"]["parent"] == by_name["put"]["id"]
    assert by_name["put"]["parent"] is None
    assert by_name["RB"]["duration_ms"] == pytest.approx(0.5)

    # finished spans feed the span_ms histogram
    assert registry.histogram("span_ms", span="PI").count == 1


def test_span_end_is_idempotent():
    clock, advance = _manual_clock()
    tracer = Tracer(clock=clock)
    span = tracer.start("op")
    advance(2.0)
    span.end()
    advance(5.0)
    span.end()
    assert span.duration_ms == pytest.approx(2.0)
    assert tracer.finished == 1


def test_disabled_tracer_returns_null_span():
    clock, _advance = _manual_clock()
    tracer = Tracer(clock=clock, enabled=False)
    span = tracer.start("op")
    assert span is NULL_SPAN
    span.end()                      # no-op
    child = Tracer(clock=clock).start("child", parent=span)
    assert child.parent_id is None  # NULL_SPAN parents as "no parent"
    assert tracer.spans() == []


def test_tracer_retention_cap_keeps_histograms_counting():
    clock, advance = _manual_clock()
    registry = MetricsRegistry()
    tracer = Tracer(clock=clock, registry=registry, max_spans=3)
    for _ in range(5):
        span = tracer.start("op")
        advance(1.0)
        span.end()
    assert len(tracer.spans()) == 3
    assert tracer.dropped == 2
    assert registry.histogram("span_ms", span="op").count == 5


# ---------------------------------------------------------------------------
# Probe wiring: the cluster layers feed the registry/tracer
# ---------------------------------------------------------------------------

def _make_cluster(scheme, seed=9, num_servers=3):
    cluster = MiniCluster(num_servers=num_servers, seed=seed).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme))
    return cluster


def test_sync_full_put_produces_span_tree():
    cluster = _make_cluster(IndexScheme.SYNC_FULL)
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"c": b"v1"}))
    tracer = cluster.tracer

    puts = tracer.spans("put")
    assert len(puts) == 1
    root = puts[0]
    child_names = {s.name for s in tracer.children_of(root)}
    assert "wal_append" in child_names
    assert "sync_index" in child_names
    sync_index = next(s for s in tracer.children_of(root)
                      if s.name == "sync_index")
    primitive_names = {s.name for s in tracer.children_of(sync_index)}
    assert "PI" in primitive_names and "RB" in primitive_names
    # second put of the same row now has an old entry to delete
    cluster.run(client.put("t", b"r1", {"c": b"v2"}))
    all_names = {s.name for s in tracer.spans()}
    assert "DI" in all_names


def test_async_put_trace_links_enqueue_to_aps_apply():
    cluster = _make_cluster(IndexScheme.ASYNC_SIMPLE)
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"c": b"v1"}))
    cluster.quiesce()
    tracer = cluster.tracer

    root = tracer.spans("put")[0]
    child_names = {s.name for s in tracer.children_of(root)}
    assert "enqueue" in child_names
    applies = tracer.spans("aps_apply")
    assert len(applies) == 1
    # the async apply is parented to the originating put's root span
    assert applies[0].parent_id == root.span_id
    assert applies[0].start_ms >= root.start_ms


def test_auq_probes_and_rpc_histograms_populate():
    cluster = _make_cluster(IndexScheme.ASYNC_SIMPLE)
    client = cluster.new_client()
    for server in cluster.servers.values():
        server.aps_gate.close()
    for i in range(8):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"x"}))
    depth_max = max(g.max_value
                    for g in cluster.metrics.find("auq_depth"))
    assert depth_max >= 1
    for server in cluster.servers.values():
        server.aps_gate.open()
    cluster.quiesce()

    snap = cluster.metrics.snapshot()
    # live staleness probe counted every completed task, and agrees with
    # the post-hoc tracker exactly
    lag = cluster.metrics.merged_histogram("auq_lag_ms")
    assert lag.count == cluster.staleness.observed == 8
    # RPC latency histograms exist for the servers that received calls
    rpc = cluster.metrics.merged_histogram("rpc_ms")
    assert rpc.count > 0
    assert any(name.startswith("rpc_ms") for name in snap["histograms"])
    # current depth back to zero after quiesce
    for gauge in cluster.metrics.find("auq_depth"):
        assert gauge.value == 0


def test_lsm_probes_count_memtable_and_flush_activity():
    cluster = MiniCluster(num_servers=1, seed=5).start()
    cluster.create_table("t", flush_threshold_bytes=2048)
    client = cluster.new_client()
    for i in range(40):
        cluster.run(client.put("t", f"r{i:02d}".encode(), {"a": b"x" * 64}))
    cluster.advance(1000.0)   # let the maintenance loop flush
    assert cluster.metrics.total("lsm_memtable_cells") >= 40
    assert cluster.metrics.total("lsm_flushes") >= 1
    assert cluster.metrics.total("lsm_flush_cells") >= 1


def test_read_repair_counters_on_sync_insert():
    cluster = _make_cluster(IndexScheme.SYNC_INSERT)
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"c": b"old"}))
    cluster.run(client.put("t", b"r1", {"c": b"new"}))   # leaves stale entry

    hits = cluster.run(client.get_by_index("ix", equals=[b"old"]))
    assert hits == []
    assert cluster.metrics.total("read_repair_checks") == 1
    assert cluster.metrics.total("read_repair_repairs") == 1

    hits = cluster.run(client.get_by_index("ix", equals=[b"new"]))
    assert [h.rowkey for h in hits] == [b"r1"]
    assert cluster.metrics.total("read_repair_checks") == 2
    assert cluster.metrics.total("read_repair_repairs") == 1   # fresh entry
    assert check_index(cluster, "ix").is_consistent


def test_table2_counters_visible_in_snapshot():
    cluster = _make_cluster(IndexScheme.SYNC_FULL)
    client = cluster.new_client()
    cluster.run(client.put("t", b"r1", {"c": b"v"}))
    snap = cluster.metrics.snapshot()
    assert snap["counters"]["table2_ops{op=base_put}"] == \
        cluster.counters.snapshot().base_put >= 1
    assert snap["counters"]["table2_ops{op=index_put}"] >= 1


# ---------------------------------------------------------------------------
# Determinism under the sim kernel
# ---------------------------------------------------------------------------

def _seeded_run(seed):
    cluster = MiniCluster(num_servers=2, seed=seed).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.ASYNC_SIMPLE))
    client = cluster.new_client()
    for i in range(25):
        cluster.run(client.put("t", f"r{i:02d}".encode(),
                               {"c": f"v{i % 3}".encode()}))
    cluster.quiesce()
    return cluster.metrics.snapshot(), cluster.tracer.export_jsonl()


def test_identically_seeded_runs_produce_identical_telemetry():
    snap_a, trace_a = _seeded_run(123)
    snap_b, trace_b = _seeded_run(123)
    assert snap_a == snap_b
    assert trace_a == trace_b
    assert trace_a   # non-empty: the comparison is meaningful


def test_different_seeds_diverge_in_timing():
    _snap_a, trace_a = _seeded_run(123)
    _snap_b, trace_b = _seeded_run(124)
    assert trace_a != trace_b
