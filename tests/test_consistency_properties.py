"""Property-based end-to-end consistency tests (DESIGN.md §6).

Hypothesis drives random operation histories (puts/deletes over a small
row space) against every scheme and checks the paper's consistency
contracts:

* sync-full  — the index is exactly consistent after every history;
* sync-insert — never missing; reads never return stale rows;
* async-*    — exactly consistent after quiesce (eventual consistency);
* validation — never missing after quiesce; reads filter (never serve)
  stale hits, answering exactly like sync-full even when flushes and
  compactions are interleaved with the history.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.core.verify import expected_entries
from repro.lsm.compaction import CompactionPolicy

ROWS = [f"r{i}".encode() for i in range(6)]
VALUES = [f"v{i}".encode() for i in range(4)]

# op = (row_idx, value_idx or None-for-delete)
ops_strategy = st.lists(
    st.tuples(st.integers(0, len(ROWS) - 1),
              st.one_of(st.none(), st.integers(0, len(VALUES) - 1))),
    min_size=1, max_size=25)

relaxed = settings(max_examples=12, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large])


def apply_history(scheme, history, seed=0):
    cluster = MiniCluster(num_servers=3, seed=seed).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme))
    client = cluster.new_client()

    def driver():
        for row_idx, value_idx in history:
            if value_idx is None:
                yield from client.delete("t", ROWS[row_idx], columns=["c"])
            else:
                yield from client.put("t", ROWS[row_idx],
                                      {"c": VALUES[value_idx]})

    cluster.run(driver(), name="history")
    return cluster, client


def model_state(history):
    """The oracle: final value per row."""
    state = {}
    for row_idx, value_idx in history:
        if value_idx is None:
            state.pop(ROWS[row_idx], None)
        else:
            state[ROWS[row_idx]] = VALUES[value_idx]
    return state


@relaxed
@given(ops_strategy)
def test_sync_full_always_consistent(history):
    cluster, _client = apply_history(IndexScheme.SYNC_FULL, history)
    report = check_index(cluster, "ix")
    assert report.is_consistent, (history, report)


@relaxed
@given(ops_strategy)
def test_sync_full_queries_match_model(history):
    cluster, client = apply_history(IndexScheme.SYNC_FULL, history)
    state = model_state(history)
    for value in VALUES:
        expect = sorted(r for r, v in state.items() if v == value)
        got = sorted(h.rowkey for h in cluster.run(
            client.get_by_index("ix", equals=[value])))
        assert got == expect, (history, value)


@relaxed
@given(ops_strategy)
def test_sync_insert_never_missing_and_reads_never_stale(history):
    cluster, client = apply_history(IndexScheme.SYNC_INSERT, history)
    report = check_index(cluster, "ix")
    assert not report.missing, (history, report)
    state = model_state(history)
    for value in VALUES:
        expect = sorted(r for r, v in state.items() if v == value)
        got = sorted(h.rowkey for h in cluster.run(
            client.get_by_index("ix", equals=[value])))
        assert got == expect, (history, value)


@relaxed
@given(ops_strategy)
def test_validation_never_missing_and_reads_never_stale(history):
    cluster, client = apply_history(IndexScheme.VALIDATION, history)
    cluster.quiesce()       # blind ships are asynchronous deliveries
    report = check_index(cluster, "ix")
    assert not report.missing, (history, report)
    state = model_state(history)
    for value in VALUES:
        expect = sorted(r for r, v in state.items() if v == value)
        got = sorted(h.rowkey for h in cluster.run(
            client.get_by_index("ix", equals=[value])))
        assert got == expect, (history, value)
    assert cluster.staleness.stale_served == 0


@relaxed
@given(ops_strategy, st.data())
def test_validation_equivalent_to_sync_full(history, data):
    """VALIDATION answers every query exactly as SYNC_FULL does, even
    with index-region flushes and (purging) compactions interleaved at
    random points in the history."""
    full_cluster, full_client = apply_history(IndexScheme.SYNC_FULL, history)

    cluster = MiniCluster(num_servers=3, seed=0).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.VALIDATION),
                         compaction=CompactionPolicy(major_every=1))
    client = cluster.new_client()
    index = cluster.index_descriptor("ix")

    def index_regions():
        return [(s, r) for s in cluster.alive_servers()
                for r in list(s.regions.values())
                if r.table.name == index.table_name]

    for i, (row_idx, value_idx) in enumerate(history):
        if value_idx is None:
            cluster.run(client.delete("t", ROWS[row_idx], columns=["c"]))
        else:
            cluster.run(client.put("t", ROWS[row_idx],
                                   {"c": VALUES[value_idx]}))
        action = data.draw(st.integers(0, 3), label=f"action{i}")
        if action == 0:
            cluster.quiesce()
            for server, region in index_regions():
                cluster.run(server.flush_region(region))
        elif action == 1:
            cluster.quiesce()
            for server, region in index_regions():
                cluster.run(server.compact_region(region))

    cluster.quiesce()
    for value in VALUES:
        expect = sorted(h.rowkey for h in full_cluster.run(
            full_client.get_by_index("ix", equals=[value])))
        got = sorted(h.rowkey for h in cluster.run(
            client.get_by_index("ix", equals=[value])))
        assert got == expect, (history, value)
    assert cluster.staleness.stale_served == 0


@relaxed
@given(ops_strategy)
def test_async_eventually_consistent(history):
    cluster, _client = apply_history(IndexScheme.ASYNC_SIMPLE, history)
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (history, report)


@relaxed
@given(ops_strategy, st.integers(0, 3))
def test_async_consistent_even_after_crash(history, victim_idx):
    cluster, _client = apply_history(IndexScheme.ASYNC_SIMPLE, history,
                                     seed=victim_idx)
    victims = list(cluster.servers)
    victim = victims[victim_idx % len(victims)]
    cluster.kill_server(victim)
    while victim not in cluster.coordinator.recoveries_completed:
        cluster.advance(200.0)
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (history, victim, report)


@relaxed
@given(ops_strategy)
def test_expected_entries_match_model(history):
    """The verification oracle itself agrees with the naive model."""
    cluster, _client = apply_history(IndexScheme.SYNC_FULL, history)
    state = model_state(history)
    index = cluster.index_descriptor("ix")
    expected = expected_entries(cluster, index)
    assert len(expected) == len(state)


@relaxed
@given(ops_strategy, st.data())
def test_crash_at_random_point_mid_history(history, data):
    """Split a random history at a random point, crash a random server at
    the split, finish the rest of the history while recovery runs — the
    index must still converge exactly."""
    split = data.draw(st.integers(0, len(history)))
    victim_idx = data.draw(st.integers(0, 2))
    cluster, client = apply_history(IndexScheme.ASYNC_SIMPLE,
                                    history[:split], seed=split)
    victim = list(cluster.servers)[victim_idx % len(cluster.servers)]
    cluster.kill_server(victim)

    def rest():
        for row_idx, value_idx in history[split:]:
            if value_idx is None:
                yield from client.delete("t", ROWS[row_idx], columns=["c"])
            else:
                yield from client.put("t", ROWS[row_idx],
                                      {"c": VALUES[value_idx]})

    cluster.run(rest(), name="post-crash")
    while victim not in cluster.coordinator.recoveries_completed:
        cluster.advance(200.0)
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (history, split, victim, report)


# -- placement churn (DESIGN.md §10) ----------------------------------------


@relaxed
@given(ops_strategy, st.data())
def test_placement_churn_preserves_consistency(history, data):
    """Random interleaving of puts/deletes with region splits, live
    migrations and one server crash: for every scheme the index converges
    (sync-insert: never missing), and the layout stays contiguous with
    every region hosted on a live server."""
    from repro import PlacementConfig
    from repro.errors import NoSuchRegionError
    from tests.test_placement import assert_layout_contiguous

    scheme = data.draw(st.sampled_from(list(IndexScheme)), label="scheme")
    cluster = MiniCluster(num_servers=3,
                          placement=PlacementConfig()).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme))
    client = cluster.new_client()
    killed = None

    for i, (row_idx, value_idx) in enumerate(history):
        if value_idx is None:
            cluster.run(client.delete("t", ROWS[row_idx], columns=["c"]))
        else:
            cluster.run(client.put("t", ROWS[row_idx],
                                   {"c": VALUES[value_idx]}))
        action = data.draw(st.integers(0, 5), label=f"action{i}")
        infos = [info for infos in cluster.master.layout.values()
                 for info in infos]
        if action == 0 and infos:
            target = infos[data.draw(st.integers(0, len(infos) - 1))]
            try:
                cluster.placement.request_split(target.table,
                                                target.region_name)
            except (ValueError, NoSuchRegionError):
                pass  # too few keys / already busy — churn op is a no-op
        elif action == 1 and infos:
            target = infos[data.draw(st.integers(0, len(infos) - 1))]
            dest = data.draw(st.sampled_from(sorted(cluster.servers)))
            cluster.run(cluster.placement.move_region(
                target.table, target.region_name, dest))
        elif action == 2 and killed is None and len(history) > 2:
            killed = sorted(cluster.servers)[
                data.draw(st.integers(0, 2), label="victim")]
            cluster.kill_server(killed)

    if killed is not None:
        while killed not in cluster.coordinator.recoveries_completed:
            cluster.advance(200.0)
    for job in list(cluster.placement.jobs.values()):
        cluster.run(job.wait())
    cluster.quiesce()
    assert_layout_contiguous(cluster)
    report = check_index(cluster, "ix")
    if scheme.is_lazy:       # sync-insert and validation tolerate stale
        assert not report.missing, (history, scheme, report)
    else:
        assert report.is_consistent, (history, scheme, report)
