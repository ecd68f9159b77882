"""AdaptivePolicy boundary conditions, without a cluster where possible."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster
from repro.core import AdaptiveController, AdaptivePolicy, ConsistencyLevel


@pytest.fixture
def cluster():
    c = MiniCluster(num_servers=1, seed=45).start()
    c.create_table("t")
    c.create_index(IndexDescriptor("ix", "t", ("c",),
                                   scheme=IndexScheme.SYNC_INSERT))
    return c


def make(cluster, **kwargs):
    policy = AdaptivePolicy(window_ops=20, min_ops_to_act=4, cooldown_ops=4,
                            **kwargs)
    return AdaptiveController(cluster, "ix", ConsistencyLevel.EVENTUAL,
                              policy=policy)


def test_empty_window_is_neutral(cluster):
    ctrl = make(cluster)
    assert ctrl.update_fraction == 0.5
    # neutral zone keeps the current scheme
    assert ctrl.recommend() is IndexScheme.SYNC_INSERT


def test_window_slides(cluster):
    ctrl = make(cluster)
    for _ in range(20):
        ctrl.observe_update()
    assert ctrl.update_fraction == 1.0
    for _ in range(20):
        ctrl.observe_read()      # pushes all updates out of the window
    assert ctrl.update_fraction == 0.0


def test_thresholds_are_boundaries(cluster):
    ctrl = make(cluster, write_heavy_threshold=0.7,
                read_heavy_threshold=0.3)
    for _ in range(14):
        ctrl.observe_update()
    for _ in range(6):
        ctrl.observe_read()
    assert ctrl.update_fraction == pytest.approx(0.7)
    assert ctrl.recommend() is IndexScheme.ASYNC_SIMPLE   # >= threshold
    ctrl.observe_read()   # 13/20 updates after slide? recompute below
    assert ctrl.recommend() in (IndexScheme.ASYNC_SIMPLE,
                                IndexScheme.SYNC_INSERT,
                                IndexScheme.SYNC_FULL)


def test_causal_class_alternates_between_sync_schemes(cluster):
    policy = AdaptivePolicy(window_ops=20, min_ops_to_act=4, cooldown_ops=0)
    ctrl = AdaptiveController(cluster, "ix", ConsistencyLevel.CAUSAL,
                              policy=policy)
    for _ in range(20):
        ctrl.observe_update()
    decision = ctrl.evaluate()
    assert cluster.index_descriptor("ix").scheme is IndexScheme.SYNC_INSERT
    for _ in range(20):
        ctrl.observe_read()
    decision = ctrl.evaluate()
    assert decision.recommended is IndexScheme.SYNC_FULL
    cluster.run(ctrl.jobs[-1].wait())
    assert cluster.index_descriptor("ix").scheme is IndexScheme.SYNC_FULL


def test_decision_reports_fields(cluster):
    ctrl = make(cluster)
    for _ in range(20):
        ctrl.observe_update()
    decision = ctrl.evaluate()
    assert decision.index_name == "ix"
    assert decision.update_fraction == 1.0
    assert decision.is_switch
    assert decision.acted


# -- SLO-signal-driven selection (scenario layer's sensor input) -------------

def test_slo_read_violation_overrides_write_heavy_ratio(cluster):
    from repro.core import SloSignal
    ctrl = make(cluster)
    for _ in range(20):
        ctrl.observe_update()           # ratio alone says async
    assert ctrl.recommend() is IndexScheme.ASYNC_SIMPLE
    ctrl.observe_slo(SloSignal(read_violated=True))
    scheme, reason = ctrl.recommend_with_reason()
    assert scheme is IndexScheme.SYNC_FULL
    assert reason == "slo-read"


def test_slo_staleness_violation_forces_sync_full(cluster):
    from repro.core import SloSignal
    ctrl = make(cluster)
    for _ in range(20):
        ctrl.observe_update()
    ctrl.observe_slo(SloSignal(staleness_violated=True))
    scheme, reason = ctrl.recommend_with_reason()
    assert scheme is IndexScheme.SYNC_FULL
    assert reason == "slo-staleness"


def test_slo_update_violation_picks_cheapest_update_scheme(cluster):
    from repro.core import SloSignal
    ctrl = make(cluster)
    for _ in range(20):
        ctrl.observe_read()             # ratio alone says sync-full
    ctrl.observe_slo(SloSignal(update_violated=True))
    scheme, reason = ctrl.recommend_with_reason()
    assert scheme is IndexScheme.ASYNC_SIMPLE
    assert reason == "slo-update"


def test_slo_both_sides_violated_falls_back_to_ratio(cluster):
    from repro.core import SloSignal
    ctrl = make(cluster)
    for _ in range(20):
        ctrl.observe_read()
    ctrl.observe_slo(SloSignal(read_violated=True, update_violated=True))
    scheme, reason = ctrl.recommend_with_reason()
    assert scheme is IndexScheme.SYNC_FULL
    assert reason == "ratio"


def test_clearing_slo_signal_restores_ratio_rule(cluster):
    from repro.core import SloSignal
    ctrl = make(cluster)
    for _ in range(20):
        ctrl.observe_update()
    ctrl.observe_slo(SloSignal(read_violated=True))
    assert ctrl.recommend() is IndexScheme.SYNC_FULL
    ctrl.observe_slo(None)
    assert ctrl.recommend() is IndexScheme.ASYNC_SIMPLE


def test_acted_switch_records_switch_event_with_reason(cluster):
    from repro.core import SloSignal
    ctrl = make(cluster)
    for _ in range(20):
        ctrl.observe_update()
    ctrl.observe_slo(SloSignal(read_violated=True))
    decision = ctrl.evaluate()
    assert decision.acted and decision.reason == "slo-read"
    assert len(ctrl.switch_events) == 1
    event = ctrl.switch_events[0]
    assert event["index"] == "ix"
    assert event["from"] == "sync-insert"
    assert event["to"] == "sync-full"
    assert event["reason"] == "slo-read"
