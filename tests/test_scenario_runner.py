"""Scenario runner tests: a tiny deterministic scenario end to end —
report structure, SLO accounting, storm application, durability audit,
and two-run determinism of the serialised report."""

import json

import pytest

import repro.scenario.runner as runner_module
from repro.core.schemes import ConsistencyLevel, IndexScheme
from repro.errors import ProcessCrashed
from repro.scenario.arrival import ConstantRate, MixSchedule, poisson_arrivals
from repro.scenario.runner import ScenarioRunner
from repro.scenario.scenarios import SCENARIOS
from repro.scenario.slo import MIN_SAMPLES, WindowAccumulator
from repro.scenario.spec import (ScenarioSpec, SloSpec, StormEvent,
                                 TenantSpec)


def tiny_spec(storm=(), slo=None, scheme=IndexScheme.SYNC_FULL,
              duration_ms=800.0, tps=80.0, **cluster_kw) -> ScenarioSpec:
    tenant = TenantSpec(
        name="t1", records=120, scheme=scheme,
        consistency=ConsistencyLevel.EVENTUAL,
        arrival=ConstantRate(tps=tps),
        mix=MixSchedule([(0.0, {"update": 0.5, "index_read": 0.5})]),
        slo=slo or SloSpec())
    return ScenarioSpec(name="tiny", duration_ms=duration_ms,
                        window_ms=400.0, tenants=(tenant,), storm=storm,
                        num_servers=3, **cluster_kw)


def test_tiny_scenario_report_structure():
    report = ScenarioRunner(tiny_spec(), seed=5).run()
    data = report.to_dict()
    assert data["scenario"] == "tiny"
    tenant = data["tenants"]["t1"]
    assert tenant["windows_total"] == 2
    assert len(tenant["windows"]) == 2
    window = tenant["windows"][0]
    for key in ("ops", "reads", "updates", "read_p95_ms", "update_p95_ms",
                "staleness_max_ms", "scheme", "compliant"):
        assert key in window
    assert window["ops"] > 0
    assert window["scheme"] == "sync-full"
    # No SLO bounds declared: every window is vacuously compliant.
    assert tenant["compliance"] == 1.0
    # Every acked write survived (no storm, no kills).
    assert tenant["acked_write_loss"] == 0
    assert tenant["audited_writes"] > 0
    # The markdown renderer covers the same data without crashing.
    md = report.to_markdown()
    assert "tiny" in md and "t1" in md


def test_tiny_scenario_deterministic_across_runs():
    blobs = []
    for _ in range(2):
        report = ScenarioRunner(tiny_spec(), seed=11).run()
        data = report.to_dict()
        data.pop("meta")        # wall clock is the one allowed delta
        blobs.append(json.dumps(data, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_tiny_scenario_seed_changes_history():
    a = ScenarioRunner(tiny_spec(), seed=1).run().to_dict()
    b = ScenarioRunner(tiny_spec(), seed=2).run().to_dict()
    a.pop("meta"), b.pop("meta")
    assert a != b


def test_impossible_slo_is_flagged_in_every_measured_window():
    slo = SloSpec(read_p95_ms=0.0001, update_p95_ms=0.0001)
    report = ScenarioRunner(tiny_spec(slo=slo), seed=5).run()
    tenant = report.tenants["t1"]
    measured = [w for w in tenant.windows
                if w.reads >= MIN_SAMPLES and w.updates >= MIN_SAMPLES]
    assert measured, "tiny scenario must produce measured windows"
    assert all(not w.compliant for w in measured)
    assert tenant.compliance < 1.0
    assert [w.index for w in tenant.violation_windows]


def test_storm_kill_is_applied_and_logged():
    storm = (StormEvent(at_ms=200.0, kind="kill", target="rs2"),)
    runner = ScenarioRunner(
        tiny_spec(storm=storm, duration_ms=1200.0,
                  replication_factor=3, heartbeat_timeout_ms=300.0),
        seed=5)
    report = runner.run()
    assert not runner.cluster.servers["rs2"].alive
    assert report.storm_log == [
        {"at_ms": 200.0, "kind": "kill", "target": "rs2", "applied": True}]
    assert report.promotions >= 1
    # Acked writes survive the kill under rf=3.
    assert report.tenants["t1"].acked_write_loss == 0


def _bug(*args, **kwargs):
    raise TypeError("a bug, not a failed op")


def test_a_bug_in_a_storm_event_crashes_the_run():
    storm = (StormEvent(at_ms=200.0, kind="clear"),)
    runner = ScenarioRunner(tiny_spec(storm=storm), seed=5)
    runner._apply_storm_event = _bug
    with pytest.raises(ProcessCrashed) as info:
        runner.run()
    assert isinstance(info.value.cause, TypeError)


def test_a_bug_in_a_tenant_op_crashes_the_run():
    """Only a ReproError is a failed op; anything else is a bug that must
    surface, not be counted in a window's ``failed``."""
    runner = ScenarioRunner(tiny_spec(), seed=5)
    runner.tenants["t1"].client.put = _bug
    with pytest.raises(ProcessCrashed) as info:
        runner.run()
    assert isinstance(info.value.cause, TypeError)


def test_an_overloaded_tenant_sheds_at_its_in_flight_cap(monkeypatch):
    """Arrivals beyond the in-flight cap are shed: counted in their
    window's ``shed`` and never issued."""
    monkeypatch.setattr(runner_module, "MAX_IN_FLIGHT", 2)
    spec = tiny_spec(tps=1500.0, duration_ms=400.0)
    runner = ScenarioRunner(spec, seed=5)
    start = runner.cluster.sim.now()
    arrivals = len(list(poisson_arrivals(
        spec.tenants[0].arrival, runner.seeds.stream("tenant/t1/arrivals"),
        start, start + spec.duration_ms)))
    tenant = runner.run().tenants["t1"]
    shed = sum(window.shed for window in tenant.windows)
    assert any(window.shed > 0 for window in tenant.windows)
    assert tenant.issued == arrivals - shed


def test_storm_event_validation():
    with pytest.raises(ValueError):
        StormEvent(at_ms=0.0, kind="explode")
    with pytest.raises(ValueError):
        StormEvent(at_ms=0.0, kind="kill")          # no target
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", duration_ms=0.0, window_ms=100.0,
                     tenants=())


def test_window_accumulator_vacuous_below_min_samples():
    acc = WindowAccumulator(SloSpec(read_p95_ms=1.0))
    for _ in range(MIN_SAMPLES - 1):
        acc.record("index_read", 50.0)   # way over bound, but too few
    report = acc.freeze(0, 0.0, 100.0, staleness_max_ms=0.0,
                        offered_update_fraction=0.0, scheme="full")
    assert report.read_ok and report.compliant
    acc2 = WindowAccumulator(SloSpec(read_p95_ms=1.0))
    for _ in range(MIN_SAMPLES):
        acc2.record("index_read", 50.0)
    report2 = acc2.freeze(0, 0.0, 100.0, staleness_max_ms=0.0,
                          offered_update_fraction=0.0, scheme="full")
    assert not report2.read_ok and not report2.compliant


def test_canned_scenario_specs_construct():
    for name, factory in SCENARIOS.items():
        for quick in (True, False):
            spec = factory(quick=quick)
            assert spec.name == name
            assert spec.tenants and spec.duration_ms > 0
