"""Canned-scenario regression tests on the quick seed-42 runs.

Two kinds of pin:

* behaviour invariance (DESIGN.md §16) — the same seed twice must
  reproduce the full scenario report exactly (modulo the wall-clock
  ``meta`` block), so a change that silently reorders events, draws RNG
  differently or flips an int to a float shows up here before it shows
  up as a subtly different paper figure;
* the scenario acceptance floors (DESIGN.md §15) — what each canned
  scenario exists to demonstrate: a live scheme switch that holds the
  SLO, a promotion failover, an SLO-driven switch, recovery of every
  tenant and zero acked-write loss.
"""

import json

import pytest

from repro.scenario.runner import ScenarioRunner
from repro.scenario.scenarios import SCENARIOS


def _run(scenario: str, seed: int = 42):
    return ScenarioRunner(SCENARIOS[scenario](quick=True), seed=seed).run()


def _report_bytes(report) -> bytes:
    data = report.to_dict()
    data.pop("meta", None)    # wall-clock seconds: host-dependent
    return json.dumps(data, indent=2, sort_keys=True).encode()


@pytest.fixture(scope="module")
def storm():
    return _run("failure_storm")


@pytest.fixture(scope="module")
def crowd():
    return _run("diurnal_flash_crowd")


def test_same_seed_scenario_report_is_byte_identical(storm):
    assert _report_bytes(storm) == _report_bytes(_run("failure_storm"))


def test_different_seed_actually_changes_the_run(storm):
    """Guards the guard: if reports stopped depending on the seed the
    byte-identity test above would pass vacuously."""
    assert _report_bytes(storm) != _report_bytes(
        _run("failure_storm", seed=43))


def test_flash_crowd_switches_live_and_holds_the_slo(crowd):
    spec = crowd.spec
    crowd_start, crowd_end = 0.4 * spec.duration_ms, 0.8 * spec.duration_ms
    storefront = crowd.tenants["storefront"]
    # A switch decided at a window close inside (or right at the end of)
    # the crowd counts as "during" it.
    during = [s for s in storefront.switches
              if crowd_start <= s["at_ms"] <= crowd_end + spec.window_ms]
    assert during, storefront.switches
    assert storefront.compliance_after(during[0]["at_ms"]) == 1.0
    for name, tenant in crowd.tenants.items():
        assert tenant.acked_write_loss == 0, name
        assert tenant.compliance >= 0.8, (name, tenant.compliance)


def test_failure_storm_fails_over_adapts_recovers_and_loses_nothing(storm):
    assert storm.promotions >= 1
    audit = storm.tenants["audit"]
    assert any(s["reason"].startswith("slo") for s in audit.switches), \
        audit.switches
    for name, tenant in storm.tenants.items():
        assert tenant.windows and tenant.windows[-1].compliant, name
        assert tenant.acked_write_loss == 0, name
        assert tenant.compliance >= 0.6, (name, tenant.compliance)
