"""Pins both canned scenarios exactly, the way
``tests/test_ledger_fingerprints.py`` pins the ledger's workloads.

A digest is ``scripts/sim_diff.py::scenario_digest`` of the ``--quick``
report at seed 42: the whole report minus its ``meta`` block, the one
part that is host wall time rather than a function of (code, seed).
``python scripts/sim_diff.py --scenarios`` prints the same digests.  A
change that moves one of them changed simulated behaviour: if that was
the intent, update the constant in the same diff and say why.
"""

import importlib.util
import pathlib

import pytest

from repro.scenario.runner import ScenarioRunner
from repro.scenario.scenarios import SCENARIOS

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "sim_diff.py")

DIGESTS = {
    "diurnal_flash_crowd": "3df488ccdadd",
    "failure_storm": "e067804e68a7",
}


def _scenario_digest():
    spec = importlib.util.spec_from_file_location("sim_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scenario_digest


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_quick_scenario_digest_is_unchanged(name):
    report = ScenarioRunner(SCENARIOS[name](quick=True), seed=42).run()
    assert _scenario_digest()(report.to_dict()) == DIGESTS[name]
