"""Checks of the benchmark itself.  Run with ``python -m pytest ledger -q``
(not collected by the tier-1 suite: ``testpaths`` is ``tests``)."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from ledger.measure import run_repeat          # noqa: E402
from ledger.run import load_contract           # noqa: E402
from ledger.workloads import SPECS             # noqa: E402

SCALE = 1 / 20
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--scale", str(SCALE),
         *args], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(SPECS))
def test_fingerprint_is_a_function_of_code_and_seed(name):
    first = run_repeat(SPECS[name], 7, SCALE)
    again = run_repeat(SPECS[name], 7, SCALE)
    other = run_repeat(SPECS[name], 8, SCALE)
    assert first.fingerprint == again.fingerprint
    assert first.sim == again.sim
    assert first.fingerprint != other.fingerprint
    assert first.recorder.failed == first.recorder.shed == 0


def test_contract_shape():
    contract = load_contract()
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert [w["name"] for w in contract["workloads"]] == list(SPECS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 <= m["bound"] <= 0.25 for m in contract["end_to_end_all"])
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}


@pytest.mark.parametrize("name", list(SPECS))
def test_driver_line_carries_exactly_the_end_to_end_metrics(name):
    contract = load_contract()
    line = _run("--workload", name, "--seed", "3", "--seconds", "0",
                "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"]
                                     for m in contract["end_to_end"]]
    for metric in contract["end_to_end"]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_every_per_layer_name_is_computed_and_none_is_dropped():
    """A computed name missing from BENCHMARK.json fails inside the child
    (no unit for it); a BENCHMARK.json name no workload computes fails here."""
    contract = load_contract()
    computed = set()
    for name, spec in SPECS.items():
        part = _run("--part", "layers", "--workload", name, "--seed", "3")
        computed |= set(part["metrics"])
        assert (LEDGER / "out" / f"trace_{name}.jsonl").stat().st_size > 0
        if spec.ladder_tps:
            computed |= set(_run("--part", "ladder", "--workload", name,
                                 "--seed", "3")["metrics"])
    # Only reached at full scale: a put must meet a flush in progress.
    unreached = {"sim_ms.flush_gate_wait"}
    wanted = {m["name"] for m in contract["per_layer"]}
    assert wanted - computed <= unreached
    assert computed <= wanted
