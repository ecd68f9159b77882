"""scripts/sim_diff.py: per-component hashes of a ledger run, small
enough to smoke-test at 1/32 scale."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sim_diff.py"


def _load():
    spec = importlib.util.spec_from_file_location("sim_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_every_component_and_is_deterministic(capsys):
    sim_diff = _load()
    argv = ["--scale", str(1 / 32), "--workload", "write_heavy_full",
            "--names"]
    assert sim_diff.main(argv) == 0
    first = capsys.readouterr().out.splitlines()
    summary = first[0].split()
    assert summary[0] == "write_heavy_full"
    fields = dict(item.split("=", 1) for item in summary[1:])
    for key in ("ops", "hits", "events", "counters", "histograms",
                "sim_throughput_tps", "update_p50_sim_ms", "read_p99_sim_ms"):
        assert key in fields
    assert int(fields["hits"]) > 0
    assert any(line.startswith("  counter table2_ops{op=base_put}")
               for line in first[1:])
    assert any(line.startswith("  histogram ") for line in first[1:])

    # Same (code, seed, scale) → byte-identical report: the premise that
    # lets two commits' outputs be diffed.
    assert sim_diff.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == first


def test_scenario_digest_drops_only_meta():
    sim_diff = _load()
    report = {"scenario": "s", "tenants": {"a": {"compliance": 1.0}},
              "meta": {"wall_seconds": 1.5}}
    digest = sim_diff.scenario_digest(report)
    assert digest == sim_diff.scenario_digest(
        dict(report, meta={"wall_seconds": 9.0}))
    assert digest != sim_diff.scenario_digest(dict(report, scenario="t"))
