"""scripts/sim_diff.py: per-component hashes of a ledger run, small
enough to smoke-test at 1/32 scale, and the comparison of two saved
reports against the BENCHMARK.json bounds."""

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
    assert fields["seed"] == "42"
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


def test_compare_flags_a_metric_worse_than_its_bound(tmp_path, capsys):
    sim_diff = _load()
    before = tmp_path / "before.txt"
    after = tmp_path / "after.txt"
    before.write_text(
        "w ops=aa hits=3 read_p50_sim_ms=100 sim_throughput_tps=50 "
        "update_p99_sim_ms=1.0\n  counter c 1\nscenario s ff\n")
    # read p50 -40% and tps +60% are gains; update p99 +10% is inside
    # its 15% bound.
    after.write_text(
        "w ops=bb hits=4 read_p50_sim_ms=60 sim_throughput_tps=80 "
        "update_p99_sim_ms=1.1\n")
    assert sim_diff.main(["--compare", str(before), str(after)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [
        "sim_throughput_tps", "read_p50_sim_ms", "update_p99_sim_ms"]
    assert lines[1] == ("w read_p50_sim_ms 100 -> 60 -40.0% "
                        "(bound 5%, better lower) ok")
    assert all(line.endswith(" ok") for line in lines)

    # Throughput down 20% against a 10% bound: worse, exit 1.
    after.write_text("w read_p50_sim_ms=100 sim_throughput_tps=40\n")
    assert sim_diff.main(["--compare", str(before), str(after)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("(bound 10%, better higher) WORSE")
    assert lines[1].endswith(" ok")


def test_compare_judges_the_median_over_common_seeds(tmp_path, capsys):
    sim_diff = _load()
    before = tmp_path / "before.txt"
    after = tmp_path / "after.txt"
    before.write_text("w seed=42 update_p99_sim_ms=1.0\n"
                      "w seed=7 update_p99_sim_ms=1.0\n"
                      "w seed=1 update_p99_sim_ms=1.0\n"
                      "scenario s seed=42 ff\n")
    # Seed 7 alone is over the 15% bound; the median (+10%) is inside.
    after.write_text("w seed=42 update_p99_sim_ms=1.1\n"
                     "w seed=7 update_p99_sim_ms=1.2\n"
                     "w seed=1 update_p99_sim_ms=1.05\n")
    assert sim_diff.main(["--compare", str(before), str(after)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "w update_p99_sim_ms seed=42 1 -> 1.1 +10.0% "
        "(bound 15%, better lower) ok",
        "w update_p99_sim_ms seed=7 1 -> 1.2 +20.0% "
        "(bound 15%, better lower) worse",
        "w update_p99_sim_ms seed=1 1 -> 1.05 +5.0% "
        "(bound 15%, better lower) ok",
        "w update_p99_sim_ms median +10.0% (bound 15%, better lower) ok "
        "(1 of 3 seeds worse)"]

    # Two of three seeds over the bound: the median is, exit 1.
    after.write_text("w seed=42 update_p99_sim_ms=1.2\n"
                     "w seed=7 update_p99_sim_ms=1.2\n")
    assert sim_diff.main(["--compare", str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "w update_p99_sim_ms median +20.0% (bound 15%, better lower) WORSE "
        "(2 of 2 seeds worse)")

    # No seed in common: nothing to judge, exit 2.
    after.write_text("w seed=3 update_p99_sim_ms=1.0\n")
    assert sim_diff.main(["--compare", str(before), str(after)]) == 2


def test_compare_prints_layer_means_when_both_reports_name_them(
        tmp_path, capsys):
    sim_diff = _load()
    before = tmp_path / "before.txt"
    after = tmp_path / "after.txt"
    before.write_text(
        "w seed=42 update_p50_sim_ms=2.0\n"
        "  counter c 5\n"
        "  histogram span_ms{span=PI} [4, 4.0]\n"
        "  histogram wal_group_commit_size{server=rs1} [10, 10.0]\n"
        "  histogram rpc_ms{method=put} [2, 9.0]\n"
        "w seed=7 update_p50_sim_ms=2.0\n"
        "  histogram span_ms{span=PI} [2, 4.0]\n"
        "  histogram wal_group_commit_size{server=rs1} [0, 0.0]\n"
        "scenario s seed=42 ff\n")
    after.write_text(
        "w seed=42 update_p50_sim_ms=1.8\n"
        "  histogram span_ms{span=PI} [4, 3.0]\n"
        "  histogram wal_group_commit_size{server=rs1} [5, 10.0]\n"
        "w seed=7 update_p50_sim_ms=1.9\n"
        "  histogram span_ms{span=PI} [2, 3.0]\n")
    assert sim_diff.main(["--compare", str(before), str(after)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # The end-to-end lines come first and are unchanged; the mean lines
    # follow, skipping other histograms and empty ones.
    assert lines[3:] == [
        "w mean span_ms{span=PI} seed=42 1 -> 0.75 -25.0%",
        "w mean span_ms{span=PI} seed=7 2 -> 1.5 -25.0%",
        "w mean span_ms{span=PI} median 1.5 -> 1.125 -25.0%",
        "w mean wal_group_commit_size{server=rs1} seed=42 1 -> 2 +100.0%"]
    assert lines[2] == ("w update_p50_sim_ms median -7.5% "
                        "(bound 5%, better lower) ok (0 of 2 seeds worse)")

    # A report without --names lines gives no mean lines.
    after.write_text("w seed=42 update_p50_sim_ms=1.8\n")
    assert sim_diff.main(["--compare", str(before), str(after)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_seeds_accept_ranges():
    sim_diff = _load()
    assert sim_diff.parse_seeds("42") == [42]
    assert sim_diff.parse_seeds("1-3,42,7") == [1, 2, 3, 42, 7]
    assert sim_diff.parse_seeds("42,7,1-2,5-5") == [42, 7, 1, 2, 5]
