"""scripts/host_ab.py: alternating host-clock pairs and the claim rule,
smoke-tested at 1/32 scale with the same tree on both sides."""

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "host_ab.py"


def _load():
    spec = importlib.util.spec_from_file_location("host_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_pair_against_the_same_tree(capsys):
    host_ab = _load()
    assert host_ab.main(["--parent", str(REPO), "--workload",
                         "open_async_rf3", "--pairs", "1",
                         "--scale", str(1 / 32)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("pair 1: parent first, ops_per_cpu_s parent ")
    assert out[1].startswith("parent: ops_per_cpu_s ")
    assert out[2].startswith("change: ops_per_cpu_s ")
    for line in out[1:3]:
        assert "setup_cpu_s" in line and "peak_rss_mb" in line
    assert out[3].startswith("wins ") and "/1;" in out[3]
    assert out[4].startswith("bounds: ops_per_cpu_s ")
    assert "setup_s" in out[4] and "peak_rss_mb" in out[4]
    assert out[4].endswith("not judged below 10 pairs")
    assert out[5].endswith("on both sides")


def test_claim_rule_needs_nine_wins_and_a_gap_beyond_parent_iqr():
    claim = _load().claim
    parent = [100.0, 102.0, 98.0, 101.0, 99.0,
              100.0, 103.0, 97.0, 100.0, 100.0]
    assert claim(parent, [v * 1.5 for v in parent])["holds"]
    # Eight wins of ten: a large median gap does not rescue it.
    eight = [v * 1.5 for v in parent[:8]] + [v * 0.9 for v in parent[8:]]
    verdict = claim(parent, eight)
    assert verdict["wins"] == 8 and not verdict["holds"]
    # Ten wins, but by less than the parent's own spread.
    verdict = claim(parent, [v + 0.5 for v in parent])
    assert verdict["wins"] == 10 and not verdict["holds"]


def test_judge_reads_each_bound_in_its_direction():
    host_ab = _load()
    bounds = host_ab.bounds()
    assert bounds["peak_rss_mb"] == (0.1, "lower")
    assert bounds["setup_s"][1] == "lower"
    assert bounds["ops_per_cpu_s"][1] == "higher"
    assert host_ab.judge([100.0], [111.0], 0.1, "lower")[1]
    assert not host_ab.judge([100.0], [109.0], 0.1, "lower")[1]
    assert host_ab.judge([100.0], [70.0], 0.25, "higher")[1]
    assert not host_ab.judge([100.0], [130.0], 0.25, "higher")[1]
    assert host_ab.judge([100.0], [70.0], 0.25, "higher")[0] == -0.3


def test_differing_fingerprints_exit_nonzero(monkeypatch, capsys):
    host_ab = _load()

    def fake_side(tree, workload, seed, scale):
        return {"ops_per_cpu_s": 1000.0, "setup_cpu_s": 0.1,
                "peak_rss_mb": 80.0,
                "fingerprint": "change" if tree == REPO else "parent"}

    monkeypatch.setattr(host_ab, "run_side", fake_side)
    assert host_ab.main(["--parent", str(REPO / "ledger"),
                         "--pairs", "2"]) == 1
    assert "fingerprints differ" in capsys.readouterr().err


def test_bounds_are_judged_only_from_ten_pairs(monkeypatch, capsys):
    """A change 2x worse on every host metric: two pairs print the
    deltas but judge nothing, ten pairs cross the bounds."""
    host_ab = _load()

    def fake_side(tree, workload, seed, scale):
        worse = 2.0 if tree == REPO else 1.0
        return {"ops_per_cpu_s": 1000.0 / worse, "setup_cpu_s": 0.1 * worse,
                "peak_rss_mb": 80.0 * worse, "fingerprint": "same"}

    monkeypatch.setattr(host_ab, "run_side", fake_side)
    parent = str(REPO / "ledger")
    assert host_ab.main(["--parent", parent, "--pairs", "2"]) == 0
    [bounds] = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("bounds: ")]
    assert "ops_per_cpu_s -50.0%" in bounds and "peak_rss_mb +100.0%" in bounds
    assert "not judged" in bounds
    assert host_ab.main(["--parent", parent, "--pairs", "10"]) == 1
    [bounds] = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("bounds: ")]
    assert "not judged" not in bounds and "worse than" in bounds
