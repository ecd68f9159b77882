"""The ``python -m repro.bench`` experiment runner CLI."""

import pytest

from repro.bench.__main__ import RUNNERS, main


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "figure7" in out and "table2" in out


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_unknown_experiment(capsys):
    assert main(["nonsense"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_runs_one_experiment(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "LSM" in out and "B+Tree" in out


def test_writes_output_file(tmp_path, capsys):
    target = tmp_path / "results.txt"
    assert main(["index-vs-scan", "--out", str(target)]) == 0
    content = target.read_text()
    assert "speedup" in content


def test_all_names_have_runners():
    for name, runner in RUNNERS.items():
        assert callable(runner), name


# -- the standalone YCSB driver CLI -------------------------------------------

def test_ycsb_cli_runs_validation(capsys):
    from repro.ycsb.__main__ import main as ycsb_main
    assert ycsb_main(["--scheme", "validation", "--update-fraction", "0.8",
                      "--records", "150", "--threads", "2",
                      "--duration-ms", "150", "--warmup-ms", "30"]) == 0
    out = capsys.readouterr().out
    assert "scheme=validation" in out and "p95=" in out


def test_ycsb_cli_accepts_every_registry_label():
    from repro.core.schemes import SCHEME_LABELS
    from repro.ycsb.__main__ import main as ycsb_main
    for label in SCHEME_LABELS:
        # parse-only check via a bad fraction: choices pass, then error
        with pytest.raises(SystemExit):
            ycsb_main(["--scheme", label, "--update-fraction", "2.0"])
    with pytest.raises(SystemExit):
        ycsb_main(["--scheme", "bogus"])
