#!/usr/bin/env python
"""Which part of the simulated model moved?  Per-component hashes of a
ledger run, for comparing two commits of a refactor.

The ledger's ``sim_fingerprint`` hashes everything at once, so a change
only learns *that* the model moved.  This prints, per workload, separate
hashes of the per-op latencies (with the failed and shed counts), the
counters and the histograms, plus the hit total, the kernel event count
and the simulated end-to-end metrics — enough to say which component a
diff touched.  Run it on both commits and diff the outputs:

    python scripts/sim_diff.py --seed 42 > after.txt
    (cd ../parent && python scripts/sim_diff.py --seed 42) > before.txt
    diff before.txt after.txt

``--scale`` shrinks every workload (1.0 is the ledger's full size),
``--workload`` picks some, and ``--names`` adds one line per counter and
histogram so the diff names the metric that moved.  The numbers come
from ``ledger.measure.run_repeat``, the same repeat the ledger times.
``--scenarios`` adds one digest per ``--quick`` scenario report
(``python -m repro.scenario``) with its ``meta`` block, the host wall
clock, dropped — so one command per commit covers both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO), str(REPO / "src")]

from ledger.measure import HOST_TIMED_HISTOGRAMS, run_repeat  # noqa: E402
from ledger.workloads import SPECS  # noqa: E402
from repro.scenario.runner import ScenarioRunner  # noqa: E402
from repro.scenario.scenarios import SCENARIOS  # noqa: E402


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:12]


def scenario_digest(report: dict) -> str:
    """Digest of a scenario report minus ``meta``, the one block that is
    host wall time rather than a function of (code, seed)."""
    return _digest({key: value for key, value in report.items()
                    if key != "meta"})


def components(repeat) -> dict:
    """The simulated statistics of one repeat, grouped by component."""
    rec = repeat.recorder
    histograms = {name: [h["count"], h["sum"]]
                  for name, h in repeat.after["histograms"].items()
                  if not name.startswith(HOST_TIMED_HISTOGRAMS)}
    return {
        "ops": [rec.latency_ms, rec.failed, rec.shed],
        "hits": rec.hits,
        "events": repeat.events,
        "counters": repeat.after["counters"],
        "histograms": histograms,
        "sim": repeat.sim,
    }


def report(name: str, parts: dict, names: bool = False) -> list:
    """Printable lines for one workload: one summary line, then (with
    ``names``) one line per counter and histogram."""
    sim = " ".join(f"{key}={value:.6g}"
                   for key, value in sorted(parts["sim"].items()))
    lines = [f"{name} ops={_digest(parts['ops'])} hits={parts['hits']} "
             f"events={parts['events']} "
             f"counters={_digest(parts['counters'])} "
             f"histograms={_digest(parts['histograms'])} {sim}"]
    if names:
        for kind in ("counters", "histograms"):
            for metric, value in sorted(parts[kind].items()):
                lines.append(f"  {kind[:-1]} {metric} {value}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workload", action="append", choices=list(SPECS),
                        help="repeatable; default: every workload")
    parser.add_argument("--names", action="store_true",
                        help="also print every counter and histogram")
    parser.add_argument("--scenarios", action="store_true",
                        help="also print a digest of every --quick "
                             "scenario report, meta dropped")
    args = parser.parse_args(argv)
    for name in args.workload or list(SPECS):
        parts = components(run_repeat(SPECS[name], args.seed, args.scale))
        for line in report(name, parts, args.names):
            print(line, flush=True)
    if args.scenarios:
        for name in sorted(SCENARIOS):
            result = ScenarioRunner(SCENARIOS[name](quick=True),
                                    seed=args.seed).run()
            print(f"scenario {name} {scenario_digest(result.to_dict())}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
