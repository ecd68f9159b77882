#!/usr/bin/env python
"""Host-clock A/B: alternating pairs of ledger repeats, parent vs change.

Host CPU numbers drift from run to run on a shared box, so a host claim
is judged on pairs run back to back, never on two single runs.  This
runs ``--pairs`` pairs of one ledger workload: each side of a pair is
one ``ledger.measure.run_repeat`` (after the ledger's 1/8-scale warm-up)
in a fresh subprocess importing that tree's ``ledger`` and ``src``
read-only, and the side that runs first alternates from pair to pair.

    git worktree add ../parent HEAD~1
    python scripts/host_ab.py --parent ../parent --workload open_async_rf3

The change is the tree holding this script.  It prints every pair, and
each side's median and quartiles of the three host metrics:
``ops_per_cpu_s``; ``setup_cpu_s``, the set-up CPU seconds the ledger
reports as ``setup_s``; and ``peak_rss_mb``, the child's
``ru_maxrss / 1024`` as ``ledger/run.py`` measures it.  Then the win
count and the claim rule's verdict on ``ops_per_cpu_s``: the change must
win at least 9 of every 10 pairs, over at least ``MIN_PAIRS`` pairs, and
its median must beat the parent's by more than the parent's
interquartile range.  Last, each metric's median change against its
end-to-end bound in ``BENCHMARK.json``.  Below ``MIN_PAIRS`` pairs host
noise alone crosses a bound often, so the changes are printed but the
bounds are not judged.  It exits 1 when the two sides' ``fingerprint``s
differ — a host claim needs the same simulated model on both sides — or,
from ``MIN_PAIRS`` pairs on, when a median is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO), str(REPO / "src")]

from ledger.workloads import SPECS  # noqa: E402

WIN_SHARE = 0.9
# The fewest pairs the claim rule and the bounds are judged on.
MIN_PAIRS = 10

# One side of one pair: the tree is argv[1], and nothing is written into
# it (no bytecode caches).
CHILD = """
import json, resource, sys
sys.dont_write_bytecode = True
tree, workload, seed, scale = sys.argv[1:]
sys.path[:0] = [tree, tree + "/src"]
from ledger.measure import run_repeat
from ledger.workloads import SPECS
spec = SPECS[workload]
run_repeat(spec, int(seed), float(scale) / 8)   # the ledger's warm-up
repeat = run_repeat(spec, int(seed), float(scale))
print(json.dumps({"ops_per_cpu_s": repeat.ops / repeat.run_cpu_s,
                  "setup_cpu_s": repeat.setup_cpu_s,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "fingerprint": repeat.fingerprint}))
"""

# Each host metric with the BENCHMARK.json end-to-end name it is judged
# under and its digits when printed.
METRICS = (("ops_per_cpu_s", "ops_per_cpu_s", 1),
           ("setup_cpu_s", "setup_s", 3),
           ("peak_rss_mb", "peak_rss_mb", 1))


def run_side(tree: pathlib.Path, workload: str, seed: int,
             scale: float) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree), workload, str(seed),
         str(scale)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "0",
             "PYTHONDONTWRITEBYTECODE": "1"})
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def claim(parent: list, change: list) -> dict:
    """The claim rule on paired ``ops_per_cpu_s`` (higher is better)."""
    wins = sum(b > a for a, b in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    gap = quartiles(change)[1] - parent_median
    return {"wins": wins, "pairs": len(parent), "gap": gap,
            "gain": gap / parent_median, "parent_iqr": q3 - q1,
            "holds": len(parent) >= MIN_PAIRS
            and wins >= math.ceil(WIN_SHARE * len(parent))
            and gap > q3 - q1}


def _summary(name: str, values: list, digits: int) -> str:
    q1, median, q3 = quartiles(values)
    return f"{name} {median:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def bounds(path: pathlib.Path = REPO / "BENCHMARK.json") -> dict:
    """``{name: (bound, better)}`` for every end-to-end metric."""
    contract = json.loads(path.read_text())
    return {m["name"]: (m["bound"], m["better"])
            for m in contract["end_to_end"]}


def judge(parent: list, change: list, bound: float, better: str) -> tuple:
    """The change's median against the parent's: ``(relative change,
    worse by more than bound)``."""
    parent_median = quartiles(parent)[1]
    delta = (quartiles(change)[1] - parent_median) / parent_median
    return delta, (-delta if better == "higher" else delta) > bound


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", default="open_async_rf3",
                        choices=list(SPECS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": REPO}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                            "parent")
        for side in order:
            runs[side].append(run_side(sides[side], args.workload,
                                       args.seed, args.scale))
        print(f"pair {pair + 1}: {order[0]} first, ops_per_cpu_s parent "
              f"{runs['parent'][-1]['ops_per_cpu_s']:.1f} change "
              f"{runs['change'][-1]['ops_per_cpu_s']:.1f}", flush=True)

    values = {key: {side: [r[key] for r in runs[side]] for side in runs}
              for key, _name, _digits in METRICS}
    for side in runs:
        print(f"{side}: " + "; ".join(
            _summary(key, values[key][side], digits)
            for key, _name, digits in METRICS))
    ops = values["ops_per_cpu_s"]
    verdict = claim(ops["parent"], ops["change"])
    print(f"wins {verdict['wins']}/{verdict['pairs']}; median gap "
          f"{verdict['gap']:+.1f} ops/cpu-s ({verdict['gain']:+.1%}) vs "
          f"parent IQR {verdict['parent_iqr']:.1f}; claim "
          f"{'holds' if verdict['holds'] else 'does not hold'}")
    contract = bounds()
    judging = args.pairs >= MIN_PAIRS
    crossed = False
    judged = []
    for key, name, _digits in METRICS:
        bound, better = contract[name]
        delta, worse = judge(values[key]["parent"], values[key]["change"],
                             bound, better)
        crossed |= worse
        word = ("worse than" if worse else "within") if judging else "bound"
        judged.append(f"{name} {delta:+.1%} {word} {bound:.0%}")
    print("bounds: " + "; ".join(judged) + (
        "" if judging else f"; not judged below {MIN_PAIRS} pairs"))

    fingerprints = {side: {r["fingerprint"] for r in runs[side]}
                    for side in runs}
    if len(fingerprints["parent"] | fingerprints["change"]) != 1:
        print(f"fingerprints differ: {fingerprints}", file=sys.stderr)
        return 1
    print(f"fingerprint {fingerprints['change'].pop()} on both sides")
    return 1 if judging and crossed else 0


if __name__ == "__main__":
    raise SystemExit(main())
