#!/usr/bin/env python
"""Which part of the simulated model moved?  Per-component hashes of a
ledger run, for comparing two commits of a refactor.

The ledger's ``sim_fingerprint`` hashes everything at once, so a change
only learns *that* the model moved.  This prints, per workload, separate
hashes of the per-op latencies (with the failed and shed counts), the
counters and the histograms, plus the hit total, the kernel event count
and the simulated end-to-end metrics — enough to say which component a
diff touched.  Run it on both commits and diff the outputs:

    python scripts/sim_diff.py --seeds 42,7,1 > after.txt
    (cd ../parent && python scripts/sim_diff.py --seeds 42,7,1) > before.txt
    diff before.txt after.txt

``--seeds`` runs every listed seed (``1-12,42`` lists 1 to 12, then
42), and every summary and scenario line names its seed.  A tail percentile rests on a few samples (an
``update_p99_sim_ms`` over ~1,100 updates on about 11), so one seed
cannot settle whether a change moved it past its bound.

``--scale`` shrinks every workload (1.0 is the ledger's full size),
``--workload`` picks some, and ``--names`` adds one line per counter and
histogram so the diff names the metric that moved.  The numbers come
from ``ledger.measure.run_repeat``, the same repeat the ledger times.
``--scenarios`` adds one digest per ``--quick`` scenario report
(``python -m repro.scenario``) with its ``meta`` block, the host wall
clock, dropped — so one command per commit covers both.

``--compare BEFORE AFTER`` reads two saved reports instead of running
anything.  For each workload it prints every simulated end-to-end metric
both reports carry, its relative change, and the ``bound`` and
``better`` that BENCHMARK.json gives it.  With one seed in common that
is one line; with several, one line per seed and then the median
change, which also counts the seeds that crossed the bound (a tail
metric can hold at the median while a few seeds cross).  It exits 1 if
a median got worse by more than its bound (a single seed over its
bound is marked ``worse`` but decides nothing).
When both reports carry ``--names`` lines it also prints, per seed and
as a median, the mean (sum/count) of every ``span_ms{span=…}`` and
``wal_group_commit_size`` histogram on both sides, so the per-layer
evidence sits beside the end-to-end A/B; these lines judge nothing:

    python scripts/sim_diff.py --compare before.txt after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = REPO / "BENCHMARK.json"
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


def report(name: str, seed: int, parts: dict, names: bool = False) -> list:
    """Printable lines for one workload: one summary line, then (with
    ``names``) one line per counter and histogram."""
    sim = " ".join(f"{key}={value:.6g}"
                   for key, value in sorted(parts["sim"].items()))
    lines = [f"{name} seed={seed} ops={_digest(parts['ops'])} "
             f"hits={parts['hits']} "
             f"events={parts['events']} "
             f"counters={_digest(parts['counters'])} "
             f"histograms={_digest(parts['histograms'])} {sim}"]
    if names:
        for kind in ("counters", "histograms"):
            for metric, value in sorted(parts[kind].items()):
                lines.append(f"  {kind[:-1]} {metric} {value}")
    return lines


# The --names histograms whose means --compare prints: the per-layer
# spans and the WAL group-commit width.
LAYER_HISTOGRAMS = ("span_ms{span=", "wal_group_commit_size{")


def _summary(line: str) -> tuple:
    """``(workload, seed, {field: text})`` of one summary line."""
    name, *fields = line.split()
    fields = dict(field.split("=", 1) for field in fields)
    return name, fields.pop("seed", None), fields


def summaries(text: str) -> dict:
    """``{workload: {seed: {field: text}}}`` from a report's summary
    lines (the unindented lines that are not scenario digests).  A line
    without a ``seed`` field files under seed None."""
    out: dict = {}
    for line in text.splitlines():
        if not line or line[0].isspace() or line.startswith("scenario "):
            continue
        name, seed, fields = _summary(line)
        out.setdefault(name, {})[seed] = fields
    return out


def layer_means(text: str) -> dict:
    """``{workload: {seed: {histogram: mean}}}`` of the
    ``LAYER_HISTOGRAMS`` a ``--names`` report lists under each summary
    line; empty histograms are left out."""
    out: dict = {}
    means = None
    for line in text.splitlines():
        if line.startswith("scenario "):
            means = None
        elif line and not line[0].isspace():
            name, seed, _fields = _summary(line)
            means = out.setdefault(name, {}).setdefault(seed, {})
        elif means is not None and line.startswith("  histogram "):
            _kind, metric, value = line.split(None, 2)
            count, total = json.loads(value)
            if count and metric.startswith(LAYER_HISTOGRAMS):
                means[metric] = total / count
    return out


def _change(old: float, new: float) -> float:
    return (new - old) / old if old else float(new != old)


def compare_layers(before: dict, after: dict) -> list:
    """Printable lines, per seed and then as a median over the common
    seeds, of each layer histogram's mean on both sides."""
    lines = []
    for workload, old_seeds in before.items():
        new_seeds = after.get(workload, {})
        for metric in sorted({metric for means in old_seeds.values()
                              for metric in means}):
            pairs = [(seed, old[metric], new_seeds[seed][metric])
                     for seed, old in old_seeds.items()
                     if metric in old and metric in new_seeds.get(seed, {})]
            for seed, old, new in pairs:
                lines.append(f"{workload} mean {metric} seed={seed} "
                             f"{old:.6g} -> {new:.6g} "
                             f"{_change(old, new):+.1%}")
            if len(pairs) > 1:
                old = statistics.median(old for _seed, old, _new in pairs)
                new = statistics.median(new for _seed, _old, new in pairs)
                lines.append(f"{workload} mean {metric} median {old:.6g} "
                             f"-> {new:.6g} {_change(old, new):+.1%}")
    return lines


def parse_seeds(text: str) -> list:
    """The seeds of ``--seeds``: comma-separated seeds or inclusive
    ``low-high`` ranges, in the order given (``1-3,42`` → 1, 2, 3, 42)."""
    seeds = []
    for part in text.split(","):
        low, dash, high = part.partition("-")
        seeds += range(int(low), int(high) + 1) if dash else [int(low)]
    return seeds


def is_worse(change: float, metric: dict) -> bool:
    """Whether a relative change loses more than ``metric``'s bound."""
    loss = change if metric["better"] == "lower" else -change
    return loss > metric["bound"]


def compare(before: dict, after: dict, end_to_end: list) -> tuple:
    """Printable lines and the number of metrics whose median change over
    the common seeds is worse than their bound, for every (workload,
    BENCHMARK.json end-to-end metric) both reports carry."""
    lines, worse = [], 0
    for workload, old_seeds in before.items():
        new_seeds = after.get(workload, {})
        for metric in end_to_end:
            name = metric["name"]
            pairs = [(seed, float(old[name]), float(new_seeds[seed][name]))
                     for seed, old in old_seeds.items()
                     if name in old and name in new_seeds.get(seed, {})]
            if not pairs:
                continue
            changes = [_change(old, new) for _seed, old, new in pairs]
            median = statistics.median(changes)
            verdict = "WORSE" if is_worse(median, metric) else "ok"
            worse += verdict == "WORSE"
            bound = (f"(bound {metric['bound']:.0%}, "
                     f"better {metric['better']})")
            if len(pairs) == 1:
                [(_seed, old, new)] = pairs
                lines.append(f"{workload} {name} {old:.6g} -> {new:.6g} "
                             f"{median:+.1%} {bound} {verdict}")
                continue
            crossed = 0
            for (seed, old, new), change in zip(pairs, changes):
                crossed += is_worse(change, metric)
                mark = "worse" if is_worse(change, metric) else "ok"
                lines.append(f"{workload} {name} seed={seed} {old:.6g} -> "
                             f"{new:.6g} {change:+.1%} {bound} {mark}")
            lines.append(f"{workload} {name} median {median:+.1%} {bound} "
                         f"{verdict} ({crossed} of {len(pairs)} seeds "
                         f"worse)")
    return lines, worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=[42], type=parse_seeds,
                        help="comma-separated seeds or low-high ranges, "
                             "each run in turn (default: 42)")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workload", action="append", choices=list(SPECS),
                        help="repeatable; default: every workload")
    parser.add_argument("--names", action="store_true",
                        help="also print every counter and histogram")
    parser.add_argument("--scenarios", action="store_true",
                        help="also print a digest of every --quick "
                             "scenario report, meta dropped")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two saved reports against the "
                             "BENCHMARK.json bounds instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        texts = [pathlib.Path(path).read_text() for path in args.compare]
        end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
        lines, worse = compare(*map(summaries, texts), end_to_end)
        if not lines:
            print("the reports share no (workload, seed) with a metric",
                  file=sys.stderr)
            return 2
        for line in lines + compare_layers(*map(layer_means, texts)):
            print(line)
        return 1 if worse else 0
    for seed in args.seeds:
        for name in args.workload or list(SPECS):
            parts = components(run_repeat(SPECS[name], seed, args.scale))
            for line in report(name, seed, parts, args.names):
                print(line, flush=True)
        if args.scenarios:
            for name in sorted(SCENARIOS):
                result = ScenarioRunner(SCENARIOS[name](quick=True),
                                        seed=seed).run()
                print(f"scenario {name} seed={seed} "
                      f"{scenario_digest(result.to_dict())}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
