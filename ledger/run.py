#!/usr/bin/env python3
"""The ledger: one two-clock benchmark for the whole repository.

    python ledger/run.py [--seed 42] [--workload NAME] [--repeats 5]
                         [--json PATH] [--selfcheck]

runs the workloads one after another, each part in its own single-threaded
subprocess, and prints every metric by name with its unit.  The driver
contract of BENCHMARK.json is the same program in a narrower shape:

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

which measures one workload for about S seconds and prints one JSON object
as the last line: the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1).  See ledger/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import fcntl
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
OUT = LEDGER / "out"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

WARMUP_SCALE = 1 / 8        # the discarded warm-up repeat
MIN_TIMED_REPEATS = 2       # sim metrics must be seen to repeat exactly
# A rung passes while the AUQ backlog at the horizon is no larger than at
# mid-run, give or take 50 ms of arrivals at the base rate.
BACKLOG_SLACK = 100
HOST_METRICS = ("setup_s", "ops_per_cpu_s", "peak_rss_mb")


def load_contract() -> Dict[str, Any]:
    """BENCHMARK.json, plus the end-to-end metrics only some workloads
    define (ledger/bounds.json), which the driver contract cannot carry."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    extra = json.loads((LEDGER / "bounds.json").read_text())
    contract["end_to_end_all"] = contract["end_to_end"] + extra["end_to_end"]
    return contract


# -- child parts: one workload, one process ----------------------------------

def _over_repeats(values: List[float]) -> Dict[str, Any]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def part_e2e(spec, args) -> Dict[str, Any]:
    """Warm-up, then timed repeats on fresh clusters: ``--repeats`` of
    them, or as many as start within ``--seconds`` of wall time."""
    from ledger.measure import run_repeat
    run_repeat(spec, args.seed, args.scale * WARMUP_SCALE)
    repeats = []
    started = time.monotonic()

    def another() -> bool:
        if args.seconds is None:
            return len(repeats) < args.repeats
        return (len(repeats) < MIN_TIMED_REPEATS
                or time.monotonic() - started < args.seconds)

    while another():
        repeats.append(run_repeat(spec, args.seed, args.scale))
    first = repeats[0]
    if any(r.fingerprint != first.fingerprint for r in repeats):
        raise SystemExit(f"{spec.name}: simulated statistics differ between "
                         f"repeats of one seed: "
                         f"{[r.fingerprint for r in repeats]}")
    rec = first.recorder
    metrics = {
        "setup_s": _over_repeats([r.setup_cpu_s for r in repeats]),
        "ops_per_cpu_s": _over_repeats([r.ops / r.run_cpu_s
                                        for r in repeats]),
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        "failed_op_share": {"value": (rec.failed + rec.shed) / rec.attempted,
                            "failed": rec.failed, "shed": rec.shed,
                            "attempted": rec.attempted},
    }
    for name, value in first.sim.items():
        metrics[name] = {"value": value}
        kind = name.split("_")[0]       # read_p50_sim_ms -> read
        if kind in first.samples:
            metrics[name]["samples"] = first.samples[kind]
    if first.staleness_p99_ms is not None:
        metrics["staleness_p99_sim_ms"] = {"value": first.staleness_p99_ms}
    return {"workload": spec.name, "seed": args.seed, "repeats": len(repeats),
            "sim_fingerprint": first.fingerprint, "metrics": metrics,
            "attempted": rec.attempted, "failed": rec.failed + rec.shed}


def part_ladder(spec, args) -> Dict[str, Any]:
    """Each rate once (simulated time is exact): the highest rung whose
    staleness p99 meets the limit without a growing AUQ backlog."""
    from ledger.measure import STALENESS_LIMIT_MS, run_repeat
    rungs = []
    for rate in spec.ladder_tps:
        repeat = run_repeat(spec, args.seed, args.scale, rate_tps=rate,
                            horizon_ms=spec.ladder_horizon_ms)
        rec = repeat.recorder
        ok = (not rec.failed and not rec.shed
              and repeat.staleness_p99_ms <= STALENESS_LIMIT_MS
              and rec.backlog_end <= rec.backlog_mid + BACKLOG_SLACK)
        rungs.append({"rate_tps": rate, "ok": ok,
                      "staleness_p99_sim_ms": repeat.staleness_p99_ms,
                      "backlog_mid": rec.backlog_mid,
                      "backlog_end": rec.backlog_end,
                      "failed": rec.failed, "shed": rec.shed,
                      **repeat.sim})
    passing = [rung["rate_tps"] for rung in rungs if rung["ok"]]
    if not passing:
        raise SystemExit(f"{spec.name}: no ladder rung meets the limit")
    return {"workload": spec.name, "rungs": rungs,
            "metrics": {"max_rate_ok_tps": {"value": max(passing)}}}


def part_layers(spec, args) -> Dict[str, Any]:
    """The traced run: one untraced repeat as the base, one under cProfile
    with a root span per op, one with the program's tracer off, and the
    micro-benchmarks.  Never the source of an end-to-end number."""
    from ledger.layers import host_us_per_op, sim_and_counts
    from ledger.measure import run_repeat
    from ledger.micro import run_micro
    run_repeat(spec, args.seed, args.scale * WARMUP_SCALE)
    base = run_repeat(spec, args.seed, args.scale)
    profiler = cProfile.Profile()
    traced = run_repeat(spec, args.seed, args.scale, trace=True,
                        around_run=profiler.runcall)
    if traced.fingerprint != base.fingerprint:
        raise SystemExit(f"{spec.name}: tracing changed the simulation")
    tracer_off = run_repeat(spec, args.seed, args.scale, tracer_enabled=False)

    values: Dict[str, Optional[float]] = {
        **host_us_per_op(profiler, traced.ops),
        **sim_and_counts(traced),
        **run_micro(),
        "trace_overhead_ratio": traced.run_cpu_s / base.run_cpu_s,
        "obs.tracer_off_cpu_ratio": tracer_off.run_cpu_s / base.run_cpu_s,
        "staleness_p99_sim_ms": base.staleness_p99_ms,
    }
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace_{spec.name}.jsonl"
    with open(trace_path, "w") as handle:
        for op_id, kind, start, end, host0, host1 in traced.recorder.spans:
            handle.write(json.dumps(
                {"id": op_id, "op": kind, "sim_start_ms": start,
                 "sim_end_ms": end, "host_start_ns": host0,
                 "host_end_ns": host1}) + "\n")
    rec = traced.recorder
    return {"workload": spec.name, "seed": args.seed,
            "sim_fingerprint": traced.fingerprint,
            "trace_file": str(trace_path.relative_to(ROOT)),
            "attempted": rec.attempted, "failed": rec.failed + rec.shed,
            "metrics": {name: {"value": value}
                        for name, value in values.items()
                        if value is not None}}


PARTS = {"e2e": part_e2e, "ladder": part_ladder, "layers": part_layers}


def child_main(args) -> int:
    from ledger.workloads import SPECS
    contract = load_contract()
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end_all"] + contract["per_layer"]}
    result = PARTS[args.part](SPECS[args.workload], args)
    for name, metric in result["metrics"].items():
        metric["unit"] = units[name]    # a name the contract lacks fails here
    print(json.dumps(result))
    return 0


# -- parent: orchestration ---------------------------------------------------

def run_part(part: str, workload: str, args) -> Dict[str, Any]:
    """One part of one workload in its own process; its JSON result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--part", part,
           "--workload", workload, "--seed", str(args.seed),
           "--repeats", str(args.repeats), "--scale", str(args.scale)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    # A fixed hash seed takes one source of run-to-run host variation
    # (dict and set layout) out of every child.
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"})
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload}/{part} failed "
                         f"(exit {done.returncode}): no result")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_set(args, workloads: List[str]) -> Dict[str, Any]:
    """Every part of every selected workload, one process at a time."""
    from ledger.workloads import SPECS
    report: Dict[str, Any] = {
        "header": {"nproc": os.cpu_count(),
                   "python": platform.python_version(),
                   "commit": _commit(), "seed": args.seed,
                   "repeats": args.repeats, "scale": args.scale},
        "workloads": {}}
    for name in workloads:
        entry = {"why": SPECS[name].why, "end_to_end": run_part("e2e", name,
                                                                args)}
        if SPECS[name].ladder_tps:
            ladder = run_part("ladder", name, args)
            entry["ladder"] = ladder["rungs"]
            entry["end_to_end"]["metrics"].update(ladder["metrics"])
        entry["per_layer"] = run_part("layers", name, args)
        # Reported once, as an end-to-end metric.
        entry["per_layer"]["metrics"].pop("staleness_p99_sim_ms", None)
        report["workloads"][name] = entry
        print_workload(name, entry)
    return report


def _format(metric: Dict[str, Any]) -> str:
    text = f"{metric['value']:>14.4f} {metric['unit']:<10}"
    if "q1" in metric:
        text += (f" quartiles [{metric['q1']:.4f}, {metric['q3']:.4f}]"
                 f" over {metric['n']} repeats")
    if "samples" in metric:
        text += f" n={metric['samples']}"
    if "attempted" in metric:
        text += (f" ({metric['failed']} failed + {metric['shed']} shed"
                 f" of {metric['attempted']})")
    return text


def print_workload(name: str, entry: Dict[str, Any]) -> None:
    e2e, layers = entry["end_to_end"], entry["per_layer"]
    print(f"\n== {name}: {entry['why']}")
    print(f"   {e2e['repeats']} timed repeats, correctness gate passed on "
          f"each; sim_fingerprint {e2e['sim_fingerprint']}")
    print("-- end to end (host = process CPU time; sim = simulated time)")
    for metric_name, metric in e2e["metrics"].items():
        print(f"  {metric_name:<36}{_format(metric)}")
    for rung in entry.get("ladder", ()):
        print(f"  ladder {rung['rate_tps']:>6.0f} tps: "
              f"{'ok ' if rung['ok'] else 'MISS'} staleness p99 "
              f"{rung['staleness_p99_sim_ms']:.3f} ms, backlog "
              f"{rung['backlog_mid']} mid-run -> {rung['backlog_end']} at "
              f"the horizon")
    print(f"-- per layer (traced run; root spans in {layers['trace_file']})")
    for metric_name, metric in layers["metrics"].items():
        print(f"  {metric_name:<36}{_format(metric)}")


def _worse_by(metric: Dict[str, Any], first: float, second: float) -> float:
    """By what share of ``first`` the second value is worse (<= 0: not)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def selfcheck(args, workloads: List[str]) -> int:
    """Two full sets of the same code must agree: host metrics within
    their bounds, every simulated metric and exact count identically."""
    contract = load_contract()
    first, second = run_set(args, workloads), run_set(args, workloads)
    problems: List[str] = []
    for name in workloads:
        a, b = first["workloads"][name], second["workloads"][name]
        for metric in contract["end_to_end_all"]:
            key = metric["name"]
            if key not in a["end_to_end"]["metrics"]:
                continue
            x = a["end_to_end"]["metrics"][key]["value"]
            y = b["end_to_end"]["metrics"][key]["value"]
            if key in HOST_METRICS:
                worse = max(_worse_by(metric, x, y), _worse_by(metric, y, x))
                if worse > metric["bound"]:
                    problems.append(f"{name}: {key} {x:.4f} vs {y:.4f} "
                                    f"differ by more than {metric['bound']}")
            elif x != y:
                problems.append(f"{name}: {key} {x!r} != {y!r}")
        if a["end_to_end"]["sim_fingerprint"] != \
                b["end_to_end"]["sim_fingerprint"]:
            problems.append(f"{name}: sim_fingerprint differs")
        for key, metric in a["per_layer"]["metrics"].items():
            if key.startswith(("count.", "ratio.", "sim_ms.")) and \
                    metric != b["per_layer"]["metrics"].get(key):
                problems.append(f"{name}: {key} differs between sets")
    print("\nselfcheck:", "PASS" if not problems else "FAIL")
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


def driver_line(args) -> Dict[str, Any]:
    """The BENCHMARK.json contract: one workload, one JSON object."""
    from ledger.workloads import SPECS
    contract = load_contract()
    if args.trace == 0:
        part = run_part("e2e", args.workload, args)
        wanted = contract["end_to_end"]
    else:
        part = run_part("layers", args.workload, args)
        if SPECS[args.workload].ladder_tps:
            part["metrics"].update(
                run_part("ladder", args.workload, args)["metrics"])
        wanted = contract["per_layer"]
    metrics = {}
    for metric in wanted:
        found = part["metrics"].get(metric["name"])
        if found is None and args.trace == 0:
            raise SystemExit(f"{args.workload}: no value for "
                             f"{metric['name']}")
        # A stage this workload never executes reads 0: a true count of
        # zero occurrences, not a measured duration.
        metrics[metric["name"]] = {
            "value": found["value"] if found else 0.0,
            "unit": metric["unit"]}
    return {"correct": True, "attempted": part["attempted"],
            "failed": part["failed"], "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repeats per workload (without --seconds)")
    parser.add_argument("--json", help="write the full report here")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two full sets and compare them")
    parser.add_argument("--seconds", type=float,
                        help="driver contract: wall-time budget of the "
                             "timed repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver contract: 0 end-to-end, 1 per-layer")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink rows and ops (tests only)")
    parser.add_argument("--part", choices=sorted(PARTS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        from ledger.workloads import SPECS
    except ImportError as error:
        print(f"cannot import the program under test from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(SPECS)}")
    if args.repeats < MIN_TIMED_REPEATS:
        parser.error(f"--repeats must be at least {MIN_TIMED_REPEATS}")
    if args.part:
        return child_main(args)

    OUT.mkdir(exist_ok=True)
    with open(OUT / "run.lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("another ledger run holds ledger/out/run.lock: host "
                  "metrics need the machine to themselves", file=sys.stderr)
            return 3
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            print(json.dumps(driver_line(args)))
            return 0
        workloads = [args.workload] if args.workload else list(SPECS)
        if args.selfcheck:
            return selfcheck(args, workloads)
        report = run_set(args, workloads)
        if args.json:
            Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        return 0


if __name__ == "__main__":
    sys.exit(main())
