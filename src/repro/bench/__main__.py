"""Command-line experiment runner: ``python -m repro.bench``.

Regenerates the paper's tables and figures without pytest:

    python -m repro.bench --list
    python -m repro.bench figure7 figure11
    python -m repro.bench all --scale full --out results.txt
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List

from repro.bench import experiments as exp
from repro.bench.report import (format_series, format_table,
                                render_metrics_snapshot)


def _run_table1() -> str:
    profiles = exp.table1_lsm_vs_btree()
    rows = [[p.engine, f"{p.write_mean_ms:.3f}", f"{p.read_mean_ms:.3f}"]
            for p in profiles]
    return format_table(["Engine", "Write mean (ms)", "Read mean (ms)"],
                        rows, title="Table 1 — LSM vs B+Tree")


def _run_table2() -> str:
    return exp.render_table2(exp.table2_io_cost())


def _run_figure7() -> str:
    series = exp.figure7_update_latency()
    reductions = exp.update_overhead_reduction(series)
    return (format_series(series)
            + f"\noverhead reduction vs sync-full: "
              f"insert={reductions['insert']:.0%} "
              f"async={reductions['async']:.0%}")


def _run_figure8() -> str:
    return format_series(exp.figure8_read_latency())


def _run_figure9() -> str:
    return format_series(exp.figure9_range_selectivity())


def _run_figure10() -> str:
    small, big = exp.figure10_scaleout()
    return format_series(small) + "\n\n" + format_series(big)


def _run_figure11() -> str:
    rows = [[f"{rate:.0f}", f"{pct[50]:.1f}", f"{pct[99]:.1f}",
             f"{frac:.0%}", f"{live['p50_ms']:.1f}",
             f"{live['p99_ms']:.1f}", f"{live['count']:.0f}"]
            for rate, pct, frac, live in exp.figure11_staleness()]
    return format_table(["target TPS", "p50 lag (ms)", "p99 lag (ms)",
                         "<=100ms", "live p50", "live p99", "live n"],
                        rows,
                        title="Figure 11 — index staleness vs load "
                              "(post-hoc tracker | live auq_lag_ms probe)")


def _run_index_vs_scan() -> str:
    result = exp.claim_index_vs_scan()
    return (f"index: {result['index_ms']:.2f} ms | "
            f"scan: {result['scan_ms']:.2f} ms | "
            f"speedup: {result['speedup']:.0f}x")


def _run_metrics() -> str:
    """One mixed YCSB run with the full observability snapshot attached —
    AUQ depth/lag probes, per-phase span latencies, RPC histograms."""
    from repro.bench.harness import Experiment, ExperimentConfig
    from repro.ycsb.workload import OpType
    config = ExperimentConfig(record_count=1500, title_cardinality=300,
                              scheme_label="async")
    experiment = Experiment(config)
    result = experiment.run_closed(
        {OpType.UPDATE: 0.6, OpType.INDEX_READ: 0.4},
        num_threads=8, duration_ms=1500.0, warmup_ms=200.0)
    experiment.cluster.quiesce()
    overall = result.overall()
    header = (f"mixed update/index-read run (async scheme): "
              f"{overall.count} ops, mean {overall.mean_ms:.2f} ms")
    return header + "\n\n" + render_metrics_snapshot(
        experiment.metrics_snapshot())


def _run_drain_ablation() -> str:
    results = exp.ablation_drain_before_flush()
    rows = [[name, f"{r['mean_ms']:.2f}", f"{r['tps']:.0f}",
             f"{r['sustained_tps']:.0f}", r["backlog_at_end"]]
            for name, r in results.items()]
    return format_table(["variant", "put mean (ms)", "ack tps",
                         "sustained tps", "backlog"],
                        rows, title="Ablation — drain-AUQ-before-flush")


RUNNERS: Dict[str, Callable[[], str]] = {
    "table1": _run_table1,
    "table2": _run_table2,
    "figure7": _run_figure7,
    "figure8": _run_figure8,
    "figure9": _run_figure9,
    "figure10": _run_figure10,
    "figure11": _run_figure11,
    "index-vs-scan": _run_index_vs_scan,
    "drain-ablation": _run_drain_ablation,
    "metrics": _run_metrics,
}


def main(argv: List[str] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment names, or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--scale", choices=["small", "full"],
                        default="small",
                        help="sweep size (sets REPRO_BENCH_SCALE)")
    parser.add_argument("--out", type=str, default=None,
                        help="also write results to this file")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:")
        for name in RUNNERS:
            print(f"  {name}")
        print("  all")
        return 0

    os.environ["REPRO_BENCH_SCALE"] = args.scale
    names = list(RUNNERS) if args.experiments == ["all"] \
        else args.experiments
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    chunks = []
    for name in names:
        print(f"== running {name} ==", flush=True)
        output = RUNNERS[name]()
        print(output)
        print()
        chunks.append(f"== {name} ==\n{output}\n")

    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(chunks))
        print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
