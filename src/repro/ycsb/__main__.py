"""Standalone YCSB-style driver CLI: ``python -m repro.ycsb``.

One mixed update/index-read run against a freshly built cluster, with
the maintenance scheme picked on the command line — every label in the
central registry (``repro.core.schemes.SCHEME_LABELS``) is accepted,
including ``validation``:

    python -m repro.ycsb --scheme validation --update-fraction 0.8
    python -m repro.ycsb --scheme full --threads 16 --duration-ms 2000
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.schemes import SCHEME_LABELS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ycsb",
        description="Run one closed-loop YCSB-style workload.")
    parser.add_argument("--scheme", choices=sorted(SCHEME_LABELS),
                        default="full",
                        help="index maintenance scheme (or 'null' for no "
                             "index)")
    parser.add_argument("--update-fraction", type=float, default=0.5,
                        help="fraction of ops that are updates; the rest "
                             "are index reads (base reads under 'null')")
    parser.add_argument("--records", type=int, default=2000)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--duration-ms", type=float, default=1000.0)
    parser.add_argument("--warmup-ms", type=float, default=200.0)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    if not 0.0 <= args.update_fraction <= 1.0:
        parser.error("--update-fraction must be within [0, 1]")

    from repro.bench.harness import Experiment, ExperimentConfig
    from repro.ycsb.workload import OpType

    config = ExperimentConfig(
        record_count=args.records,
        title_cardinality=max(1, args.records // 5),
        scheme_label=args.scheme, seed=args.seed)
    experiment = Experiment(config)
    read_op = OpType.BASE_READ if args.scheme == "null" else OpType.INDEX_READ
    proportions = {OpType.UPDATE: args.update_fraction,
                   read_op: 1.0 - args.update_fraction}
    proportions = {op: frac for op, frac in proportions.items() if frac > 0}
    result = experiment.run_closed(proportions, num_threads=args.threads,
                                   duration_ms=args.duration_ms,
                                   warmup_ms=args.warmup_ms)
    experiment.cluster.quiesce()

    overall = result.overall()
    print(f"scheme={args.scheme} ops={overall.count} "
          f"mean={overall.mean_ms:.3f}ms p95={overall.p95_ms:.3f}ms "
          f"p99={overall.p99_ms:.3f}ms failed={result.failed}")
    for op in sorted(proportions):
        stats = result.stats(op)
        if stats.count:
            print(f"  {op}: n={stats.count} mean={stats.mean_ms:.3f}ms "
                  f"p95={stats.p95_ms:.3f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
