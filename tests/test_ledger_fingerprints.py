"""Pins the simulated model exactly (ledger/README.md, "Two clocks").

A ledger ``sim_fingerprint`` hashes every simulated statistic and work
count of one workload run; it is a function of (code, seed) alone —
independent of host, load and ``PYTHONHASHSEED``.  These are the four
workloads at 1/8 scale, seed 42, correctness gate included.  A change
that moves one of them changed simulated behaviour: if that was the
intent, update the constant in the same diff and say why.

Last moved on purpose, for ``write_heavy_full`` and
``range_aged_validation``, when the block cache became a segmented LRU:
a block read once no longer evicts one read twice, so the block-cache
hit/miss counters and every latency downstream of a disk read moved.
``read_heavy_insert`` hashes identically at this scale (it moves at full
scale), and ``open_async_rf3``, whose cache holds its data and never
evicts, hashes identically at both, as do both ``--quick`` scenario
digests (``scripts/sim_diff.py --names --scenarios``).

Before that, ``range_aged_validation`` alone moved when the validation
read stopped fetching base rows: it now checks each candidate
against its row's indexed-column timestamps, read off the SSTables'
timestamp sidecars, so it charges sidecar blocks instead of data blocks
and the read latencies, hits, event count, block-cache and bisect-probe
counters and the latency histograms moved.  The other three workloads
and both ``--quick`` scenario digests hash identically before and after,
at full scale as well (``scripts/sim_diff.py --names --scenarios``).

Before that, all four moved when a single-row write became a batch of
one and started observing the ``wal_group_commit_size`` histogram.
"""

import pytest

from ledger.measure import run_repeat
from ledger.workloads import SPECS

FINGERPRINTS = {
    "write_heavy_full": "a8941a6845d45973",
    "read_heavy_insert": "7e0065b634ea60f7",
    "range_aged_validation": "b2e6424d9c8f77fd",
    "open_async_rf3": "c740935184ef1572",
}


@pytest.mark.parametrize("name", list(SPECS))
def test_sim_fingerprint_is_unchanged(name):
    assert run_repeat(SPECS[name], 42, 1 / 8).fingerprint \
        == FINGERPRINTS[name]
