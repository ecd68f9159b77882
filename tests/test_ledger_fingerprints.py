"""Pins the simulated model exactly (ledger/README.md, "Two clocks").

A ledger ``sim_fingerprint`` hashes every simulated statistic and work
count of one workload run; it is a function of (code, seed) alone —
independent of host, load and ``PYTHONHASHSEED``.  These are the four
workloads at 1/8 scale, seed 42, correctness gate included.  A change
that moves one of them changed simulated behaviour: if that was the
intent, update the constant in the same diff and say why.

Last moved on purpose when a single-row write became a batch of one:
its base write and its index entries now go through the group-commit
handlers, which observe the ``wal_group_commit_size`` histogram that
the old single-row handlers skipped.  Nothing else moved: every per-op
latency, hit, event count, counter and other histogram hashes
identically before and after on all four workloads, at full scale as
well (``scripts/sim_diff.py --names`` names the one histogram).
"""

import pytest

from ledger.measure import run_repeat
from ledger.workloads import SPECS

FINGERPRINTS = {
    "write_heavy_full": "d07b4bfcf900b43c",
    "read_heavy_insert": "7e0065b634ea60f7",
    "range_aged_validation": "c43dd82f6638cc31",
    "open_async_rf3": "c740935184ef1572",
}


@pytest.mark.parametrize("name", list(SPECS))
def test_sim_fingerprint_is_unchanged(name):
    assert run_repeat(SPECS[name], 42, 1 / 8).fingerprint \
        == FINGERPRINTS[name]
