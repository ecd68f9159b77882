"""Pins the simulated model exactly (ledger/README.md, "Two clocks").

A ledger ``sim_fingerprint`` hashes every simulated statistic and work
count of one workload run; it is a function of (code, seed) alone —
independent of host, load and ``PYTHONHASHSEED``.  These are the four
workloads at 1/8 scale, seed 42, correctness gate included.  A change
that moves one of them changed simulated behaviour: if that was the
intent, update the constant in the same diff and say why.

Last moved on purpose by the timestamp-bounded point read (DESIGN.md
§13.6): ``LSMTree.get`` now skips, before the bloom probe, every SSTable
whose timestamp window cannot hold the deciding cell, and consults a
probed file's block index once instead of twice — fewer bloom probes,
block reads and ``learned_index_probe_error`` observations on every
workload, hence shorter RB / double-check / validate latencies — and by
the staleness T1 fix (``IndexTask.visible_at``), which stops
``auq_lag_ms`` clamping to 0 after a bulk load (``open_async_rf3`` and
``range_aged_validation``).
"""

import pytest

from ledger.measure import run_repeat
from ledger.workloads import SPECS

FINGERPRINTS = {
    "write_heavy_full": "feda0891a551c570",
    "read_heavy_insert": "878b34bc8681c8c6",
    "range_aged_validation": "92158231c2fe14b1",
    "open_async_rf3": "f33dd72ec7d646b6",
}


@pytest.mark.parametrize("name", list(SPECS))
def test_sim_fingerprint_is_unchanged(name):
    assert run_repeat(SPECS[name], 42, 1 / 8).fingerprint \
        == FINGERPRINTS[name]
