"""Pins the simulated model exactly (ledger/README.md, "Two clocks").

A ledger ``sim_fingerprint`` hashes every simulated statistic and work
count of one workload run; it is a function of (code, seed) alone —
independent of host, load and ``PYTHONHASHSEED``.  These are the four
workloads at 1/8 scale, seed 42, correctness gate included.  A change
that moves one of them changed simulated behaviour: if that was the
intent, update the constant in the same diff and say why.
"""

import pytest

from ledger.measure import run_repeat
from ledger.workloads import SPECS

FINGERPRINTS = {
    "write_heavy_full": "2f47bb8aed1faa0e",
    "read_heavy_insert": "a12ca3e30e8291a0",
    "range_aged_validation": "208bedf672b5b606",
    "open_async_rf3": "1f2f127737a02a9a",
}


@pytest.mark.parametrize("name", list(SPECS))
def test_sim_fingerprint_is_unchanged(name):
    assert run_repeat(SPECS[name], 42, 1 / 8).fingerprint \
        == FINGERPRINTS[name]
