"""Pins the simulated model exactly (ledger/README.md, "Two clocks").

A ledger ``sim_fingerprint`` hashes every simulated statistic and work
count of one workload run; it is a function of (code, seed) alone —
independent of host, load and ``PYTHONHASHSEED``.  These are the four
workloads at 1/8 scale, seed 42, correctness gate included.  A change
that moves one of them changed simulated behaviour: if that was the
intent, update the constant in the same diff and say why.

Last moved, ``range_aged_validation`` alone, when the price index's
split keys began to be built with the index's own encoder
(``core.encoding.index_split_keys``).  They had encoded the price as a
float (tag 0x03) while every price entry starts with the encoded column
bytes (tag 0x04), so the whole price index sat in its last region and
every range scan waited on one server's disks.  Now the entries and the
scans spread over all four index regions, so the read latencies, hits,
event count, block-cache, cleaner and base-read counters and the
latency histograms moved.  The title split keys are the same bytes as
before, so the other three workloads hash identically, at full scale
too, on seeds 42, 7 and 1, as do both ``--quick`` scenario digests
(``scripts/sim_diff.py --seeds 42,7,1 --names --scenarios``).

Before that, all four moved when the replica read modes (follower, quorum,
latency-bound) were deleted, and with them the per-server
``follower_reads_total`` and ``quorum_repairs_total`` counters, which
every workload registered and none ever incremented.  The fingerprint
hashes every counter, so dropping those zero lines moved it; nothing
simulated did.  On seeds 42, 7 and 1 at full scale the ops, hits,
events and histograms hashes and every simulated end-to-end metric are
identical before and after, the only ``--names`` lines that differ are
the removed zeros, and both ``--quick`` scenario digests are identical
(``scripts/sim_diff.py --seeds 42,7,1 --names --scenarios``).

Before that, ``read_heavy_insert`` alone moved when
sync-insert's PI began to ship beside the base log write of its call
(``core.observers.HintShip``), so an update waits for
max(WAL + memtable, PI) rather than their sum, and Algorithm 2's
double-check began to repair a refuted entry only when the row's newest
indexed cell, value or tombstone, is at least as new as the entry.
The update latencies, the event count, the PI/put/WAL span and
group-commit histograms and, through the changed interleaving, the
read-repair, block-cache and base-read counters moved.  Only sync-insert
runs that schedule, so the other three workloads hash identically, at
full scale too, on seed 42 (``scripts/sim_diff.py --names``).  Of the
``--quick`` scenario digests only ``diurnal_flash_crowd``'s moved: its
tenants run a sync-insert index.

Before that, ``write_heavy_full`` alone moved when sync-full's
PI ship began to run beside its RB→DI chain (``core.auq.maintain_indexes``),
so an update waits for max(PI, RB + DI) rather than their sum, and a
same-value rewrite stopped shipping a DI.  Only sync-full and the
AUQ's degraded apply run that schedule, so the other three workloads
hash identically, at full scale too, on seeds 42, 7 and 1
(``scripts/sim_diff.py --seeds 42,7,1 --names``).  Both ``--quick``
scenario digests moved: their tenants run sync-full indexes.

Before that, all four moved when each server's WAL began to
group-commit across handlers (``repro.sim.resources.GroupCommitLog``):
a writer that finds the log device busy joins the next write instead of
queueing for one of its own, and ``wal_group_commit_size`` is observed
once per device write.  An idle log still costs what one append did,
but every workload has concurrent log writers, so the latencies, event
counts, counters and histograms of all four moved.  In the same change
the APS began to send one batch's per-server deliveries in parallel
rather than one after another, which moved ``open_async_rf3`` further;
the other three run no async index.  The log change alone left both
``--quick`` scenario digests unchanged; the parallel deliveries moved
them (``scripts/sim_diff.py --names --scenarios``).

Before that, ``range_aged_validation`` alone moved when the
timestamp sidecar's blocks became prefix-compressed (an entry is a
row-key suffix and an 8-byte ts, the qualifier stored once per block)
and the validation cleaner started sending its deletes batched per
server, at most eight per RPC.  A region's sidecar now fits in 2 blocks
instead of 6, so the validation read's timestamp check is served from
cache: the read latencies, hits, event count, block-cache counters,
WAL group-commit sizes and latency histograms moved.  Only validation
probes sidecars and only validation has a cleaner, so the other three
workloads hash identically, at full scale too, on seeds 42, 7 and 1
(``scripts/sim_diff.py --seeds 42,7,1``), as do both ``--quick``
scenario digests at seed 42.

Before that, ``write_heavy_full`` and ``range_aged_validation`` moved
when the block cache became a segmented LRU:
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
    "write_heavy_full": "666eb9d9251f62a7",
    "read_heavy_insert": "5be9af3b248eb238",
    "range_aged_validation": "da7f5c51b3752b97",
    "open_async_rf3": "24a538f0f8471fa4",
}


@pytest.mark.parametrize("name", list(SPECS))
def test_sim_fingerprint_is_unchanged(name):
    assert run_repeat(SPECS[name], 42, 1 / 8).fingerprint \
        == FINGERPRINTS[name]
