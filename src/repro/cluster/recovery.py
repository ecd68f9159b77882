"""Region-server failure recovery (§5.3), promotion-aware.

HBase's protocol, plus the Diff-Index addition:

1. fetch the dead server's WAL from SimHDFS and split it per region;
2. reassign each region to a live server;
3. re-link the flushed store files (they persist in SimHDFS);
4. replay the region's WAL slice into the new server's memtable, re-logging
   every record into the new server's own WAL;
5. **Diff-Index**: every replayed put of an indexed table is re-added to
   the new server's AUQ, "regardless of whether or not it has been
   delivered to index tables before the failure" — correct because index
   entries carry base timestamps, making re-delivery idempotent.

Because the drain-AUQ-before-flush protocol guarantees ``PR(Flushed) = ∅``,
the WAL is a complete log of every pending AUQ task, and no separate AUQ
log is needed.

With replication on (``repro.replication``), a region that still has a
live follower takes the fast path instead: *promotion* of the most
caught-up follower, replaying only the catch-up tail of the WAL slice
(see :func:`repro.replication.promote.promote_follower`).  The classic
full replay above remains the fallback for unreplicated regions and for
the unlucky case where every follower died too.  Either way the dead
server is also scrubbed from the follower sets of regions led elsewhere,
and every affected region is topped back up to its replication factor.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.core.auq import IndexTask
from repro.core.local import is_reserved_key
from repro.lsm.wal import WalRecord
from repro.cluster.region import Region, split_cell_key
from repro.sim.kernel import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import MiniCluster
    from repro.cluster.server import RegionServer

__all__ = ["recover_server", "task_from_wal_record"]

_REPLAY_COST_PER_RECORD_MS = 0.02
_REGION_OPEN_COST_MS = 5.0


def task_from_wal_record(record: WalRecord) -> Optional[IndexTask]:
    """Rebuild the AUQ task for one replayed base mutation.

    A record whose cells are all tombstones was a row delete; mixed or
    value cells reconstruct the put's column map.  ``index_names=None``
    targets every index of the table — re-delivery is idempotent, so over-
    covering sync indexes is safe and also repairs any sync index op the
    crash interrupted before its ack.
    """
    if not record.indexed or not record.cells:
        return None
    values: Dict[str, bytes] = {}
    row = None
    ts = record.cells[0].ts
    all_tombstones = True
    for cell in record.cells:
        if is_reserved_key(cell.key):
            # Local-index cells ride in the same record as their base put
            # (crash atomicity); they replay as plain cells and need no
            # AUQ task.
            continue
        row, qualifier = split_cell_key(cell.key)
        if cell.value is not None:
            values[qualifier] = cell.value
            all_tombstones = False
    if row is None:
        return None
    if all_tombstones:
        return IndexTask(record.table, row, None, ts)
    return IndexTask(record.table, row, values, ts)


def recover_server(cluster: "MiniCluster", dead: "RegionServer",
                   ) -> Generator[Any, Any, int]:
    """Reassign and replay (or promote) every region of ``dead``.
    Returns the number of regions recovered."""
    from repro.replication.promote import (ensure_replicas,
                                           find_promotion_candidate,
                                           promote_follower)

    hdfs = cluster.hdfs
    master = cluster.master
    replication = cluster.replication
    wal_split: Dict[str, List[WalRecord]] = {}
    if hdfs.has_wal(dead.name):
        records = hdfs.wal_records(dead.name)
        for record in records:
            wal_split.setdefault(record.region_name, []).append(record)

    recovered = 0
    for info in master.regions_on(dead.name):
        wal_slice = wal_split.get(info.region_name, [])
        _prune_dead_followers(cluster, info)
        candidate = (find_promotion_candidate(cluster, info)
                     if replication.enabled else None)
        if candidate is not None:
            # Fast path: hand the region to its most caught-up follower;
            # only the catch-up tail above its high-watermark is replayed.
            target, replica = candidate
            yield from promote_follower(cluster, info, target, replica,
                                        wal_slice)
            cluster.metrics.counter("promotions_total").inc()
            ensure_replicas(cluster, info)
            recovered += 1
            continue

        target = _pick_target(cluster, dead, info)
        descriptor = master.descriptor(info.table)
        region = Region(info.region_name, descriptor, info.key_range)
        # (3) re-link flushed store files.
        region.tree.adopt_sstables(hdfs.store_files(info.table,
                                                    info.region_name))
        target.add_region(region)
        yield Timeout(_REGION_OPEN_COST_MS)

        # (4)+(5) replay the WAL slice.  The re-log into the new server's
        # WAL is ONE group commit per region (the replay is sequential
        # I/O on both ends); each replayed mutation keeps its own record
        # and a fresh seqno, so later flushes roll forward correctly.
        if wal_slice:
            new_records = target.wal.append_batch(
                [(region.name, record.table, record.cells, record.indexed)
                 for record in wal_slice])
            for record, new_record in zip(wal_slice, new_records):
                region.tree.add_many(record.cells, seqno=new_record.seqno)
                task = task_from_wal_record(record)
                if task is not None:
                    task.enqueued_at = cluster.sim.now()
                    target.auq.put(task)
            target.adopt_timestamps(region)
            yield Timeout(len(wal_slice) * _REPLAY_COST_PER_RECORD_MS)

        master.reassign(info, target.name)
        if replication.enabled:
            ensure_replicas(cluster, info)
        recovered += 1

    if replication.enabled:
        _scrub_dead_follower(cluster, dead.name)
    hdfs.delete_wal(dead.name)
    return recovered


def _prune_dead_followers(cluster: "MiniCluster", info) -> None:
    """Drop follower entries pointing at dead servers (their memtable
    replicas died with the process)."""
    if not info.replica_servers:
        return
    info.replica_servers[:] = [
        name for name in info.replica_servers
        if name in cluster.servers and cluster.servers[name].alive]


def _scrub_dead_follower(cluster: "MiniCluster", dead_name: str) -> None:
    """Regions led elsewhere lose any follower they had on the dead
    server; each is topped back up on a fresh host (anti-affine)."""
    from repro.replication.promote import ensure_replicas
    for infos in cluster.master.layout.values():
        for info in infos:
            if dead_name not in info.replica_servers:
                continue
            info.replica_servers.remove(dead_name)
            leader = cluster.servers.get(info.server_name)
            if leader is not None:
                leader.ship_state.pop((info.region_name, dead_name), None)
            ensure_replicas(cluster, info)


def _pick_target(cluster: "MiniCluster", dead: "RegionServer",
                 info) -> "RegionServer":
    """Least-loaded live server for a full-replay recovery, anti-affine
    with the region's surviving followers when possible (the shared
    scoring lives in :func:`repro.placement.manager.pick_placement_target`
    so recovery and the balancer agree on what "loaded" means)."""
    from repro.placement.manager import pick_placement_target
    target = pick_placement_target(
        cluster, exclude=(dead.name, *info.replica_servers))
    if target is None:
        # Every non-follower server is gone; tolerate co-location rather
        # than lose the region, and retire the clashing follower.
        target = pick_placement_target(cluster, exclude=(dead.name,))
    if target is None:
        raise RuntimeError("no live server available for recovery")
    if target.name in info.replica_servers:
        info.replica_servers.remove(target.name)
        target.remove_follower(info.region_name)
    return target
