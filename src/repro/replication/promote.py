"""Replica lifecycle: placement, promotion-based failover, resync.

Promotion replaces the classic recovery path for replicated regions.
Where single-copy recovery rebuilds a region from scratch — adopt store
files, replay the dead server's ENTIRE WAL slice into a fresh memtable —
promotion starts from the most caught-up follower, which already holds
everything up to its ``applied_seqno`` in its own memtable, and replays
only the *catch-up tail*: the dead leader's WAL records above that
watermark.  The whole slice is still re-logged into the new leader's WAL
(fresh seqnos, one group commit) so the promoted region is as durable as
a recovered one, and every indexed record is re-enqueued on the AUQ —
``PR(Flushed) = ∅`` means the slice is a complete log of pending index
work, and re-delivery is idempotent (§5.3).

The simulated-time cost model makes the win measurable: a full replay
charges ``_REGION_OPEN_COST_MS`` plus per-record replay time for the
whole slice; a promotion charges a small open cost plus per-record time
for the tail only.
"""

from __future__ import annotations

from typing import (Any, Generator, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from repro.cluster.recovery import task_from_wal_record
from repro.cluster.region import Region
from repro.lsm.wal import WalRecord
from repro.replication.replica import FollowerReplica
from repro.sim.kernel import Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import MiniCluster
    from repro.cluster.master import RegionInfo
    from repro.cluster.server import RegionServer

__all__ = ["create_follower", "ensure_replicas", "find_promotion_candidate",
           "promote_follower", "resync_followers"]

# Opening an already-materialised follower is cheap compared to the full
# region open of classic recovery (5 ms there): the memtable exists and
# the store files are already linked.
_PROMOTION_OPEN_COST_MS = 1.0
_REPLAY_COST_PER_RECORD_MS = 0.02   # same unit cost as classic replay


def create_follower(cluster: "MiniCluster", info: "RegionInfo",
                    target: "RegionServer",
                    caught_up_through: float = 0.0) -> FollowerReplica:
    """Materialise one follower of ``info`` on ``target``: build a shadow
    region, adopt the current durable store files, and seed the
    watermarks from the leader's latest flush point when one exists (the
    store files provably cover everything acked by the flush's prepare
    time).  Registers the follower in ``info.replica_servers``."""
    descriptor = cluster.master.descriptor(info.table)
    region = Region(info.region_name, descriptor, info.key_range)
    store = cluster.hdfs.store_files(info.table, info.region_name)
    if store:
        region.tree.adopt_sstables(store)
    replica = FollowerReplica(region, info.server_name,
                              caught_up_through=caught_up_through)
    leader = cluster.servers.get(info.server_name)
    flush_point = (leader.flush_points.get(info.region_name)
                   if leader is not None and leader.alive else None)
    if flush_point is not None:
        rolled_seqno, prepare_time = flush_point
        replica.relinked_seqno = rolled_seqno
        replica.applied_seqno = rolled_seqno
        if prepare_time > replica.caught_up_through:
            replica.caught_up_through = prepare_time
    target.add_follower(replica)
    if target.name not in info.replica_servers:
        info.replica_servers.append(target.name)
    return replica


def ensure_replicas(cluster: "MiniCluster", info: "RegionInfo",
                    ) -> List[FollowerReplica]:
    """Top ``info`` back up to ``replication_factor - 1`` followers,
    respecting anti-affinity (never on the leader or an existing
    follower).  Placement degrades gracefully: with too few live servers
    the region simply runs under-replicated until one returns."""
    config = cluster.replication
    if not config.enabled:
        return []
    from repro.placement.manager import pick_placement_target
    created: List[FollowerReplica] = []
    while len(info.replica_servers) < config.replication_factor - 1:
        exclude = {info.server_name, *info.replica_servers}
        target = pick_placement_target(cluster, exclude=exclude)
        if target is None:
            break
        created.append(create_follower(cluster, info, target))
    return created


def find_promotion_candidate(cluster: "MiniCluster", info: "RegionInfo",
                             ) -> Optional[Tuple["RegionServer",
                                                 FollowerReplica]]:
    """The most caught-up live follower of ``info`` (highest
    ``applied_seqno``; coverage time then server name break ties
    deterministically), or None when no follower survived."""
    candidates: List[Tuple["RegionServer", FollowerReplica]] = []
    for name in info.replica_servers:
        server = cluster.servers.get(name)
        if server is None or not server.alive:
            continue
        replica = server.follower_regions.get(info.region_name)
        if replica is not None:
            candidates.append((server, replica))
    if not candidates:
        return None
    return max(candidates,
               key=lambda pair: (pair[1].applied_seqno,
                                 pair[1].caught_up_through, pair[0].name))


def promote_follower(cluster: "MiniCluster", info: "RegionInfo",
                     target: "RegionServer", replica: FollowerReplica,
                     wal_slice: Sequence[WalRecord],
                     ) -> Generator[Any, Any, int]:
    """Promote ``replica`` (on ``target``) to leader of ``info``, given
    the dead leader's WAL slice for the region.  Returns the number of
    catch-up tail records replayed — the measure of how little work
    promotion did compared to a full replay of ``len(wal_slice)``."""
    master = cluster.master
    region = replica.region
    target.remove_follower(info.region_name)
    # Adopt the authoritative store listing unconditionally: a follower
    # that missed a flush notification still promotes with complete
    # flushed data.  Memtable cells also present in the files are
    # duplicates with identical (key, ts) and resolve away on read.
    region.tree.relink_sstables(
        cluster.hdfs.store_files(info.table, info.region_name))
    region.closing = False
    region.flushing = False
    target.add_region(region)
    yield Timeout(_PROMOTION_OPEN_COST_MS)

    tail = [r for r in wal_slice if r.seqno > replica.applied_seqno]
    if wal_slice:
        # Re-log the WHOLE slice (one group commit, fresh seqnos): the
        # new leader must be able to survive its own crash before its
        # first flush.  Only the tail is applied to the memtable — the
        # rest is already there from shipping — and only the tail is
        # charged replay time.
        new_records = target.wal.append_batch(
            [(region.name, record.table, record.cells, record.indexed)
             for record in wal_slice])
        for record, new_record in zip(wal_slice, new_records):
            if record.seqno > replica.applied_seqno:
                region.tree.add_many(record.cells, seqno=new_record.seqno)
            task = task_from_wal_record(record)
            if task is not None:
                task.enqueued_at = cluster.sim.now()
                target.auq.put(task)
        # Post-promotion flushes must roll the re-logged records forward:
        # the high-watermark jumps to the freshest re-logged seqno even
        # when the tail was empty.
        region.tree.last_applied_seqno = new_records[-1].seqno
        target.adopt_timestamps(region)
        if tail:
            yield Timeout(len(tail) * _REPLAY_COST_PER_RECORD_MS)

    master.reassign(info, target.name)
    if target.name in info.replica_servers:
        info.replica_servers.remove(target.name)
    return len(tail)


def resync_followers(cluster: "MiniCluster", info: "RegionInfo",
                     leader_time: Optional[float]) -> None:
    """Hard-resync every live follower of ``info`` to the current durable
    store files.  Call synchronously (no yields) right after a close+
    flush commit (migration, split) — at that instant the files are the
    complete region image, so ``leader_time`` is a valid coverage time."""
    store = cluster.hdfs.store_files(info.table, info.region_name)
    for name in list(info.replica_servers):
        server = cluster.servers.get(name)
        if server is None or not server.alive:
            continue
        replica = server.follower_regions.get(info.region_name)
        if replica is not None:
            replica.reset_to_store(store, leader_time)
