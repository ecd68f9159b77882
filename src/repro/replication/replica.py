"""Follower-side replica state: a shadow region fed by WAL shipping.

A follower replica is a full :class:`~repro.cluster.region.Region` (own
memtable, own read path) hosted on a server that is *not* the region's
leader.  It never takes writes from clients and never flushes; instead
the leader's ship loop delivers WAL record batches which the follower
applies idempotently, and flush notifications piggybacked on those
batches let it swap its replayed prefix for the shared store files in
SimHDFS (zero-copy: store files are durable and global, exactly like
HBase store files on HDFS).

Two watermarks drive every consistency decision:

``applied_seqno``
    highest WAL seqno applied into this replica's tree — the replication
    high-watermark.  Promotion picks the candidate maximising it, and
    the catch-up tail it must replay is exactly the dead leader's WAL
    records above it.
``caught_up_through``
    a *leader-clock* coverage time: every write the leader acknowledged
    at or before this instant is visible here.  Advanced only by
    complete (untruncated) ship batches — which carry the leader's send
    time — and by flush points (recorded synchronously with the WAL
    roll-forward, so the store files cover everything up to the prepare
    time).  ``now - caught_up_through`` is the staleness a follower read
    advertises, and the bound the client enforces.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, TYPE_CHECKING

from repro.lsm.memtable import MemTable
from repro.lsm.wal import WalRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.region import Region

__all__ = ["FollowerReplica"]


class FollowerReplica:
    """One follower copy of one region, living on ``host`` and tracking
    the leader ``leader_name`` (see module docstring for the watermark
    semantics)."""

    def __init__(self, region: "Region", leader_name: str,
                 caught_up_through: float = 0.0):
        self.region = region
        self.leader_name = leader_name
        self.applied_seqno = 0
        self.caught_up_through = caught_up_through
        # Store-file generation adopted so far: WAL records with seqno
        # <= relinked_seqno are covered by the linked store files and
        # must not be replayed into the memtable again.
        self.relinked_seqno = 0
        # Records applied to the memtable since the last relink, kept so
        # a relink can rebuild the un-flushed suffix.
        self.tail: List[WalRecord] = []

    @property
    def region_name(self) -> str:
        return self.region.name

    def apply(self, record: WalRecord) -> bool:
        """Apply one shipped WAL record; idempotent (seqno-gated)."""
        if record.seqno <= self.applied_seqno:
            return False
        self.tail.append(record)
        self.region.tree.add_many(record.cells, seqno=record.seqno)
        self.applied_seqno = record.seqno
        return True

    def relink(self, store_files: Iterable, rolled_seqno: int,
               leader_time: Optional[float]) -> None:
        """Adopt the leader's flushed store files (covering seqnos up to
        ``rolled_seqno``) and rebuild the memtable from the tail above
        them — the follower-side mirror of the leader's WAL roll-forward."""
        if rolled_seqno <= self.relinked_seqno:
            return
        tree = self.region.tree
        tree.relink_sstables(list(store_files))
        tree._memtable = MemTable()
        survivors = [r for r in self.tail if r.seqno > rolled_seqno]
        for record in survivors:
            for cell in record.cells:
                tree._memtable.add(cell)
        self.tail = survivors
        self.relinked_seqno = rolled_seqno
        if rolled_seqno > self.applied_seqno:
            self.applied_seqno = rolled_seqno
            tree.last_applied_seqno = rolled_seqno
        if leader_time is not None and leader_time > self.caught_up_through:
            self.caught_up_through = leader_time

    def reset_to_store(self, store_files: Iterable,
                       leader_time: Optional[float]) -> None:
        """Hard resync after a close+flush (migration/split commit): the
        durable store files are the COMPLETE region image, so the replayed
        memtable and tail are dropped wholesale.  Called synchronously
        with the layout change, which is what makes ``leader_time`` an
        exact coverage claim."""
        tree = self.region.tree
        tree.relink_sstables(list(store_files))
        tree._memtable = MemTable()
        self.tail = []
        if self.applied_seqno > self.relinked_seqno:
            self.relinked_seqno = self.applied_seqno
        if leader_time is not None and leader_time > self.caught_up_through:
            self.caught_up_through = leader_time

    def staleness_at(self, now: float) -> float:
        return max(0.0, now - self.caught_up_through)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FollowerReplica {self.region.name} leader="
                f"{self.leader_name} applied={self.applied_seqno}>")
