"""``repro.replication``: N-way region replicas for the MiniCluster.

Extends the single-copy serving layer with a leader/follower scheme:

* every region gets ``replication_factor - 1`` follower replicas on
  distinct servers (anti-affinity), fed by a leader-side WAL ship loop
  that frames each batch of records like one group commit
  (:mod:`repro.replication.ship`);
* followers apply shipped records into their own memtables and track
  two watermarks — applied seqno and a leader-clock coverage time —
  from which the ``replication_lag_ms`` histogram is measured
  (:mod:`repro.replication.replica`);
* failover becomes *promotion*: recovery hands a replicated region to
  its most caught-up follower and replays only the catch-up tail,
  instead of the full WAL slice (:mod:`repro.replication.promote`).

Clients read and write the leader only; a follower copy exists to be
promoted.  Everything is off at the default ``replication_factor=1``.
"""

from repro.replication.config import ReplicationConfig
from repro.replication.promote import (create_follower, ensure_replicas,
                                       find_promotion_candidate,
                                       promote_follower, resync_followers)
from repro.replication.replica import FollowerReplica
from repro.replication.ship import replication_ship_loop

__all__ = [
    "ReplicationConfig", "FollowerReplica",
    "replication_ship_loop",
    "create_follower", "ensure_replicas", "find_promotion_candidate",
    "promote_follower", "resync_followers",
]
