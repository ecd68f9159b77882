"""Replication knobs.

``replication_factor=1`` (the default) keeps every region single-copy
and the whole subsystem inert: no follower regions are placed, no ship
loop is spawned, and recovery falls back to the classic full WAL replay
— existing experiments are byte-identical.
"""

from __future__ import annotations

import dataclasses

__all__ = ["ReplicationConfig"]


@dataclasses.dataclass
class ReplicationConfig:
    """Cluster-wide replication knobs (``MiniCluster(replication=...)``).

    Each region gets one leader plus ``replication_factor - 1`` followers
    on distinct servers (anti-affinity).  The leader ships its WAL tail
    to followers every ``ship_interval_ms`` in group-commit-framed
    batches of up to ``ship_batch_size`` records; an empty ship doubles
    as a heartbeat so a follower's coverage time — and therefore the
    staleness it advertises — keeps advancing on an idle region.
    """

    replication_factor: int = 1
    ship_interval_ms: float = 10.0
    ship_batch_size: int = 128

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, "
                f"got {self.replication_factor!r}")

    @property
    def enabled(self) -> bool:
        return self.replication_factor > 1
