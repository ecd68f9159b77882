"""The validation scheme's background cleaner (DESIGN.md §14).

Reads through a VALIDATION index filter stale hits but never repair them
inline — that keeps the read at one scatter round trip.  Discovered dead
entries land here instead: a per-cluster worker wakes every
``interval_ms`` of simulated time, drains a batch, and deletes each
entry *at its own timestamp* (the same DI the sync-insert read repair
issues, so a base row later updated back to an old value is unaffected —
its re-insert wrote a NEW entry version above the tombstone).

Deletion failures from concurrent splits/moves/crashes are transient:
the entry is re-queued and retried on a later tick, after the client's
routing cache has refreshed.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.errors import NoSuchRegionError, RpcError
from repro.sim.kernel import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import MiniCluster

__all__ = ["ValidationCleaner"]

# Deletes per RPC.  A chunk's WAL sync holds the target's log device, so
# a larger chunk blocks a concurrent put for longer (DESIGN.md §14.3).
CHUNK_OPS = 8


class ValidationCleaner:
    """Deferred garbage collection of invalidated index entries.

    ``note`` is the producer side (called by the read path's validation
    filter); ``worker`` is the consumer, spawned by
    :meth:`MiniCluster.start`.  Entries are deduplicated on
    ``(index_table, index_key, ts)`` — a hot stale entry surfacing in
    many reads is purged once.
    """

    def __init__(self, cluster: "MiniCluster", interval_ms: float = 25.0,
                 batch_size: int = 64):
        self.cluster = cluster
        self.interval_ms = interval_ms
        self.batch_size = batch_size
        self._pending: dict = {}   # (index_table, index_key, ts) -> None
        self._depth = cluster.metrics.gauge("validation_cleaner_backlog")
        self._purged = cluster.metrics.counter(
            "validation_cleaner_purged_total")

    # -- producer side ---------------------------------------------------------

    def note(self, index_table: str, index_key: bytes, ts: int) -> None:
        """A read's validation filter discovered a dead entry."""
        key = (index_table, index_key, ts)
        if key not in self._pending:
            self._pending[key] = None
            self._depth.set(len(self._pending))

    @property
    def backlog(self) -> int:
        return len(self._pending)

    @property
    def purged(self) -> int:
        return self._purged.value

    # -- consumer side ---------------------------------------------------------

    def worker(self) -> Generator[Any, Any, None]:
        """The per-cluster cleaner process (runs forever in sim time)."""
        while True:
            yield Timeout(self.interval_ms)
            yield from self.drain_batch(self.batch_size)

    def drain_batch(self, limit: Optional[int] = None,
                    ) -> Generator[Any, Any, int]:
        """Delete up to ``limit`` pending entries; returns how many were
        purged.  An entry that cannot be routed, and every entry of a
        chunk whose RPC fails on a stale route or a lost or dead server,
        is re-queued for the next tick."""
        if not self._pending:
            return 0
        batch = list(self._pending)
        if limit is not None:
            batch = batch[:limit]
        for key in batch:
            del self._pending[key]
        cluster = self.cluster
        groups: Dict[Any, List[tuple]] = {}
        for entry in batch:
            index_table, index_key, _ts = entry
            if index_table not in cluster.index_by_table:
                # Index dropped since discovery: the table (and the
                # entry) are gone; nothing to purge.
                continue
            try:
                server, _region = cluster.locate(index_table, index_key)
            except NoSuchRegionError:
                self._pending.setdefault(entry, None)
                continue
            groups.setdefault(server, []).append(entry)
        purged = 0
        for server, entries in groups.items():
            for start in range(0, len(entries), CHUNK_OPS):
                chunk = entries[start:start + CHUNK_OPS]
                ops = [("del", *entry) for entry in chunk]
                try:
                    yield from cluster.network.call(
                        server, lambda: server.handle_index_ops(
                            ops, background=False))
                except (NoSuchRegionError, RpcError):
                    for entry in chunk:
                        self._pending.setdefault(entry, None)
                    continue
                purged += len(chunk)
                self._purged.inc(len(chunk))
                cluster.staleness.settle_debt(len(chunk))
        self._depth.set(len(self._pending))
        return purged
