"""The Diff-Index coprocessors (§7, Figure 6) plus validation.

* :class:`SyncFullObserver` — Algorithm 1 inside the put RPC: insert new
  entry, read the old value at ``t_new − δ``, delete the old entry.  The
  put is acknowledged only when all of it is done (causal consistency).
* :class:`SyncInsertObserver` — Algorithm 1 truncated to SU1+SU2: only
  the insert is synchronous; stale entries are repaired at read time.
  Reads check every hit against its base row, so the insert is a hint:
  a :class:`HintShip` ships it beside the base log write.
* :class:`AsyncObserver` — Algorithm 3: enqueue an :class:`IndexTask`
  into the AUQ and acknowledge immediately; Algorithm 4 runs in the APS.
* :class:`ValidationObserver` — Luo & Carey's validation strategy: ship
  the index insert blindly in the background (cheapest foreground path of
  any sync scheme); reads validate hits and a cleaner collects the rest.

Schemes are chosen *per index* (§3.4), so each observer filters the
table's indexes down to the ones it owns; a put on a table with a
sync-full index and an async index runs both observers, each on its own
index set.

Failure handling follows §6.2: a failed synchronous index operation does
not roll back the base put — the whole task degrades to the AUQ, where
the APS retries it to eventual success.  A ship spawned to run beside
other work is wrapped in :func:`repro.core.auq.settled`, so its failure
is collected when the put joins it, never left as an unjoined crash.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Generator, List, Optional, Tuple, \
    TYPE_CHECKING

from repro.errors import NoSuchRegionError, RpcError
from repro.core.auq import (IndexTask, maintain_indexes, plan_insert_ops,
                            settled, ship_index_ops)
from repro.core.coprocessor import RegionObserver
from repro.core.schemes import IndexScheme
from repro.sim.kernel import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import RegionServer
    from repro.cluster.table import TableDescriptor

__all__ = ["SyncFullObserver", "SyncInsertObserver", "HintShip",
           "ValidationObserver", "AsyncObserver", "build_observers"]


def _owned_indexes(table: TableDescriptor,
                   schemes: FrozenSet[IndexScheme]) -> Tuple[str, ...]:
    return tuple(index.name for index in table.indexes.values()
                 if index.scheme in schemes and not index.is_local)


def _task(server: "RegionServer", table: TableDescriptor,
          names: Tuple[str, ...], row: bytes,
          values: Optional[Dict[str, bytes]], ts: int,
          span: Any) -> IndexTask:
    """The index work one mutation owes ``names``, stamped with the DDL
    epoch and the mutation's root span."""
    return IndexTask(table.name, row, values, ts,
                     enqueued_at=server.sim.now(), index_names=names,
                     span_id=getattr(span, "span_id", None),
                     epoch=server.cluster.ddl_epoch)


class SyncFullObserver(RegionObserver):
    SCHEMES = frozenset({IndexScheme.SYNC_FULL})

    def post_mutate(self, server: "RegionServer", table: TableDescriptor,
                    row: bytes, values: Optional[Dict[str, bytes]], ts: int,
                    span: Any = None) -> Generator[Any, Any, None]:
        """Algorithm 1: one PI ship (grouped per target server) beside the
        RB followed by one grouped DI ship."""
        names = _owned_indexes(table, self.SCHEMES)
        if not names:
            return
        task = _task(server, table, names, row, values, ts, span)
        # `fanout` tags how many indexes the PI/DI groups may scatter
        # across (the width of the parallel sync-full fan-out).
        obs = server.tracer.start("sync_index", parent=span, scheme="full",
                                  server=server.name, fanout=len(names))
        try:
            yield from maintain_indexes(server.op_context, [task],
                                        background=False, span=obs)
        except (NoSuchRegionError, RpcError):
            # A stale route from a concurrent split/move counts as a
            # transient failure (§6.2): the task degrades to the AUQ,
            # whose retry loop re-resolves the owner.  Every op carries
            # the row's base timestamps, so re-running deliveries that
            # already landed is idempotent.
            server.degrade_to_auq(task)
        finally:
            obs.end()


class SyncInsertObserver(RegionObserver):
    """SU1+SU2 only.  Deletes contribute nothing: the tombstoned row makes
    existing entries stale, and reads repair them (Algorithm 2).

    Algorithm 2 checks every hit against its base row, so an entry is a
    hint and its PI need not wait for the base log write: the write
    handler ships it beside that write as a :class:`HintShip` (DESIGN.md
    §11.3), and the double-check leaves alone a hit that no newer base
    cell refutes.  Nothing is left for ``post_mutate``."""

    SCHEMES = frozenset({IndexScheme.SYNC_INSERT})


class HintShip:
    """One write call's sync-insert PI, shipped beside its base log write.

    The handler builds it once the row has its ts, right before the log
    write, and joins it after every observer's ``post_mutate``, row lock
    still held.  The ship is :func:`settled`, so a lost RPC or stale route
    comes back as the task owed to the AUQ (§6.2) when the handler joins
    it, never as an unjoined crash."""

    def __init__(self, server: "RegionServer", table: TableDescriptor,
                 row: bytes, values: Optional[Dict[str, bytes]], ts: int,
                 span: Any = None):
        self.server, self.table, self.span = server, table, span
        self.row, self.values, self.ts = row, values, ts
        self.names = _owned_indexes(table, SyncInsertObserver.SCHEMES)
        self.process = self._spawn(self.names)

    def _spawn(self, names: Tuple[str, ...]) -> Optional[Process]:
        """The inserts ``names`` owe, grouped per target server, one RPC +
        one group commit per group."""
        server, table, span = self.server, self.table, self.span
        if not names or self.values is None:
            return None
        task = _task(server, table, names, self.row, self.values, self.ts,
                     span)
        obs = server.tracer.start("sync_index", parent=span, scheme="insert",
                                  server=server.name)
        ctx = server.op_context
        ops = plan_insert_ops(ctx, task)

        def ship() -> Generator[Any, Any, List[IndexTask]]:
            try:
                error = yield from settled(ship_index_ops(
                    ctx, ops, background=False, site="PI", span=obs))
            finally:
                obs.end()
            return [] if error is None else [task]

        return server.sim.spawn(ship(), name="PI")

    def join(self) -> Generator[Any, Any, None]:
        """Wait for the PI and queue a task it lost to the AUQ.  An ALTER
        that moved an index to sync-insert during the base write left it
        out of the ship: its PI ships now, before the ack (the scheme's
        ``post_mutate`` is empty, so nothing else would)."""
        late = tuple(name for name in _owned_indexes(
            self.table, SyncInsertObserver.SCHEMES) if name not in self.names)
        for process in (self.process, self._spawn(late)):
            if process is not None:
                for task in (yield process):
                    self.server.degrade_to_auq(task)

    def settle(self) -> Generator[Any, Any, None]:
        """Wait for the PI on the handler's error path, so no index write
        of the call outlives its row lock."""
        if self.process is not None:
            yield self.process


class ValidationObserver(RegionObserver):
    """Luo & Carey's validation strategy (DESIGN.md §14): ship the index
    insert blindly — no base read, no synchronous wait — and let reads
    filter whatever turns stale.  The put's foreground cost is just the
    (pure) op planning; the actual index RPC rides a spawned background
    process tracked by ``auq_inflight`` so quiesce/drain still cover it.
    Deletes contribute nothing: the tombstoned base row makes existing
    entries fail validation, and the cleaner/compaction collect them."""

    SCHEMES = frozenset({IndexScheme.VALIDATION})

    def _ship_blind(self, server: "RegionServer", task: IndexTask,
                    ops: List[tuple]) -> None:
        """Spawn the fire-and-forget delivery.  ``auq_inflight`` is
        incremented while the put still holds its ``put_inflight`` slot,
        so there is no window where a drain misses the ship."""
        server.auq_inflight.increment()

        def deliver() -> Generator[Any, Any, None]:
            obs = server.tracer.start("blind_index", scheme="validation",
                                      server=server.name)
            try:
                yield from ship_index_ops(server.op_context, ops,
                                          background=True, site="index_pi",
                                          span=obs)
                server.staleness.record(task.visible_at, server.sim.now())
            except (NoSuchRegionError, RpcError):
                # Transient routing failure (§6.2): the AUQ's retry loop
                # re-resolves the owner and converges the index.
                server.degrade_to_auq(task)
            finally:
                obs.end()
                server.auq_inflight.decrement()

        server.sim.spawn(deliver(), name=f"{server.name}:blind-ship")

    def post_mutate(self, server: "RegionServer", table: TableDescriptor,
                    row: bytes, values: Optional[Dict[str, bytes]], ts: int,
                    span: Any = None) -> Generator[Any, Any, None]:
        """One blind ship of a put's inserts, grouped per target server
        inside ``ship_index_ops``."""
        names = _owned_indexes(table, self.SCHEMES)
        if names and values is not None:
            task = _task(server, table, names, row, values, ts, span)
            ops = plan_insert_ops(server.op_context, task)
            if ops:
                self._ship_blind(server, task, ops)
        return
        yield  # pragma: no cover


class AsyncObserver(RegionObserver):
    SCHEMES = frozenset({IndexScheme.ASYNC_SIMPLE, IndexScheme.ASYNC_SESSION})

    def post_mutate(self, server: "RegionServer", table: TableDescriptor,
                    row: bytes, values: Optional[Dict[str, bytes]], ts: int,
                    span: Any = None) -> Generator[Any, Any, None]:
        """AU1: the row's IndexTask enters the AUQ (Algorithm 3); APS
        batching, staleness tracking and crash-replay granularity are per
        row."""
        names = _owned_indexes(table, self.SCHEMES)
        if not names:
            return
        task = _task(server, table, names, row, values, ts, span)
        obs = server.tracer.start("enqueue", parent=span, server=server.name)
        try:
            yield from server.enqueue_index_tasks([task])
        finally:
            obs.end()


def build_observers(table: TableDescriptor) -> Tuple[RegionObserver, ...]:
    """The coprocessors deployed on an index-enabled table (§7): one per
    scheme family actually used by the table's indexes."""
    schemes = {index.scheme for index in table.indexes.values()}
    observers = []
    if IndexScheme.SYNC_FULL in schemes:
        observers.append(SyncFullObserver())
    if IndexScheme.SYNC_INSERT in schemes:
        observers.append(SyncInsertObserver())
    if IndexScheme.VALIDATION in schemes:
        observers.append(ValidationObserver())
    if schemes & AsyncObserver.SCHEMES:
        observers.append(AsyncObserver())
    return tuple(observers)
