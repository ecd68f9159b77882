"""The Diff-Index coprocessors (§7, Figure 6) plus validation.

* :class:`SyncFullObserver` — Algorithm 1 inside the put RPC: insert new
  entry, read the old value at ``t_new − δ``, delete the old entry.  The
  put is acknowledged only when all of it is done (causal consistency).
* :class:`SyncInsertObserver` — Algorithm 1 truncated to SU1+SU2: only
  the insert is synchronous; stale entries are repaired at read time.
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
the APS retries it to eventual success.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Generator, List, Optional, Tuple, \
    TYPE_CHECKING

from repro.errors import NoSuchRegionError, RpcError
from repro.core.auq import (IndexTask, maintain_indexes,
                            maintain_indexes_batch, maintain_insert_only,
                            plan_insert_ops, ship_index_ops)
from repro.core.coprocessor import RegionObserver
from repro.core.schemes import IndexScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import RegionServer
    from repro.cluster.table import TableDescriptor

__all__ = ["SyncFullObserver", "SyncInsertObserver", "ValidationObserver",
           "AsyncObserver", "build_observers"]


def _owned_indexes(table: TableDescriptor,
                   schemes: FrozenSet[IndexScheme]) -> Tuple[str, ...]:
    return tuple(index.name for index in table.indexes.values()
                 if index.scheme in schemes and not index.is_local)


def _span_id(span: Any) -> Any:
    return getattr(span, "span_id", None)


class SyncFullObserver(RegionObserver):
    SCHEMES = frozenset({IndexScheme.SYNC_FULL})

    def _task(self, server: "RegionServer", table: TableDescriptor,
              row: bytes, values, ts: int, span: Any) -> IndexTask:
        return IndexTask(table.name, row, values, ts,
                         enqueued_at=server.sim.now(),
                         index_names=_owned_indexes(table, self.SCHEMES),
                         span_id=_span_id(span),
                         epoch=server.cluster.ddl_epoch)

    def _maintain(self, server: "RegionServer", task: IndexTask,
                  span: Any) -> Generator[Any, Any, None]:
        # `fanout` tags how many indexes this mutation's PI/DI groups may
        # scatter across (the width of the parallel sync-full fan-out).
        obs = server.tracer.start("sync_index", parent=span, scheme="full",
                                  server=server.name,
                                  fanout=len(task.index_names or ()))
        try:
            yield from maintain_indexes(server.op_context, task,
                                        background=False, insert_first=True,
                                        span=obs)
        except (NoSuchRegionError, RpcError):
            # Stale route from a concurrent split/move counts as a
            # transient failure: hand the task to the AUQ, whose retry
            # loop re-resolves the owner.
            server.degrade_to_auq(task)
        finally:
            obs.end()

    def post_put(self, server: "RegionServer", table: TableDescriptor,
                 row: bytes, values: Dict[str, bytes], ts: int,
                 span: Any = None) -> Generator[Any, Any, None]:
        task = self._task(server, table, row, values, ts, span)
        if not task.index_names:
            return
        yield from self._maintain(server, task, span)

    def post_delete(self, server: "RegionServer", table: TableDescriptor,
                    row: bytes, ts: int, span: Any = None,
                    ) -> Generator[Any, Any, None]:
        task = self._task(server, table, row, None, ts, span)
        if not task.index_names:
            return
        yield from self._maintain(server, task, span)

    def post_batch(self, server: "RegionServer", table: TableDescriptor,
                   batch_rows: List[Tuple[str, bytes,
                                          Optional[Dict[str, bytes]], int]],
                   span: Any = None) -> Generator[Any, Any, None]:
        """Coalesced Algorithm 1 for a whole multi_put batch: one PI
        phase (grouped per target region), a barrier, per-row RB, one
        grouped DI phase — §8.2's batching on the foreground path."""
        tasks = [self._task(server, table, row, values, ts, span)
                 for _kind, row, values, ts in batch_rows]
        tasks = [task for task in tasks if task.index_names]
        if not tasks:
            return
        obs = server.tracer.start("sync_index_batch", parent=span,
                                  scheme="full", server=server.name,
                                  rows=len(tasks))
        try:
            yield from maintain_indexes_batch(server.op_context, tasks,
                                              span=obs)
        except (NoSuchRegionError, RpcError):
            # Degrade the WHOLE batch to the AUQ (§6.2): every op carries
            # its row's base timestamps, so re-running deliveries that
            # already landed is idempotent — the APS converges the rest.
            for task in tasks:
                server.degrade_to_auq(task)
        finally:
            obs.end()


class SyncInsertObserver(RegionObserver):
    SCHEMES = frozenset({IndexScheme.SYNC_INSERT})

    def post_put(self, server: "RegionServer", table: TableDescriptor,
                 row: bytes, values: Dict[str, bytes], ts: int,
                 span: Any = None) -> Generator[Any, Any, None]:
        task = IndexTask(table.name, row, values, ts,
                         enqueued_at=server.sim.now(),
                         index_names=_owned_indexes(table, self.SCHEMES),
                         span_id=_span_id(span),
                         epoch=server.cluster.ddl_epoch)
        if not task.index_names:
            return
        obs = server.tracer.start("sync_index", parent=span, scheme="insert",
                                  server=server.name)
        try:
            yield from maintain_insert_only(server.op_context, task, span=obs)
        except (NoSuchRegionError, RpcError):
            server.degrade_to_auq(task)
        finally:
            obs.end()

    def post_delete(self, server: "RegionServer", table: TableDescriptor,
                    row: bytes, ts: int, span: Any = None,
                    ) -> Generator[Any, Any, None]:
        # Nothing to insert; the tombstoned row makes existing entries
        # stale, and reads repair them (Algorithm 2).
        return
        yield  # pragma: no cover

    def post_batch(self, server: "RegionServer", table: TableDescriptor,
                   batch_rows: List[Tuple[str, bytes,
                                          Optional[Dict[str, bytes]], int]],
                   span: Any = None) -> Generator[Any, Any, None]:
        """Coalesced SU1+SU2: the batch's inserts grouped per target
        index region, one RPC + one group commit per group.  Deletes
        contribute nothing (read-repair owns their stale entries)."""
        names = _owned_indexes(table, self.SCHEMES)
        if not names:
            return
        tasks = [IndexTask(table.name, row, values, ts,
                           enqueued_at=server.sim.now(), index_names=names,
                           span_id=_span_id(span),
                           epoch=server.cluster.ddl_epoch)
                 for _kind, row, values, ts in batch_rows
                 if values is not None]
        if not tasks:
            return
        ctx = server.op_context
        ops = []
        for task in tasks:
            ops.extend(plan_insert_ops(ctx, task))
        if not ops:
            return
        obs = server.tracer.start("sync_index_batch", parent=span,
                                  scheme="insert", server=server.name,
                                  rows=len(tasks))
        try:
            yield from ship_index_ops(ctx, ops, background=False,
                                      site="index_pi", span=obs)
        except (NoSuchRegionError, RpcError):
            for task in tasks:
                server.degrade_to_auq(task)
        finally:
            obs.end()


class ValidationObserver(RegionObserver):
    """Luo & Carey's validation strategy (DESIGN.md §14): ship the index
    insert blindly — no base read, no synchronous wait — and let reads
    filter whatever turns stale.  The put's foreground cost is just the
    (pure) op planning; the actual index RPC rides a spawned background
    process tracked by ``auq_inflight`` so quiesce/drain still cover it.
    Deletes contribute nothing: the tombstoned base row makes existing
    entries fail validation, and the cleaner/compaction collect them."""

    SCHEMES = frozenset({IndexScheme.VALIDATION})

    def _ship_blind(self, server: "RegionServer", tasks: List[IndexTask],
                    ops: List[tuple]) -> None:
        """Spawn the fire-and-forget delivery.  ``auq_inflight`` is
        incremented while the put still holds its ``put_inflight`` slot,
        so there is no window where a drain misses the ship."""
        server.auq_inflight.increment()

        def deliver() -> Generator[Any, Any, None]:
            obs = server.tracer.start("blind_index", scheme="validation",
                                      server=server.name, rows=len(tasks))
            try:
                yield from ship_index_ops(server.op_context, ops,
                                          background=True, site="index_pi",
                                          span=obs)
                now = server.sim.now()
                for task in tasks:
                    server.staleness.record(task.visible_at, now)
            except (NoSuchRegionError, RpcError):
                # Transient routing failure (§6.2): the AUQ's retry loop
                # re-resolves the owner and converges the index.
                for task in tasks:
                    server.degrade_to_auq(task)
            finally:
                obs.end()
                server.auq_inflight.decrement()

        server.sim.spawn(deliver(), name=f"{server.name}:blind-ship")

    def post_put(self, server: "RegionServer", table: TableDescriptor,
                 row: bytes, values: Dict[str, bytes], ts: int,
                 span: Any = None) -> Generator[Any, Any, None]:
        task = IndexTask(table.name, row, values, ts,
                         enqueued_at=server.sim.now(),
                         index_names=_owned_indexes(table, self.SCHEMES),
                         span_id=_span_id(span),
                         epoch=server.cluster.ddl_epoch)
        if not task.index_names:
            return
        ops = plan_insert_ops(server.op_context, task)
        if ops:
            self._ship_blind(server, [task], ops)
        return
        yield  # pragma: no cover

    def post_delete(self, server: "RegionServer", table: TableDescriptor,
                    row: bytes, ts: int, span: Any = None,
                    ) -> Generator[Any, Any, None]:
        # Nothing to insert; stale entries fail validation at read time
        # and are collected by the cleaner or the compaction purge.
        return
        yield  # pragma: no cover

    def post_batch(self, server: "RegionServer", table: TableDescriptor,
                   batch_rows: List[Tuple[str, bytes,
                                          Optional[Dict[str, bytes]], int]],
                   span: Any = None) -> Generator[Any, Any, None]:
        """One blind ship for the whole batch's inserts, grouped per
        target index region inside ``ship_index_ops``."""
        names = _owned_indexes(table, self.SCHEMES)
        if not names:
            return
        tasks = [IndexTask(table.name, row, values, ts,
                           enqueued_at=server.sim.now(), index_names=names,
                           span_id=_span_id(span),
                           epoch=server.cluster.ddl_epoch)
                 for _kind, row, values, ts in batch_rows
                 if values is not None]
        if not tasks:
            return
        ctx = server.op_context
        ops = []
        for task in tasks:
            ops.extend(plan_insert_ops(ctx, task))
        if ops:
            self._ship_blind(server, tasks, ops)
        return
        yield  # pragma: no cover


class AsyncObserver(RegionObserver):
    SCHEMES = frozenset({IndexScheme.ASYNC_SIMPLE, IndexScheme.ASYNC_SESSION})

    def _enqueue(self, server: "RegionServer", task: IndexTask,
                 span: Any) -> Generator[Any, Any, None]:
        obs = server.tracer.start("enqueue", parent=span, server=server.name)
        try:
            yield from server.enqueue_index_task(task)
        finally:
            obs.end()

    def post_put(self, server: "RegionServer", table: TableDescriptor,
                 row: bytes, values: Dict[str, bytes], ts: int,
                 span: Any = None) -> Generator[Any, Any, None]:
        names = _owned_indexes(table, self.SCHEMES)
        if not names:
            return
        yield from self._enqueue(server, IndexTask(
            table.name, row, values, ts, enqueued_at=server.sim.now(),
            index_names=names, span_id=_span_id(span),
            epoch=server.cluster.ddl_epoch), span)

    def post_delete(self, server: "RegionServer", table: TableDescriptor,
                    row: bytes, ts: int, span: Any = None,
                    ) -> Generator[Any, Any, None]:
        names = _owned_indexes(table, self.SCHEMES)
        if not names:
            return
        yield from self._enqueue(server, IndexTask(
            table.name, row, None, ts, enqueued_at=server.sim.now(),
            index_names=names, span_id=_span_id(span),
            epoch=server.cluster.ddl_epoch), span)

    def post_batch(self, server: "RegionServer", table: TableDescriptor,
                   batch_rows: List[Tuple[str, bytes,
                                          Optional[Dict[str, bytes]], int]],
                   span: Any = None) -> Generator[Any, Any, None]:
        """Coalesced AU1: the whole batch enters the AUQ under one
        enqueue charge and one watermark check (Algorithm 3, amortised).
        Every row still becomes its own IndexTask — APS batching,
        staleness tracking, and crash-replay granularity are unchanged."""
        names = _owned_indexes(table, self.SCHEMES)
        if not names:
            return
        now = server.sim.now()
        tasks = [IndexTask(table.name, row, values, ts, enqueued_at=now,
                           index_names=names, span_id=_span_id(span),
                           epoch=server.cluster.ddl_epoch)
                 for _kind, row, values, ts in batch_rows]
        obs = server.tracer.start("enqueue_batch", parent=span,
                                  server=server.name, rows=len(tasks))
        try:
            yield from server.enqueue_index_tasks(tasks)
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
