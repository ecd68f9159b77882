"""Asynchronous Update Queue (AUQ) and Asynchronous Processing Service (APS).

The async schemes acknowledge a put as soon as the base write is logged
and an :class:`IndexTask` is queued (Algorithm 3); APS workers drain the
queue in the background and run the index maintenance steps (Algorithm 4:
RB at ``t_new − δ``, delete old entry, insert new entry).  The AUQ also
receives *failed* synchronous index operations — the paper's §6.2
durability degradation: a sync-full put whose index RPC fails is not
rolled back, its maintenance is retried here until it succeeds.

The shared maintenance routine :func:`maintain_indexes` is used by both
the synchronous observers and the APS so the two paths cannot drift.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple, TYPE_CHECKING

from repro.errors import NoSuchRegionError, RpcError
from repro.core.index import extract_index_values, row_index_key
from repro.core.schemes import IndexScheme
from repro.lsm.types import DELTA_MS
from repro.sim.kernel import Timeout
from repro.sim.scatter import scatter_gather

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.coprocessor import IndexOpContext

__all__ = ["IndexTask", "maintain_indexes", "maintain_indexes_batch",
           "aps_worker", "live_index_ops", "plan_insert_ops",
           "plan_delete_ops", "ship_index_ops",
           "APS_RETRY_BACKOFF_MS", "APS_RETRY_BACKOFF_CAP_MS"]

APS_RETRY_BACKOFF_MS = 5.0
APS_RETRY_BACKOFF_CAP_MS = 80.0


class IndexTask:
    """One base mutation awaiting (re-)execution of its index maintenance.

    ``new_values is None`` encodes a row delete: in LSM "deletion can be
    treated as a put with a null value and a timestamp" (§4.3), so the
    task only removes old entries.

    A ``__slots__`` class (not a dataclass): one of these is allocated per
    indexed mutation, which makes it one of the hottest small objects in
    the wall-clock profile.
    """

    __slots__ = ("table", "row", "new_values", "ts", "enqueued_at",
                 "index_names", "span_id", "epoch")

    def __init__(self, table: str, row: bytes,
                 new_values: Optional[Dict[str, bytes]], ts: int,
                 enqueued_at: float = 0.0,
                 index_names: Optional[Tuple[str, ...]] = None,
                 span_id: Optional[int] = None,
                 epoch: Optional[int] = None):
        self.table = table
        self.row = row
        self.new_values = new_values
        self.ts = ts                 # the base entry's timestamp (paper's T1)
        self.enqueued_at = enqueued_at
        # Restrict maintenance to these indexes (schemes are chosen per
        # index, §3.4, so one put may fan out into one task per scheme
        # group).  None means every index of the table — used by
        # crash-replay re-delivery.
        self.index_names = index_names
        # Tracing: id of the originating put's root span, so the APS apply
        # span links back to the mutation it serves (enqueue → apply path).
        self.span_id = span_id
        # DDL epoch at enqueue time.  A task must never maintain an index
        # created *after* it was enqueued: a same-named index recreated
        # after a drop would otherwise be resurrected with pre-drop images
        # that nothing ever deletes.  None (WAL crash-replay) means
        # "unfiltered", which is safe — replayed records predate no index
        # they name, and superseded images are masked by the later
        # mutations' own tombstones.
        self.epoch = epoch

    @property
    def visible_at(self) -> float:
        """Staleness T1.  ``ts`` alone runs ahead of the clock after a bulk
        load (``max(now, last + 1)`` per row); ``enqueued_at`` alone is
        refreshed by recovery, losing a replayed task's original T1."""
        return min(self.ts, self.enqueued_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IndexTask({self.table!r}, {self.row!r}, ts={self.ts}, "
                f"indexes={self.index_names})")


def _skip_for_epoch(task: IndexTask, index: Any) -> bool:
    """True when the index was created after this task was enqueued (it
    belongs to a newer DDL epoch and this mutation must not touch it)."""
    return (task.epoch is not None
            and getattr(index, "created_epoch", 0) > task.epoch)


def _touched_indexes(descriptor: Any, task: IndexTask) -> list:
    """The global indexes this task must maintain: owned by the task's
    scheme group, alive at the task's epoch, and (for a put) covering at
    least one written column.  A row delete touches every owned index."""
    touched = []
    for index in descriptor.indexes.values():
        if index.is_local:
            continue  # local indexes are maintained inside the put record
        if task.index_names is not None and index.name not in task.index_names:
            continue
        if _skip_for_epoch(task, index):
            continue
        if task.new_values is None or any(col in task.new_values
                                          for col in index.columns):
            touched.append(index)
    return touched


def _fan_out(ctx: "IndexOpContext", thunks: list, site: str,
             ) -> Generator[Any, Any, None]:
    """Run one statement group (all PIs, or all DIs) in parallel.

    The group members target *distinct* index tables (one op per index),
    so they commute; the group boundary is a barrier, which is what keeps
    the per-index SU2→SU3→SU4 (or BA2→BA3→BA4) statement order intact.
    A single op skips the scatter machinery entirely.
    """
    if not thunks:
        return
    if len(thunks) == 1:
        yield from thunks[0]()
        return
    server = ctx.server
    yield scatter_gather(server.sim, thunks,
                         max_fanout=server.config.scatter_max_fanout,
                         name=site, metrics=server.cluster.metrics, site=site)


def maintain_indexes(ctx: "IndexOpContext", task: IndexTask,
                     background: bool, insert_first: bool,
                     span: Any = None) -> Generator[Any, Any, None]:
    """Run PI / RB / DI for every index the mutation touches.

    ``insert_first`` selects the statement order: the synchronous path
    follows Algorithm 1 (SU2 insert, SU3 read, SU4 delete); the APS
    follows Algorithm 4 (BA2 read, BA3 delete, BA4 insert).  Both orders
    converge because entries carry base timestamps.

    Ops within one statement group fan out to their (distinct) index
    regions in parallel; no timestamp is assigned inside the group (every
    entry carries the base ts fixed at SU1), so parallel landing order
    cannot perturb the δ arithmetic of §4.3.

    Raises :class:`RpcError` if any step ultimately fails — the caller
    decides whether to queue a retry (sync path) or back off (APS).
    """
    touched = _touched_indexes(ctx.table_descriptor(task.table), task)
    if not touched:
        return

    inserts = []
    if task.new_values is not None:
        for index in touched:
            new_tuple = extract_index_values(index, task.new_values)
            if new_tuple is not None:
                inserts.append(
                    (index, row_index_key(index, new_tuple, task.row)))

    insert_thunks = [
        (lambda index=index, key=key:
         ctx.index_put(index.table_name, key, task.ts,
                       background=background, span=span))
        for index, key in inserts]

    if insert_first:
        yield from _fan_out(ctx, insert_thunks, "index_pi")          # SU2

    # One base read covers every index (Table 2: sync-full pays 1 Base Read).
    columns = sorted({col for index in touched for col in index.columns})
    old_row = yield from ctx.base_read(                              # SU3/BA2
        task.table, task.row, columns, max_ts=task.ts - DELTA_MS,
        background=background, span=span)
    old_values = {col: value for col, (value, _ts) in old_row.items()}

    delete_thunks = []                                               # SU4/BA3
    for index in touched:
        old_tuple = extract_index_values(index, old_values)
        if old_tuple is None:
            continue
        old_key = row_index_key(index, old_tuple, task.row)
        delete_thunks.append(
            lambda index=index, old_key=old_key:
            ctx.index_delete(index.table_name, old_key,
                             task.ts - DELTA_MS,
                             background=background, span=span))
    yield from _fan_out(ctx, delete_thunks, "index_di")

    if not insert_first:
        yield from _fan_out(ctx, insert_thunks, "index_pi")          # BA4


def maintain_insert_only(ctx: "IndexOpContext", task: IndexTask,
                         span: Any = None) -> Generator[Any, Any, None]:
    """The sync-insert update path: SU1+SU2 only, skipping SU3/SU4 (§4.2).

    Stale entries are left behind on purpose; the read path repairs them
    (Algorithm 2 in :mod:`repro.core.reader`).
    """
    if task.new_values is None:
        return  # a delete inserts nothing; stale entries wait for read-repair
    descriptor = ctx.table_descriptor(task.table)
    for index in descriptor.indexes.values():
        if index.is_local:
            continue  # local indexes are maintained inside the put record
        if task.index_names is not None and index.name not in task.index_names:
            continue
        if _skip_for_epoch(task, index):
            continue
        if not any(col in task.new_values for col in index.columns):
            continue
        new_tuple = extract_index_values(index, task.new_values)
        if new_tuple is None:
            continue
        key = row_index_key(index, new_tuple, task.row)
        yield from ctx.index_put(index.table_name, key, task.ts,
                                 background=False, span=span)


def plan_insert_ops(ctx: "IndexOpContext", task: IndexTask) -> list:
    """SU2/BA4 for one task as a 5-tuple op list — pure computation, no
    I/O: every insert carries the base ts fixed at SU1 plus the target
    index's ``created_epoch`` for drop/recreate protection."""
    if task.new_values is None:
        return []  # a delete inserts nothing
    ops = []
    for index in _touched_indexes(ctx.table_descriptor(task.table), task):
        new_tuple = extract_index_values(index, task.new_values)
        if new_tuple is not None:
            ops.append(("put", index.table_name,
                        row_index_key(index, new_tuple, task.row),
                        task.ts,
                        getattr(index, "created_epoch", 0)))
    return ops


def plan_delete_ops(ctx: "IndexOpContext", task: IndexTask,
                    background: bool,
                    span: Any = None) -> Generator[Any, Any, list]:
    """SU3/BA2+BA3-plan for one task: ONE versioned base read at
    ``ts − δ`` covering every touched index, then the DI op list (each
    delete tombstones at ``ts − δ``, the §4.3 arithmetic)."""
    touched = _touched_indexes(ctx.table_descriptor(task.table), task)
    if not touched:
        return []
    columns = sorted({col for index in touched for col in index.columns})
    old_row = yield from ctx.base_read(
        task.table, task.row, columns, max_ts=task.ts - DELTA_MS,
        background=background, span=span)
    old_values = {col: value for col, (value, _ts) in old_row.items()}
    ops = []
    for index in touched:
        old_tuple = extract_index_values(index, old_values)
        if old_tuple is not None:
            ops.append(("del", index.table_name,
                        row_index_key(index, old_tuple, task.row),
                        task.ts - DELTA_MS,
                        getattr(index, "created_epoch", 0)))
    return ops


def plan_index_ops(ctx: "IndexOpContext", task: IndexTask,
                   span: Any = None) -> Generator[Any, Any, list]:
    """BA2 for one task: read the old row, return the DI/PI op list as
    ``("del"|"put", index_table, key, ts, epoch)`` tuples (deletes first —
    Algorithm 4's BA3 before BA4).  The trailing ``epoch`` is the target
    index's ``created_epoch`` at planning time, so delivery can drop ops
    whose index was dropped (or dropped and recreated) in the meantime."""
    dels = yield from plan_delete_ops(ctx, task, background=True, span=span)
    return dels + plan_insert_ops(ctx, task)


def ship_index_ops(ctx: "IndexOpContext", ops: list, background: bool,
                   site: str, span: Any = None) -> Generator[Any, Any, None]:
    """Deliver ONE statement group's ops as per-target batched RPCs.

    Ops bound for the same region server travel in one
    ``handle_index_ops`` call and share one group-committed WAL write;
    distinct targets fan out in parallel.  The call returns only when
    every delivery landed — it is the statement-group barrier of the
    batched foreground path (all PIs before any DI leaves).

    Raises on a stale route (``NoSuchRegionError``) or lost RPC; the
    caller owns the retry/degrade policy.
    """
    ops = live_index_ops(ctx.server.cluster, ops)
    if not ops:
        return
    groups: Dict[Any, list] = {}
    for op in ops:
        target, _region = ctx.server.cluster.locate(op[1], op[2])
        groups.setdefault(target, []).append(op)
    obs = ctx._span(site, span)
    try:
        thunks = [(lambda t=target, group=group:
                   ctx.index_ops_batch(t, group, background=background))
                  for target, group in groups.items()]
        yield from _fan_out(ctx, thunks, site)
    finally:
        obs.end()


def maintain_indexes_batch(ctx: "IndexOpContext", tasks: list,
                           span: Any = None) -> Generator[Any, Any, None]:
    """§8.2's batching applied to the FOREGROUND sync-full path: run
    Algorithm 1 for a whole multi_put batch as three phases —

    1. SU2: PI ops for EVERY row, grouped per target index region, one
       RPC + one group commit per group;
    2. SU3: one versioned base read per row at its own ``ts − δ``;
    3. SU4: DI ops grouped and shipped the same way.

    The phase boundary is a barrier, so the PI-before-DI statement-group
    order holds for every row at once; each row keeps the timestamps
    fixed at its SU1, so coalescing cannot perturb the δ arithmetic or
    the per-row staleness semantics.
    """
    insert_ops = []
    for task in tasks:
        insert_ops.extend(plan_insert_ops(ctx, task))
    yield from ship_index_ops(ctx, insert_ops, background=False,    # SU2
                              site="index_pi", span=span)
    delete_ops = []
    for task in tasks:                                              # SU3
        dels = yield from plan_delete_ops(ctx, task, background=False,
                                          span=span)
        delete_ops.extend(dels)
    yield from ship_index_ops(ctx, delete_ops, background=False,    # SU4
                              site="index_di", span=span)


def live_index_ops(cluster: Any, ops: list) -> list:
    """Drop ops whose target index no longer exists at its planning epoch.

    Re-checked on every delivery attempt (not just once): a drop can land
    between planning and delivery, or between delivery retries.  Without
    this, an in-flight op for a dropped index either spins forever
    (table gone → locate fails → infinite APS retry) or — worse — lands
    in a same-named recreated index and resurrects a pre-drop image."""
    by_table = getattr(cluster, "index_by_table", None)
    if by_table is None:
        return ops
    kept = []
    for op in ops:
        if len(op) > 4:
            live = by_table.get(op[1])
            if live is None or getattr(live, "created_epoch", 0) != op[4]:
                continue
        kept.append(op)
    return kept


def aps_worker(server: Any, worker_id: int) -> Generator[Any, Any, None]:
    """One APS thread: dequeue a burst, plan each task's ops, deliver them
    in per-target batches, repeat.

    * Batching — "this moderate higher throughput is credited to the
      batching of operations in AUQ" (§8.2): ops bound for the same
      region server travel in one RPC and share one group-committed WAL
      append, instead of one round trip + one log write each.
    * Retrying inside the worker (rather than re-enqueueing) keeps the
      task inside the in-flight latch, so the drain-before-flush barrier
      cannot complete while any index update is still owed — preserving
      the paper's ``PR(Flushed) = ∅`` invariant.
    """
    ctx = server.op_context
    while server.alive:
        task: Optional[IndexTask] = yield server.auq.get()
        server.obs_auq_depth.set(len(server.auq))
        if task is None or not server.alive:   # woken during shutdown
            return
        # Count the task as in-flight from the moment it leaves the queue
        # so backlog accounting (and the drain barrier) never lose sight
        # of it, even while the worker is paused at the operator gate.
        server.auq_inflight.increment()
        batch = [task]
        try:
            yield server.aps_gate.wait_open()  # operator pause toggle
            if not server.alive:
                return
            while (len(batch) < server.config.aps_batch_size
                   and len(server.auq) > 0):
                extra = server.auq.get_nowait()
                if extra is None:
                    break
                batch.append(extra)
                server.auq_inflight.increment()
            server.obs_auq_depth.set(len(server.auq))
            yield from _process_batch(server, ctx, batch)
        finally:
            for _ in batch:
                server.auq_inflight.decrement()


def _process_batch(server: Any, ctx: "IndexOpContext",
                   batch: list) -> Generator[Any, Any, None]:
    # One "aps_apply" span per task, parented to the originating put's
    # root span: the async half of the mutation's trace tree.
    tracer = server.cluster.tracer
    all_ops = []
    spans = []
    for task in batch:
        span = tracer.start("aps_apply", parent=task.span_id,
                            server=server.name, table=task.table)
        spans.append(span)
        ops = yield from plan_index_ops(ctx, task, span=span)
        all_ops.extend(ops)

    # Deliver only ops whose index is still alive at its planning epoch
    # (a drop may have raced the planning read above).
    all_ops = live_index_ops(server.cluster, all_ops)

    # Group by target server, preserving op order within a group.
    groups: Dict[Any, list] = {}
    for op in all_ops:
        _kind, table, key = op[0], op[1], op[2]
        try:
            target, _region = server.cluster.locate(table, key)
        except Exception:  # noqa: BLE001 - mid-recovery; retry below
            target = None
        groups.setdefault(target, []).append(op)

    for target, ops in groups.items():
        backoff = APS_RETRY_BACKOFF_MS
        while True:
            try:
                yield from ctx.index_ops_batch(target, ops)
                break
            except (NoSuchRegionError, RpcError):
                # NoSuchRegionError surfaces raw from a live server whose
                # region moved or split away mid-delivery (stale route);
                # the re-locate below picks up the new owner.
                server.aps_retries += 1
                server.obs_aps_retries.inc()
                yield Timeout(backoff)
                backoff = min(backoff * 2, APS_RETRY_BACKOFF_CAP_MS)
                if not server.alive:
                    return
                # A concurrent drop_index turns retries into a busy loop
                # (the table is gone, the RPC can never succeed) — filter
                # again before the next attempt.
                ops = live_index_ops(server.cluster, ops)
                if not ops:
                    break
                # Routing may have changed (recovery); re-resolve.
                try:
                    target, _region = server.cluster.locate(ops[0][1],
                                                            ops[0][2])
                except Exception:  # noqa: BLE001
                    target = None
    now = server.sim.now()
    for task, span in zip(batch, spans):
        server.staleness.record(task.visible_at, now)
        # Live Figure 11: the lag between the base entry's visibility (T1)
        # and the moment its index maintenance landed (T2, now) — same
        # definition the StalenessTracker records, so the two
        # instrumentations can be cross-checked exactly.
        lag = max(0.0, now - task.visible_at)
        server.obs_auq_lag.observe(lag)
        server.obs_auq_lag_last.set(lag)
        span.end()
