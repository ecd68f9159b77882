"""Asynchronous Update Queue (AUQ) and Asynchronous Processing Service (APS).

The async schemes acknowledge a put as soon as the base write is logged
and an :class:`IndexTask` is queued (Algorithm 3); APS workers drain the
queue in the background and run the index maintenance steps (Algorithm 4:
RB at ``t_new − δ``, delete old entry, insert new entry).  The AUQ also
receives *failed* synchronous index operations — the paper's §6.2
durability degradation: a sync-full put whose index RPC fails is not
rolled back, its maintenance is retried here until it succeeds.

Every path plans with the same :func:`plan_insert_ops` /
:func:`plan_delete_ops` and lands through ``handle_index_ops``:
:func:`maintain_indexes` (sync-full, and the AUQ's degraded apply, both
shipping PI beside RB→DI), sync-insert's PI beside the base log write
and the validation blind ship via :func:`ship_index_ops`, the APS via
its own per-target retry loop — so the paths cannot drift.  A ship that
runs beside other work is wrapped in :func:`settled`, which hands its
RPC error back to whoever joins it.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple, TYPE_CHECKING

from repro.errors import NoSuchRegionError, NoSuchTableError, RpcError
from repro.core.index import extract_index_values, row_index_key
from repro.lsm.types import DELTA_MS
from repro.sim.kernel import Timeout, all_of
from repro.sim.scatter import scatter_gather

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.coprocessor import IndexOpContext

__all__ = ["IndexTask", "maintain_indexes", "aps_worker", "live_index_ops",
           "plan_insert_ops", "plan_delete_ops", "ship_index_ops", "settled",
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
    return task.epoch is not None and index.created_epoch > task.epoch


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


def maintain_indexes(ctx: "IndexOpContext", tasks: list, background: bool,
                     span: Any = None) -> Generator[Any, Any, None]:
    """Run PI / RB / DI for every index the tasks' mutations touch, as two
    overlapping branches over the whole list, each shipped by
    :func:`ship_index_ops` — one RPC and one group commit per target
    server:

    * PI: every task's insert ops (SU2);
    * RB→DI: one versioned base read per task at its own ``ts − δ``
      (SU3), then the DI ops (SU4).

    The call waits for max(PI, RB + DI), not their sum.  Landing order
    cannot change the final state: every entry carries the base ts fixed
    at SU1, and a DI at ``t − δ`` masks only versions older than the PI
    at ``t``.  A task's DI skips any key the same task re-inserts (a
    same-value rewrite), the one case where a DI landing first would
    hide a live row.  The skip is per task: a later task in the batch
    must still delete an earlier task's entry for the same row.

    Raises on a stale route (``NoSuchRegionError``) or a lost RPC — the
    caller decides whether to queue a retry — once both branches have
    settled, so no index write of the call outlives it.
    """
    inserts = [plan_insert_ops(ctx, task) for task in tasks]
    pi = ctx.server.sim.spawn(settled(ship_index_ops(               # SU2
        ctx, [op for ops in inserts for op in ops], background, site="PI",
        span=span)), name="PI")
    try:
        deletes = []
        for task, task_inserts in zip(tasks, inserts):               # SU3
            planned = yield from plan_delete_ops(ctx, task, background,
                                                 span=span)
            reinserted = {op[1:3] for op in task_inserts}   # (table, key)
            deletes += [op for op in planned if op[1:3] not in reinserted]
        yield from ship_index_ops(ctx, deletes, background, site="DI",  # SU4
                                  span=span)
    except Exception:
        yield pi
        raise
    error = yield pi
    if error is not None:
        raise error


def settled(branch: Generator[Any, Any, None]) -> Generator[Any, Any, Any]:
    """Run ``branch`` and return its RPC or routing error instead of
    raising it, so the spawner collects the failure when it joins."""
    try:
        yield from branch
    except (NoSuchRegionError, RpcError) as error:
        return error
    return None


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
                        index.created_epoch))
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
                        index.created_epoch))
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
    """Deliver ONE statement group's ops (all PIs, or all DIs) as
    per-target batched RPCs, under one span named ``site``.

    Ops bound for the same region server travel in one
    ``handle_index_ops`` call and share one group-committed WAL write;
    distinct targets fan out in parallel (a single target skips the
    scatter machinery).  The call returns only when every delivery
    landed.

    Raises on a stale route (``NoSuchRegionError``) or lost RPC; the
    caller owns the retry/degrade policy.
    """
    ops = live_index_ops(ctx.server.cluster, ops)
    if not ops:
        return
    server = ctx.server
    groups: Dict[Any, list] = {}
    for op in ops:
        target, _region = server.cluster.locate(op[1], op[2])
        groups.setdefault(target, []).append(op)
    obs = ctx._span(site, span)
    try:
        if len(groups) == 1:
            [(target, group)] = groups.items()
            yield from ctx.index_ops_batch(target, group, background)
            return
        yield scatter_gather(
            server.sim,
            [(lambda t=target, group=group:
              ctx.index_ops_batch(t, group, background))
             for target, group in groups.items()],
            max_fanout=server.config.scatter_max_fanout,
            name=site, metrics=server.cluster.metrics, site=site)
    finally:
        obs.end()


def live_index_ops(cluster: Any, ops: list) -> list:
    """Drop ops whose target index no longer exists at its planning epoch.

    Re-checked on every delivery attempt (not just once): a drop can land
    between planning and delivery, or between delivery retries.  Without
    this, an in-flight op for a dropped index either spins forever
    (table gone → locate fails → infinite APS retry) or — worse — lands
    in a same-named recreated index and resurrects a pre-drop image."""
    by_table = cluster.index_by_table
    return [op for op in ops
            if len(op) < 5 or ((live := by_table.get(op[1])) is not None
                               and live.created_epoch == op[4])]


def aps_worker(server: Any, worker_id: int) -> Generator[Any, Any, None]:
    """One APS thread: dequeue a burst, plan each task's ops, deliver them
    in per-target batches, repeat.

    * Batching — "this moderate higher throughput is credited to the
      batching of operations in AUQ" (§8.2): ops bound for one region
      server travel in one RPC and share one log sync; the RPCs to
      distinct servers go out in parallel, as a client multiget's do.
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
        except (NoSuchTableError, NoSuchRegionError):  # mid-recovery; retry
            target = None
        groups.setdefault(target, []).append(op)

    def deliver(target, ops):
        backoff = APS_RETRY_BACKOFF_MS
        while True:
            try:
                yield from ctx.index_ops_batch(target, ops)
                return True
            except (NoSuchRegionError, RpcError):
                # NoSuchRegionError surfaces raw from a live server whose
                # region moved or split away mid-delivery (stale route);
                # the re-locate below picks up the new owner.
                server.aps_retries += 1
                server.obs_aps_retries.inc()
                yield Timeout(backoff)
                backoff = min(backoff * 2, APS_RETRY_BACKOFF_CAP_MS)
                if not server.alive:
                    return False
                # A concurrent drop_index turns retries into a busy loop
                # (the table is gone, the RPC can never succeed) — filter
                # again before the next attempt.
                ops = live_index_ops(server.cluster, ops)
                if not ops:
                    return True
                # Routing may have changed (recovery); re-resolve.
                try:
                    target, _region = server.cluster.locate(ops[0][1],
                                                            ops[0][2])
                except (NoSuchTableError, NoSuchRegionError):
                    target = None

    # Targets are delivered in parallel, each retrying on its own.
    delivered = yield all_of(server.sim, [
        server.sim.spawn(deliver(t, o)) for t, o in groups.items()])
    if not all(delivered):
        return
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
