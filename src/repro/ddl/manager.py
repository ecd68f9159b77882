"""The DDL job manager: runs index lifecycle jobs as sim-time coroutines.

One manager per cluster (the master-side "utility" of §7, made
resumable).  Jobs issue ordinary RPCs — snapshot-bounded chunked scans
of the base regions via :func:`scatter_gather`, batched
``handle_index_ops`` deliveries — so a build competes for the same
handler slots, log devices and disks as foreground traffic, which is
exactly the "DDL under live traffic" cost the instantaneous legacy path
could not show.

Crash safety comes from three pieces working together:

* every chunk round and phase transition checkpoints the job to the
  durable catalog (per-region cursors keyed by region *name*, which
  recovery preserves when it reassigns regions);
* a chunk that dies with its server simply fails its round — the next
  round re-reads the master layout and re-scans from the persisted
  cursor;
* repeating work is harmless because entries carry base timestamps: a
  re-written backfill entry is either identical to what landed before
  or already masked by a newer foreground tombstone (§4.3's timestamp
  discipline, which also makes backfill/dual-write overlap safe in
  either landing order).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import (NoSuchIndexError, NoSuchRegionError,
                          NoSuchTableError, RpcError, StorageError)
from repro.core.auq import live_index_ops
from repro.core.encoding import decode_index_key
from repro.core.index import (DEAD, IndexDescriptor, IndexState,
                              entry_verdict, row_index_entry)
from repro.core.schemes import IndexScheme
from repro.lsm.types import Cell, KeyRange
from repro.cluster.region import compose_cell_key, split_cell_key
from repro.ddl.catalog import JobCatalog
from repro.ddl.jobs import (DdlJob, JobKind, JobPhase, PHASE_ORDINAL)
from repro.sim.kernel import Timeout, all_of
from repro.sim.scatter import scatter_gather

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import MiniCluster
    from repro.cluster.master import RegionInfo

__all__ = ["DdlConfig", "DdlManager"]


@dataclasses.dataclass
class DdlConfig:
    # Cells per chunk scan.  Small enough that a chunk is a bounded slice
    # of a handler's time; large enough that the per-chunk RPC overhead
    # amortises (rows ≈ cells / columns-per-row).
    chunk_cells: int = 256
    # Pause between chunk rounds: the throttle that trades build speed
    # for foreground impact.
    chunk_pause_ms: float = 5.0
    # Backoff when a round loses a server mid-scan (recovery is running).
    retry_backoff_ms: float = 50.0
    retry_backoff_cap_ms: float = 400.0
    # CATCH_UP: wait for the AUQs to drain, bounded (an async workload
    # that never idles would otherwise pin the job in CATCH_UP forever;
    # correctness does not require the drain — VERIFY and timestamped
    # deliveries do — it only makes the flip-to-ACTIVE scan cheaper).
    catchup_step_ms: float = 10.0
    max_catchup_ms: float = 5_000.0
    # VERIFY: sampled rows per base region whose entries are re-checked.
    verify_rows_per_region: int = 32
    # Concurrent per-region chunk scans within one round.
    max_fanout: int = 8


class DdlManager:
    def __init__(self, cluster: "MiniCluster",
                 config: Optional[DdlConfig] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config or DdlConfig()
        self.catalog = JobCatalog(cluster.hdfs)
        self.jobs: Dict[str, DdlJob] = {}
        self._seq = 0
        self._client = None

        metrics = cluster.metrics
        self.obs_active = metrics.gauge("ddl_jobs_active")
        self.obs_chunk_ms = metrics.histogram("ddl_chunk_ms")
        self.obs_rows = metrics.counter("ddl_backfill_rows_total")
        self.obs_entries = metrics.counter("ddl_backfill_entries_total")
        self.obs_scrub_deleted = metrics.counter("ddl_scrub_deleted_total")
        self.obs_verify_missing = metrics.counter("ddl_verify_missing_total")

    @property
    def client(self):
        """Lazy client for multi-row reads (scrub double-checks)."""
        if self._client is None:
            self._client = self.cluster.new_client("ddl-manager")
        return self._client

    # -- submission ---------------------------------------------------------

    def _new_job(self, kind: JobKind, index: IndexDescriptor,
                 **extra) -> DdlJob:
        self._seq += 1
        job = DdlJob(
            job_id=f"ddl{self._seq:04d}-{kind.value}-{index.name}",
            kind=kind, index_name=index.name, base_table=index.base_table,
            index_table=index.table_name, started_at=self.sim.now(), **extra)
        return job

    def submit_create(self, index: IndexDescriptor) -> DdlJob:
        """The descriptor is already attached in BUILDING state (see
        MiniCluster.create_index_online) — dual-writes are live before
        the first checkpoint, so no mutation can slip between attach and
        snapshot."""
        job = self._new_job(JobKind.CREATE, index)
        self._register(job)
        return job

    def submit_alter(self, index: IndexDescriptor,
                     new_scheme: IndexScheme) -> DdlJob:
        job = self._new_job(JobKind.ALTER, index, new_scheme=new_scheme.value,
                            scrub=index.scheme.is_lazy
                            and not new_scheme.is_lazy)
        self._register(job)
        return job

    def submit_drop(self, index: IndexDescriptor) -> DdlJob:
        job = self._new_job(JobKind.DROP, index)
        self._register(job)
        return job

    def _register(self, job: DdlJob) -> None:
        self.jobs[job.job_id] = job
        self.catalog.save(job)
        self._spawn(job)

    def _spawn(self, job: DdlJob) -> None:
        self.obs_active.set(
            sum(1 for j in self.jobs.values() if not j.is_terminal))
        self.sim.spawn(self._run(job, job.owner_token),
                       name=f"ddl/{job.job_id}")

    def resume_pending(self) -> List[DdlJob]:
        """Reload non-terminal jobs from the durable catalog and restart
        their runners — the master-restart path.  Each resumed job's
        fencing token is bumped so a stale runner (if the old manager
        object is somehow still being driven) exits at its next
        checkpoint instead of double-running chunks."""
        resumed = []
        for job in self.catalog.load_all():
            if job.is_terminal:
                continue
            job.owner_token += 1
            self.jobs[job.job_id] = job
            self.catalog.save(job)
            self._spawn(job)
            resumed.append(job)
        return resumed

    def on_region_split(self, table: str, parent_name: str,
                        daughters: List["RegionInfo"]) -> None:
        """Placement-commit hook: migrate any in-flight job's scan cursor
        from a split-away parent region onto its daughters.

        Cursor entries exist only for regions a job has already touched
        (``<done>`` or a resume row); an untouched pending region needs
        nothing — ``_chunk_rounds`` re-reads the layout every round and
        will scan the daughters from their own start keys.  Chunk scans
        are snapshot-bounded and entries carry base timestamps, so even a
        conservative hand-off (re-covering rows) would be idempotent; this
        hand-off is exact: each daughter inherits the parent's progress
        clamped to its own key range."""
        for job in list(self.jobs.values()):
            if job.is_terminal or parent_name not in job.cursors:
                continue
            done = job.region_done(parent_name)
            cursor = None if done else job.region_cursor(parent_name)
            for info in daughters:
                if done:
                    job.mark_region_done(info.region_name)
                    continue
                start, end = info.key_range.start, info.key_range.end
                if cursor is not None and end is not None and cursor >= end:
                    job.mark_region_done(info.region_name)
                elif cursor is not None and cursor > start:
                    job.set_region_cursor(info.region_name, cursor)
                # else: this daughter is untouched — no entry, scans from
                # its own start.
            del job.cursors[parent_name]
            self.catalog.save(job)

    # -- runner -------------------------------------------------------------

    def _descriptor(self, job: DdlJob) -> Optional[IndexDescriptor]:
        base = self.cluster.master.tables.get(job.base_table)
        if base is None:
            return None
        return base.indexes.get(job.index_name)

    def _enter(self, job: DdlJob, phase: JobPhase) -> None:
        """Checkpointed phase transition (the gauge makes the state
        machine observable as a staircase over sim time)."""
        job.phase = phase
        self.cluster.metrics.gauge("ddl_job_phase", job=job.job_id).set(
            PHASE_ORDINAL[phase])
        self.catalog.save(job)

    def _finish(self, job: DdlJob, phase: JobPhase) -> None:
        job.finished_at = self.sim.now()
        self._enter(job, phase)
        self.obs_active.set(
            sum(1 for j in self.jobs.values() if not j.is_terminal))

    def _run(self, job: DdlJob, token: int) -> Generator[Any, Any, None]:
        yield Timeout(0)  # guarantee coroutine shape on every path
        span = self.cluster.tracer.start("ddl_job", job=job.job_id,
                                         kind=job.kind.value)
        try:
            if job.kind is JobKind.CREATE:
                yield from self._run_create(job, token)
            elif job.kind is JobKind.ALTER:
                yield from self._run_alter(job, token)
            else:
                self._run_drop(job, token)
        except Exception as exc:  # noqa: BLE001 - job must not crash the sim
            job.error = repr(exc)
            if not self._preempted(job, token):
                self._finish(job, JobPhase.FAILED)
            raise
        finally:
            span.end()

    def _preempted(self, job: DdlJob, token: int) -> bool:
        """Durable fence: the catalog record is the ownership authority.

        A resume bumps the PERSISTED owner_token, which a superseded
        runner — even one created by a previous manager object that the
        new manager cannot reach — observes here at its next checkpoint
        and exits.  Checks happen immediately before saves (no yield in
        between), so within the discrete-event kernel a stale runner can
        never clobber the new owner's checkpoint."""
        try:
            return self.catalog.load(job.job_id).owner_token != token
        except StorageError:
            return True  # record gone: treat as superseded

    def _run_create(self, job: DdlJob, token: int,
                    ) -> Generator[Any, Any, None]:
        cluster = self.cluster
        if job.phase is JobPhase.PENDING:
            # Dual-writes started the moment the BUILDING descriptor was
            # attached (observers include it automatically).
            self._enter(job, JobPhase.DUAL_WRITE)
        if job.phase is JobPhase.DUAL_WRITE:
            # Snapshot bound: every row version at or below ts_floor
            # predates (or races) the attach; everything newer is already
            # dual-written.  An in-flight put that fetched pre-attach
            # observers has already placed its memtable cells (ts ≤ floor)
            # before its observers run, so the scan covers it.
            job.snapshot_ts = cluster.ts_floor
            self._enter(job, JobPhase.BACKFILL)
        if job.phase is JobPhase.BACKFILL:
            complete = yield from self._chunk_rounds(
                job, token, self._backfill_chunk, job.base_table)
            if not complete:
                return
            self._enter(job, JobPhase.CATCH_UP)
        if job.phase is JobPhase.CATCH_UP:
            yield from self._catch_up(job)
            if self._preempted(job, token):
                return
            self._enter(job, JobPhase.VERIFY)
        if job.phase is JobPhase.VERIFY:
            yield from self._verify(job)
            if self._preempted(job, token):
                return
            index = self._descriptor(job)
            if index is not None and index.state is IndexState.BUILDING:
                cluster._set_index_descriptor(
                    dataclasses.replace(index, state=IndexState.ACTIVE))
            self._finish(job, JobPhase.ACTIVE)

    def _run_alter(self, job: DdlJob, token: int,
                   ) -> Generator[Any, Any, None]:
        cluster = self.cluster
        if job.phase is JobPhase.PENDING:
            # Swap the write scheme immediately (idempotent on resume).
            # Reads keep the Algorithm 2 double-check through TRANSITION
            # until the scrub removes the lazy era's stale entries — the
            # stepwise consistency hand-off.
            index = self._descriptor(job)
            if index is not None:
                state = IndexState.TRANSITION if job.scrub else index.state
                cluster._set_index_descriptor(dataclasses.replace(
                    index, scheme=IndexScheme(job.new_scheme), state=state))
            self._enter(job, JobPhase.DUAL_WRITE)
        if job.phase is JobPhase.DUAL_WRITE:
            # Entries written by the new scheme are trusted; only the lazy
            # era's entries (ts ≤ snapshot) need the scrub.
            job.snapshot_ts = cluster.ts_floor
            if job.scrub:
                # A sync-insert PI can land before its base cell (DESIGN
                # §11.3): let every base write logged so far reach its
                # memtable, so the scrub never refutes a put in flight.
                yield all_of(self.sim, [server.log_device.barrier()
                                        for server in cluster.alive_servers()])
            self._enter(job,
                        JobPhase.BACKFILL if job.scrub else JobPhase.VERIFY)
        if job.phase is JobPhase.BACKFILL:
            complete = yield from self._chunk_rounds(
                job, token, self._scrub_chunk, job.index_table)
            if not complete:
                return
            self._enter(job, JobPhase.CATCH_UP)
        if job.phase is JobPhase.CATCH_UP:
            yield from self._catch_up(job)
            if self._preempted(job, token):
                return
            self._enter(job, JobPhase.VERIFY)
        if job.phase is JobPhase.VERIFY:
            # The scrub re-checked every pre-snapshot entry against its
            # base row; nothing further to sample.
            index = self._descriptor(job)
            if index is not None and index.state is IndexState.TRANSITION:
                cluster._set_index_descriptor(
                    dataclasses.replace(index, state=IndexState.ACTIVE))
            self._finish(job, JobPhase.ACTIVE)

    def _run_drop(self, job: DdlJob, token: int) -> None:
        del token  # a drop has no resumable middle to fence
        if job.phase is JobPhase.PENDING:
            # Persist intent BEFORE acting: a crash between the two leaves
            # a DROPPING record, and the resumed job re-runs the (safe to
            # repeat) drop instead of leaving a half-dropped index.
            self._enter(job, JobPhase.DROPPING)
        if job.phase is JobPhase.DROPPING:
            try:
                self.cluster._drop_index_now(job.index_name)
            except (NoSuchIndexError, NoSuchTableError):
                pass  # resumed after the drop already landed
            self._finish(job, JobPhase.DONE)

    # -- chunked work -------------------------------------------------------

    def _chunk_rounds(self, job: DdlJob, token: int, chunk_fn,
                      scan_table: str) -> Generator[Any, Any, bool]:
        """Drive ``chunk_fn`` over every region of ``scan_table`` until
        all cursors are done.  One round = one chunk per pending region,
        scattered; the layout is re-read every round so regions that
        recovery moved are found at their new server.  Returns False if
        a resume superseded this runner."""
        backoff = self.config.retry_backoff_ms
        while True:
            if self._preempted(job, token):
                return False
            layout = self.cluster.master.layout.get(scan_table)
            if layout is None:
                return True  # table dropped out from under the job
            pending = [info for info in layout
                       if not job.region_done(info.region_name)]
            if not pending:
                return True
            results = yield scatter_gather(
                self.sim,
                [lambda info=info: chunk_fn(job, info) for info in pending],
                max_fanout=self.config.max_fanout, collect_errors=True,
                name="ddl_chunks", metrics=self.cluster.metrics,
                site="ddl_chunks")
            # Checkpoint the round whatever happened: completed chunks'
            # cursors are durable even if a sibling chunk lost its server.
            # Fence FIRST — a superseded runner must not overwrite the new
            # owner's record with its stale token.
            if self._preempted(job, token):
                return False
            self.catalog.save(job)
            if any(isinstance(r, Exception) for r in results):
                # A server died mid-scan (or routing is mid-recovery).
                # Back off and retry the round; the layout re-read above
                # picks up reassignments.
                yield Timeout(backoff)
                backoff = min(backoff * 2, self.config.retry_backoff_cap_ms)
            else:
                backoff = self.config.retry_backoff_ms
                if self.config.chunk_pause_ms:
                    yield Timeout(self.config.chunk_pause_ms)

    def _backfill_chunk(self, job: DdlJob, info: "RegionInfo",
                        ) -> Generator[Any, Any, None]:
        """One snapshot-bounded chunk of one base region: scan, build
        entries carrying base timestamps, deliver them batched."""
        cluster = self.cluster
        index = self._descriptor(job)
        if index is None:
            job.mark_region_done(info.region_name)
            return
        start = job.region_cursor(info.region_name)
        if start is None:
            start = info.key_range.start
        chunk_range = KeyRange(start, info.key_range.end)
        limit = self.config.chunk_cells
        started = self.sim.now()
        while True:
            server = cluster.servers[info.server_name]
            cells = yield from cluster.network.call(
                server, lambda: server.handle_scan(
                    job.base_table, chunk_range, limit=limit,
                    max_ts=job.snapshot_ts))
            rows = _group_rows(cells)
            if len(cells) >= limit and rows:
                if len(rows) == 1:
                    # One row wider than the whole chunk — widen and
                    # rescan rather than splitting a row across chunks.
                    limit *= 2
                    continue
                # The trailing row may be cut mid-columns: drop it and
                # resume the next chunk AT it.
                resume_row = rows[-1][0]
                rows = rows[:-1]
                job.set_region_cursor(info.region_name,
                                      compose_cell_key(resume_row, ""))
            else:
                job.mark_region_done(info.region_name)
            break
        ops = []
        for row, row_data in rows:
            job.rows_scanned += 1
            derived = row_index_entry(index, row, row_data)
            if derived is None:
                continue
            # The entry carries the BASE timestamp (max over the indexed
            # columns), so overlap with dual-writes is idempotent: a
            # foreground update at t_new has already deleted (or will
            # delete) this very key at t_new − δ ≥ this ts, whichever
            # order the cells land in.
            ops.append(("put", index.table_name, *derived,
                        index.created_epoch))
        self.obs_rows.inc(len(rows))
        yield from self._deliver_ops(ops)
        job.entries_written += len(ops)
        self.obs_entries.inc(len(ops))
        job.chunks_done += 1
        self.obs_chunk_ms.observe(self.sim.now() - started)

    def _scrub_chunk(self, job: DdlJob, info: "RegionInfo",
                     ) -> Generator[Any, Any, None]:
        """One chunk of the online ALTER scrub: scan pre-snapshot index
        entries, double-check each against its base row, tombstone the
        stale ones at their own timestamps."""
        cluster = self.cluster
        index = self._descriptor(job)
        if index is None:
            job.mark_region_done(info.region_name)
            return
        start = job.region_cursor(info.region_name)
        if start is None:
            start = info.key_range.start
        chunk_range = KeyRange(start, info.key_range.end)
        limit = self.config.chunk_cells
        started = self.sim.now()
        server = cluster.servers[info.server_name]
        cells = yield from cluster.network.call(
            server, lambda: server.handle_scan(
                job.index_table, chunk_range, limit=limit,
                max_ts=job.snapshot_ts))
        if len(cells) >= limit:
            # Entries are single cells, so no partial-row concern: resume
            # strictly after the last processed key.
            job.set_region_cursor(info.region_name, cells[-1].key + b"\x00")
        else:
            job.mark_region_done(info.region_name)
        if not cells:
            job.chunks_done += 1
            self.obs_chunk_ms.observe(self.sim.now() - started)
            return
        decoded: List[Tuple[Cell, tuple, bytes]] = []
        for cell in cells:
            values, rowkey = decode_index_key(cell.key, len(index.columns))
            decoded.append((cell, tuple(values), rowkey))
        row_map = yield from self.client.multi_get(
            index.base_table, [rowkey for _c, _v, rowkey in decoded],
            columns=list(index.columns))
        dels = []
        for cell, values, rowkey in decoded:
            # Past the log barrier, no put in flight can back an entry.
            if entry_verdict(index, cell.ts, values, row_map.get(rowkey, {}),
                             row_locked=False) == DEAD:
                # Stale: tombstone that exact entry version.  An entry the
                # new scheme wrote for the same key sits at a newer ts and
                # survives the tombstone.
                dels.append(("del", index.table_name, cell.key, cell.ts,
                             index.created_epoch))
        yield from self._deliver_ops(dels)
        job.stale_deleted += len(dels)
        self.obs_scrub_deleted.inc(len(dels))
        job.chunks_done += 1
        self.obs_chunk_ms.observe(self.sim.now() - started)

    def _deliver_ops(self, ops: list) -> Generator[Any, Any, None]:
        """Deliver epoch-tagged index ops batched per target server, with
        the same retry-and-refilter discipline as the APS (a concurrent
        drop must not turn this into a busy loop)."""
        cluster = self.cluster
        ops = live_index_ops(cluster, ops)
        if not ops:
            return
        groups: Dict[Any, list] = {}
        for op in ops:
            try:
                target, _region = cluster.locate(op[1], op[2])
            except (NoSuchTableError, NoSuchRegionError):  # mid-recovery
                target = None
            groups.setdefault(target, []).append(op)
        for target, group in groups.items():
            backoff = self.config.retry_backoff_ms
            while True:
                group = live_index_ops(cluster, group)
                if not group:
                    break
                try:
                    if target is None:
                        raise RpcError("no route to index region")
                    yield from cluster.network.call(
                        target, lambda t=target, g=group:
                        t.handle_index_ops(g, background=True))
                    break
                except (RpcError, NoSuchRegionError):
                    yield Timeout(backoff)
                    backoff = min(backoff * 2,
                                  self.config.retry_backoff_cap_ms)
                    try:
                        target, _region = cluster.locate(group[0][1],
                                                         group[0][2])
                    except (NoSuchTableError, NoSuchRegionError):
                        target = None

    def _catch_up(self, job: DdlJob) -> Generator[Any, Any, None]:
        deadline = self.sim.now() + self.config.max_catchup_ms
        while (self.cluster.auq_backlog() > 0
               and self.sim.now() < deadline):
            yield Timeout(self.config.catchup_step_ms)

    def _verify(self, job: DdlJob) -> Generator[Any, Any, None]:
        """Sampled presence check: the first N rows of every base region
        must have their entry in the index table; missing entries are
        repaired at the base timestamp (idempotence makes a false
        positive from a racing foreground update harmless — the repair
        lands already-masked)."""
        cluster = self.cluster
        index = self._descriptor(job)
        if index is None:
            return
        sample_cells = self.config.verify_rows_per_region * 8
        for info in list(cluster.master.layout.get(job.base_table, [])):
            try:
                server = cluster.servers[info.server_name]
                cells = yield from cluster.network.call(
                    server, lambda s=server, i=info: s.handle_scan(
                        job.base_table, KeyRange(i.key_range.start,
                                                 i.key_range.end),
                        limit=sample_cells))
            except (RpcError, NoSuchRegionError):
                continue  # best-effort sample; recovery in progress
            rows = _group_rows(cells)[:self.config.verify_rows_per_region]
            for row, row_data in rows:
                job.verify_checked += 1
                derived = row_index_entry(index, row, row_data)
                if derived is None:
                    continue
                entry_key, entry_ts = derived
                try:
                    found = yield from self.client.scan_table(
                        index.table_name,
                        KeyRange(entry_key, entry_key + b"\x00"), limit=1)
                except (RpcError, NoSuchRegionError, NoSuchTableError):
                    continue
                if not found:
                    job.verify_missing += 1
                    self.obs_verify_missing.inc()
                    yield from self._deliver_ops(
                        [("put", index.table_name, entry_key, entry_ts,
                          index.created_epoch)])
        # No save here: the caller fences on the owner token and persists
        # the verify counters through _finish.


def _group_rows(cells) -> List[Tuple[bytes, Dict[str, Tuple[bytes, int]]]]:
    """Group scan cells (key = row ⊕ 0x00 ⊕ qualifier) into ordered
    ``(row, {qualifier: (value, ts)})`` pairs."""
    rows: List[Tuple[bytes, Dict[str, Tuple[bytes, int]]]] = []
    current_row: Optional[bytes] = None
    current: Dict[str, Tuple[bytes, int]] = {}
    for cell in cells:
        row, qualifier = split_cell_key(cell.key)
        if row != current_row:
            current = {}
            rows.append((row, current))
            current_row = row
        current[qualifier] = (cell.value, cell.ts)
    return rows
