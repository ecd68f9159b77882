"""Region placement: automatic splits and the load balancer.

HBase's serving layer reshapes itself under load — regions split when
they grow and migrate when a server runs hot — and the paper's latency
claims assume that layer exists: index tables are keyed by *indexed
value*, the textbook skew case.  This module adds both mechanisms to the
MiniCluster:

* **Auto-split** — the region server's maintenance loop calls
  :meth:`PlacementManager.consider_split` for every hosted region; a
  region over ``max_region_bytes`` with enough distinct keys submits a
  crash-safe :class:`~repro.placement.jobs.SplitJob` (persisted to the
  SimHDFS meta namespace *before* any action, resumable via
  :meth:`resume_pending`).

* **Load balancer** — a periodic sim-time process scoring each live
  server as ``region_count_weight · regions + qps_weight · recent_qps``
  (rates from the per-region request counters surfaced as ``region_qps``
  gauges) and executing at most ``max_moves_per_round`` live migrations
  per round, hottest server to coldest.

Both paths funnel through the same close protocol: the hosting server
removes the region from service, waits out in-flight row work, flushes
the memtable and rolls the WAL — after which the durable store files are
the complete region image, and the commit (daughters adopt the files, or
the destination re-opens them) runs without any simulated-time yield, so
no key range is ever observable as unowned or doubly-owned.  Clients see
only ``NoSuchRegionError``/``ServerDownError`` stale routes, which their
existing refresh-and-retry path absorbs; every layout change bumps
``Master.routing_epoch``.

Defaults keep both mechanisms off (``max_region_bytes=None``,
``balancer_enabled=False``) so existing experiments are unperturbed.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Generator, List, Optional, Set, TYPE_CHECKING

from repro.errors import NoSuchRegionError, StorageError
from repro.lsm.types import KeyRange
from repro.cluster.master import RegionInfo
from repro.cluster.region import Region
from repro.placement.jobs import SplitCatalog, SplitJob, SplitPhase
from repro.sim.kernel import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import MiniCluster
    from repro.cluster.server import RegionServer

__all__ = ["PlacementConfig", "PlacementManager", "pick_placement_target",
           "replica_holders"]


def replica_holders(info: RegionInfo) -> Set[str]:
    """Every server holding a copy of ``info`` — leader plus followers.
    The anti-affinity checks all phrase themselves against this set."""
    return {info.server_name, *info.replica_servers}


def pick_placement_target(cluster: "MiniCluster",
                          exclude=(),
                          rates: Optional[Dict[str, float]] = None,
                          ) -> Optional["RegionServer"]:
    """THE shared target picker: least-loaded live server outside
    ``exclude``, by the balancer's own score (so recovery, promotion
    re-replication, follower placement and the balancer never disagree
    on what "loaded" means and undo each other's work).  Returns None
    when no candidate survives the exclusions — callers degrade (run
    under-replicated, or relax the exclusion) rather than crash."""
    excluded = set(exclude)
    candidates = [s for s in cluster.servers.values()
                  if s.alive and s.name not in excluded]
    if not candidates:
        return None
    placement = getattr(cluster, "placement", None)
    if placement is not None:
        return min(candidates,
                   key=lambda s: (placement.score_server(s, rates), s.name))
    return min(candidates, key=lambda s: (len(s.regions), s.name))


@dataclasses.dataclass
class PlacementConfig:
    """Knobs for automatic splitting and load balancing.

    ``max_region_bytes=None`` disables auto-splitting and
    ``balancer_enabled=False`` disables the balancer — the defaults, so a
    cluster behaves exactly as before unless placement is asked for.
    """

    # -- auto-split ---------------------------------------------------------
    # Split a region once its LSM tree exceeds this many bytes.
    max_region_bytes: Optional[int] = None
    # A region must span at least this many distinct routable keys before
    # the midpoint policy will cut it (a one-key region cannot split).
    min_split_distinct_keys: int = 4

    # -- balancer -----------------------------------------------------------
    balancer_enabled: bool = False
    balancer_interval_ms: float = 500.0
    max_moves_per_round: int = 2
    # Server score = region_count_weight * hosted_regions
    #              + qps_weight * recent requests/sec.
    region_count_weight: float = 1.0
    qps_weight: float = 0.01
    # Hottest-vs-coldest score gap below which the layout counts as
    # balanced (hysteresis against ping-ponging a region back and forth).
    min_score_gap: float = 1.5

    # -- mechanics ----------------------------------------------------------
    # Poll cadence while waiting for a close RPC (the wait is polled, not
    # awaited, so a server dying mid-close cannot wedge the runner).
    close_poll_ms: float = 2.0
    retry_backoff_ms: float = 25.0
    retry_backoff_cap_ms: float = 400.0


class PlacementManager:
    """Master-side split/migration executor and balancer (one per cluster)."""

    def __init__(self, cluster: "MiniCluster",
                 config: Optional[PlacementConfig] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config or PlacementConfig()
        self.catalog = SplitCatalog(cluster.hdfs)
        self.jobs: Dict[str, SplitJob] = {}
        self._seq = 0
        # Regions with an in-flight split or migration: the two operations
        # must not race each other on the same region (both close it).
        self._busy: Set[str] = set()

        # Balancer rate-tracking state.  Counter snapshots are clamped on
        # delta (a region object recreated by a move or recovery restarts
        # its counters from zero).
        self._last_counts: Dict[str, int] = {}
        self._rates: Dict[str, float] = {}
        self._rates_at = self.sim.now()

        metrics = cluster.metrics
        self.obs_splits = metrics.counter("placement_splits_total")
        self.obs_moves = metrics.counter("placement_moves_total")
        self.obs_move_failures = metrics.counter("placement_move_failures")
        self.obs_split_ms = metrics.histogram("placement_split_ms")

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.config.balancer_enabled:
            self.sim.spawn(self._balancer_loop(), name="placement/balancer")

    def resume_pending(self) -> List[SplitJob]:
        """Reload non-terminal split jobs from the durable catalog and
        restart their runners — the master-restart path.  Each resumed
        job's fencing token is bumped so a superseded runner exits at its
        next checkpoint instead of double-committing a split."""
        resumed = []
        for job in self.catalog.load_all():
            if job.is_terminal:
                continue
            job.owner_token += 1
            self.jobs[job.job_id] = job
            self.catalog.save(job)
            self._busy.add(job.parent_region)
            self._spawn(job)
            resumed.append(job)
        return resumed

    # -- split policy -------------------------------------------------------

    def consider_split(self, server: "RegionServer", region: Region) -> None:
        """Split-policy check, called synchronously from the region
        server's maintenance loop for every hosted region."""
        cfg = self.config
        if cfg.max_region_bytes is None or not server.alive:
            return
        if region.name in self._busy:
            return
        # Cheap gate first (raw file bytes, an upper bound on owned
        # bytes), then the exact range-clamped measure — a fresh split
        # daughter references the parent's full files but owns only half
        # the data, and sizing on raw bytes would cascade splits.
        if region.tree.total_bytes < cfg.max_region_bytes:
            return
        if region.owned_bytes() < cfg.max_region_bytes:
            return
        descriptor = region.table
        if any(ix.is_local for ix in descriptor.indexes.values()):
            # Local-index entries live in the region's reserved (leading
            # 0x00) keyspace and all sort below every row key — a midpoint
            # row split would strand them in the left daughter.  Such
            # tables stay unsplit (migration remains safe: a move ships
            # the whole tree).  See DESIGN.md §10.
            return
        split_key = region.split_point(cfg.min_split_distinct_keys)
        if split_key is None:
            return
        self.request_split(descriptor.name, region.name, split_key)

    def request_split(self, table: str, region_name: str,
                      split_key: Optional[bytes] = None) -> SplitJob:
        """Submit a crash-safe split of ``region_name`` at ``split_key``
        (defaults to the region's midpoint-of-keys).  Returns the job
        handle; drive ``cluster.run(job.wait())`` to block on it."""
        master = self.cluster.master
        info = master.region_info(table, region_name)
        if info is None:
            raise NoSuchRegionError(
                f"{table!r} has no region {region_name!r}")
        if region_name in self._busy:
            raise NoSuchRegionError(
                f"region {region_name!r} already has placement work in flight")
        if split_key is None:
            server = self.cluster.servers.get(info.server_name)
            region = server.regions.get(region_name) if server else None
            if region is None:
                raise NoSuchRegionError(
                    f"{info.server_name} does not host {region_name!r}")
            split_key = region.split_point(self.config.min_split_distinct_keys)
            if split_key is None:
                raise ValueError(
                    f"region {region_name!r} has too few distinct keys "
                    f"to split")
        if not (info.key_range.start < split_key
                and (info.key_range.end is None
                     or split_key < info.key_range.end)):
            raise ValueError(
                f"split key {split_key!r} not strictly inside "
                f"{info.key_range!r}")
        job = SplitJob(
            job_id=self._next_job_id(),
            table=table,
            parent_region=region_name,
            split_key_hex=split_key.hex(),
            left_region=master.new_region_name(table),
            right_region=master.new_region_name(table),
            requested_at=self.sim.now())
        self._busy.add(region_name)
        self.jobs[job.job_id] = job
        self.catalog.save(job)     # intent durable BEFORE any action
        self._spawn(job)
        return job

    def _next_job_id(self) -> str:
        while True:
            self._seq += 1
            job_id = f"split{self._seq:04d}"
            if job_id not in self.jobs:
                return job_id

    def _spawn(self, job: SplitJob) -> None:
        self.sim.spawn(self._run_split(job, job.owner_token),
                       name=f"placement/{job.job_id}")

    # -- split runner -------------------------------------------------------

    def _preempted(self, job: SplitJob, token: int) -> bool:
        """Durable fence (same discipline as the DDL runner): the catalog
        record is the ownership authority; checks run synchronously right
        before any save/commit, so a resumed runner can never be raced by
        the one it superseded."""
        try:
            return self.catalog.load(job.job_id).owner_token != token
        except StorageError:
            return True

    def _finish(self, job: SplitJob, phase: SplitPhase,
                error: Optional[str] = None) -> None:
        job.phase = phase
        job.error = error
        job.finished_at = self.sim.now()
        self.catalog.save(job)
        self._busy.discard(job.parent_region)

    def _run_split(self, job: SplitJob, token: int,
                   ) -> Generator[Any, Any, None]:
        yield Timeout(0)  # guarantee coroutine shape on every path
        master = self.cluster.master
        backoff = self.config.retry_backoff_ms
        try:
            while True:
                if self._preempted(job, token):
                    return
                info = master.region_info(job.table, job.parent_region)
                if info is None:
                    # Parent gone from the layout: either a previous run of
                    # this job committed (daughters present — resumed after
                    # a crash-after-commit) or the table was dropped.
                    committed = (master.region_info(job.table,
                                                    job.left_region)
                                 is not None)
                    self._finish(job,
                                 SplitPhase.DONE if committed
                                 else SplitPhase.FAILED,
                                 None if committed else "parent vanished")
                    return
                server = self.cluster.servers.get(info.server_name)
                if server is None or not server.alive:
                    # The host crashed; wait for recovery to resurrect the
                    # parent on a live server, then close it there.
                    yield Timeout(backoff)
                    backoff = min(backoff * 2,
                                  self.config.retry_backoff_cap_ms)
                    continue
                job.attempts += 1
                closed = yield from self._close_region(server, job.table,
                                                       job.parent_region)
                if not closed:
                    yield Timeout(backoff)
                    backoff = min(backoff * 2,
                                  self.config.retry_backoff_cap_ms)
                    continue
                # From here to the end of _commit_split there is no
                # simulated-time yield: the checks and the layout surgery
                # are one atomic step.
                current = master.region_info(job.table, job.parent_region)
                if (current is None or not server.alive
                        or current.server_name != server.name):
                    # The world moved while we were closing (recovery
                    # reassigned the parent, or the host died after the
                    # close); loop and re-close wherever it lives now.
                    continue
                if self._preempted(job, token):
                    return
                self._commit_split(job, current, server)
                return
        finally:
            self._busy.discard(job.parent_region)

    def _close_region(self, server: "RegionServer", table: str,
                      region_name: str) -> Generator[Any, Any, bool]:
        """Ask ``server`` to close the region (stop serving, flush, roll
        WAL).  The RPC is spawned and *polled* rather than awaited: if the
        server dies mid-close its flush can park forever on a dead AUQ
        drain, and an awaiting runner would wedge with it."""
        proc = self.sim.spawn(
            self.cluster.network.call(
                server,
                lambda: server.handle_split_close(table, region_name)),
            name=f"placement/close/{region_name}")
        proc._waited_on = True  # polled here; don't escalate its errors
        while not proc.future.done():
            if not server.alive:
                return False
            yield Timeout(self.config.close_poll_ms)
        return proc.future.exception() is None

    def _commit_split(self, job: SplitJob, parent: RegionInfo,
                      server: "RegionServer") -> None:
        """Yield-free commit: daughters adopt the parent's (now complete)
        store files on the same server, the layout swaps parent for
        daughters in one step, DDL cursors are inherited, and the parent's
        store listing is retired."""
        master = self.cluster.master
        hdfs = self.cluster.hdfs
        descriptor = master.descriptor(job.table)
        split_key = job.split_key
        # The close left the parent hosted-but-closing (reads kept serving
        # during the flush); retire it now, in the same atomic step that
        # brings the daughters online.
        server.remove_region(parent.region_name)
        # HBase reference files: both daughters link the SAME store files;
        # out-of-range cells are invisible through the region's key-range
        # clamp and disappear at the next compaction.
        store = hdfs.copy_store_files(job.table, parent.region_name,
                                      [job.left_region, job.right_region])
        daughters: List[RegionInfo] = []
        ranges = ((job.left_region,
                   KeyRange(parent.key_range.start, split_key)),
                  (job.right_region,
                   KeyRange(split_key, parent.key_range.end)))
        for name, key_range in ranges:
            region = Region(name, descriptor, key_range)
            region.tree.adopt_sstables(list(store))
            server.add_region(region)
            daughters.append(RegionInfo(name, job.table, key_range,
                                        server.name))
        master.replace_with_daughters(parent, daughters)
        if parent.replica_servers:
            # Splits split ALL replicas: each surviving parent follower
            # becomes a follower of both daughters.  The close flushed
            # the complete parent image into the (shared) store files, so
            # the new followers' coverage through this instant is exact.
            from repro.replication.promote import create_follower
            now = self.sim.now()
            for follower_name in list(parent.replica_servers):
                follower = self.cluster.servers.get(follower_name)
                if follower is not None:
                    follower.remove_follower(parent.region_name)
                if follower is None or not follower.alive:
                    continue
                for daughter in daughters:
                    create_follower(self.cluster, daughter, follower,
                                    caught_up_through=now)
        if self.cluster.replication.enabled:
            # Top back up if a parent follower had died (daughters would
            # otherwise inherit the under-replication).
            from repro.replication.promote import ensure_replicas
            for daughter in daughters:
                ensure_replicas(self.cluster, daughter)
        self.cluster.ddl.on_region_split(job.table, parent.region_name,
                                         daughters)
        hdfs.delete_store(job.table, parent.region_name)
        self._finish(job, SplitPhase.DONE)
        self.obs_splits.inc()
        self.obs_split_ms.observe(self.sim.now() - job.requested_at)

    # -- migration ----------------------------------------------------------

    def move_region(self, table: str, region_name: str,
                    target_name: str) -> Generator[Any, Any, bool]:
        """Live migration: close on the source (flush ships the memtable
        into the durable store files), re-open on the target in the same
        atomic step, reassign in the layout.  The region KEEPS its name,
        so DDL cursors and recovery bookkeeping stay valid.  Returns True
        iff the region now lives on ``target_name``."""
        master = self.cluster.master
        info = master.region_info(table, region_name)
        if info is None or region_name in self._busy:
            return False
        source = self.cluster.servers.get(info.server_name)
        target = self.cluster.servers.get(target_name)
        if (source is None or target is None
                or not source.alive or not target.alive):
            return False
        if source is target:
            return True
        if target_name in info.replica_servers:
            # Anti-affinity: the target already holds a follower of this
            # region; landing the leader there would co-locate two copies.
            self.obs_move_failures.inc()
            return False
        self._busy.add(region_name)
        try:
            closed = yield from self._close_region(source, table, region_name)
            if not closed:
                self.obs_move_failures.inc()
                return False
            # No yields from here to reassign: the range is never
            # observable as unowned.
            current = master.region_info(table, region_name)
            if current is None or current.server_name != source.name:
                self._reopen(source, region_name)
                self.obs_move_failures.inc()
                return False  # split/dropped/reassigned under us
            # If the target died while we were closing, fall back to
            # re-opening on the (still live) source — never leave the
            # range unowned.
            dest = target if target.alive else source
            if not dest.alive:
                # Source died after a successful close: durable state is
                # complete; recovery resurrects the region from it.
                self.obs_move_failures.inc()
                return False
            # The close left the region hosted-but-closing on the source;
            # swap it for a fresh open region on the destination (which may
            # be the source itself on the fallback path).
            source.remove_region(region_name)
            region = Region(region_name, master.descriptor(table),
                            current.key_range)
            region.tree.adopt_sstables(
                self.cluster.hdfs.store_files(table, region_name))
            dest.add_region(region)
            master.reassign(current, dest.name)
            if current.replica_servers:
                # Still inside the yield-free commit: the close flushed
                # the COMPLETE region image, so every follower hard-syncs
                # to the store files with coverage through this instant
                # ("one replica at a time": the leader moved, followers
                # stay put and just resync).
                from repro.replication.promote import resync_followers
                resync_followers(self.cluster, current, self.sim.now())
            if dest is target:
                self.obs_moves.inc()
                return True
            self.obs_move_failures.inc()
            return False
        finally:
            self._busy.discard(region_name)

    @staticmethod
    def _reopen(server: "RegionServer", region_name: str) -> None:
        """Clear a leftover ``closing`` flag after an aborted move so the
        region (still hosted, still complete) takes writes again."""
        region = server.regions.get(region_name)
        if region is not None:
            region.closing = False

    # -- balancer -----------------------------------------------------------

    def _balancer_loop(self) -> Generator[Any, Any, None]:
        while True:
            yield Timeout(self.config.balancer_interval_ms)
            yield from self.balance_once()

    def balance_once(self) -> Generator[Any, Any, int]:
        """One balancer round: refresh rates, then move up to
        ``max_moves_per_round`` regions from the hottest server to the
        coldest.  Returns the number of migrations executed."""
        cfg = self.config
        rates = self._region_rates()
        moves = 0
        for _ in range(cfg.max_moves_per_round):
            alive = self.cluster.alive_servers()
            for server in alive:
                self.cluster.metrics.gauge(
                    "placement_regions", server=server.name).set(
                    len(self.cluster.master.regions_on(server.name)))
            if len(alive) < 2:
                return moves
            scores = {s.name: self.score_server(s, rates) for s in alive}
            hot = max(scores, key=lambda n: scores[n])
            # Cold pick through the SAME shared picker recovery and
            # replica placement use (identical scoring + tie-break).
            cold_server = pick_placement_target(self.cluster,
                                                exclude=(hot,), rates=rates)
            if cold_server is None:
                return moves
            cold = cold_server.name
            gap = scores[hot] - scores[cold]
            if gap <= cfg.min_score_gap:
                return moves
            contrib = (lambda i: cfg.region_count_weight
                       + cfg.qps_weight * rates.get(i.region_name, 0.0))
            # Anti-affinity: a region with a replica already on the cold
            # server cannot move its leader there.
            movable = [i for i in self.cluster.master.regions_on(hot)
                       if i.region_name not in self._busy
                       and cold not in replica_holders(i)
                       and contrib(i) < gap]
            if not movable:
                return moves
            # Best fit: the region whose load lands closest to closing
            # half the gap (moving more than the gap would just swap the
            # hot spot to the target).
            pick = min(movable, key=lambda i: abs(contrib(i) - gap / 2))
            moved = yield from self.move_region(pick.table, pick.region_name,
                                                cold)
            if not moved:
                return moves
            moves += 1
        return moves

    def _region_rates(self) -> Dict[str, float]:
        """Per-region requests/sec since the previous balancer round,
        published as ``region_qps`` gauges."""
        now = self.sim.now()
        elapsed_s = (now - self._rates_at) / 1000.0
        counts: Dict[str, int] = {}
        tables: Dict[str, str] = {}
        for server in self.cluster.alive_servers():
            for region in server.regions.values():
                counts[region.name] = region.requests
                tables[region.name] = region.table.name
        rates: Dict[str, float] = {}
        for name, count in counts.items():
            delta = max(0, count - self._last_counts.get(name, 0))
            qps = delta / elapsed_s if elapsed_s > 0 else 0.0
            rates[name] = qps
            self.cluster.metrics.gauge(
                "region_qps", table=tables[name], region=name).set(
                round(qps, 3))
        self._last_counts = counts
        self._rates_at = now
        self._rates = rates
        return rates

    def score_server(self, server: "RegionServer",
                     rates: Optional[Dict[str, float]] = None) -> float:
        """Balancer score: higher = more loaded.  Also used by recovery to
        pick the least-loaded target for a dead server's regions."""
        if rates is None:
            rates = self._rates
        cfg = self.config
        score = 0.0
        for info in self.cluster.master.regions_on(server.name):
            score += (cfg.region_count_weight
                      + cfg.qps_weight * rates.get(info.region_name, 0.0))
        # A hosted follower is roughly half a leader's load: it takes
        # shipped writes and follower reads but no foreground write path.
        score += 0.5 * cfg.region_count_weight * len(server.follower_regions)
        return score
