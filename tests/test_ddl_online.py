"""Online index DDL (repro.ddl): the crash-safe CREATE/ALTER/DROP state
machine, concurrent-write backfill, resume after crashes, and the
offline/online CREATE equivalence guarantee.  Every ALTER is the online
job."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.core.encoding import encode_index_key
from repro.core.verify import actual_entries
from repro.ddl.jobs import JobPhase
from repro.ddl.manager import DdlConfig, DdlManager
from repro.errors import IndexBuildingError, NoSuchIndexError
from repro.query.planner import plan_query
from repro.query.predicates import Eq
from repro.sim.kernel import Timeout


def _load(cluster, client, table, count, prefix="r", value=b"v"):
    def loader():
        for i in range(count):
            yield from client.put(table, f"{prefix}{i:05d}".encode(),
                                  {"c": value})
    cluster.run(loader())


# ---------------------------------------------------------------------------
# CREATE: the full state machine, with concurrent writes
# ---------------------------------------------------------------------------

def test_online_create_runs_full_state_machine_under_writes():
    cluster = MiniCluster(num_servers=3, seed=17).start()
    cluster.ddl.config = DdlConfig(chunk_cells=64)
    cluster.create_table("t", split_keys=[b"r00300"])
    client = cluster.new_client()
    _load(cluster, client, "t", 600)

    cluster.create_index(IndexDescriptor("ix", "t", ("c",)),
                         backfill="online")
    job = next(iter(cluster.ddl.jobs.values()))

    seen = []

    def watcher():
        while not job.is_terminal:
            if not seen or seen[-1] is not job.phase:
                seen.append(job.phase)
            yield Timeout(0.5)
        seen.append(job.phase)

    def writer():
        for i in range(200):
            yield from client.put("t", f"w{i:04d}".encode(), {"c": b"live"})

    cluster.spawn(watcher(), name="watcher")
    writer_proc = cluster.spawn(writer(), name="writer")
    cluster.run(job.wait())
    cluster.sim.run_until_complete(writer_proc)

    assert job.phase is JobPhase.ACTIVE
    # Happy-path phases appear in machine order (PENDING may be gone
    # before the watcher's first sample).
    order = [JobPhase.PENDING, JobPhase.DUAL_WRITE, JobPhase.BACKFILL,
             JobPhase.CATCH_UP, JobPhase.VERIFY, JobPhase.ACTIVE]
    ranks = [order.index(p) for p in seen]
    assert ranks == sorted(ranks)
    assert JobPhase.BACKFILL in seen and JobPhase.ACTIVE in seen

    assert job.rows_scanned >= 600          # every preexisting row covered
    assert job.entries_written >= 600
    assert cluster.metrics.total("ddl_backfill_rows_total") >= 600

    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)
    # Concurrent writes were dual-written, not lost.
    entries = actual_entries(cluster, cluster.index_descriptor("ix"))
    assert len(entries) == 800

    # Terminal state is durable: a fresh catalog read agrees.
    assert cluster.ddl.catalog.load(job.job_id).phase is JobPhase.ACTIVE


def test_building_index_rejects_reads_and_planner_skips_it():
    cluster = MiniCluster(num_servers=2, seed=23).start()
    cluster.ddl.config = DdlConfig(chunk_cells=16, chunk_pause_ms=50.0)
    cluster.create_table("t")
    client = cluster.new_client()
    _load(cluster, client, "t", 300)

    cluster.create_index(IndexDescriptor("ix", "t", ("c",)),
                         backfill="online")
    job = next(iter(cluster.ddl.jobs.values()))

    def probe():
        while job.phase is not JobPhase.BACKFILL:
            yield Timeout(0.5)

    cluster.run(probe())
    assert not cluster.index_descriptor("ix").is_readable
    with pytest.raises(IndexBuildingError):
        cluster.run(client.get_by_index("ix", equals=[b"v"]))
    # The planner falls back to a scan rather than using a half-built index.
    assert plan_query(cluster, "t", Eq("c", b"v")).access_path == "scan"

    cluster.run(job.wait())
    assert cluster.index_descriptor("ix").is_readable
    hits = cluster.run(client.get_by_index("ix", equals=[b"v"]))
    assert len(hits) == 300
    assert plan_query(cluster, "t", Eq("c", b"v")).access_path == "index"


# ---------------------------------------------------------------------------
# Satellite: legacy path + offline/online equivalence
# ---------------------------------------------------------------------------

def test_offline_backfill_modes_still_work():
    cluster = MiniCluster(num_servers=2, seed=5).start()
    cluster.create_table("t")
    client = cluster.new_client()
    _load(cluster, client, "t", 50)
    # The offline modes: "offline" builds every entry, "none" attaches
    # the index with no entries for existing rows.
    cluster.create_index(IndexDescriptor("a", "t", ("c",)),
                         backfill="offline")
    cluster.create_index(IndexDescriptor("b", "t", ("c",)), backfill="none")
    assert check_index(cluster, "a").is_consistent
    assert len(check_index(cluster, "b").missing) == 50
    for legacy in ("nonsense", True, False):
        with pytest.raises(ValueError):
            cluster.create_index(IndexDescriptor("x", "t", ("c",)),
                                 backfill=legacy)


def test_offline_and_online_builds_are_equivalent_after_quiesce():
    def build(mode):
        cluster = MiniCluster(num_servers=2, seed=31).start()
        cluster.create_table("t")
        client = cluster.new_client()
        _load(cluster, client, "t", 250)
        cluster.create_index(IndexDescriptor("ix", "t", ("c",)),
                             backfill=mode)
        if mode == "online":
            job = next(iter(cluster.ddl.jobs.values()))
            cluster.run(job.wait())
        cluster.quiesce()
        return actual_entries(cluster, cluster.index_descriptor("ix"))

    offline = build("offline")
    online = build("online")
    # Same keys AND same (base) timestamps: the online build is
    # indistinguishable from the instantaneous legacy build once quiesced.
    assert offline == online


def test_drop_then_create_rebuilds_a_stale_index():
    """§7's rebuild: sync-insert leaves stale entries behind; dropping the
    index and creating it again derives exactly the current entries."""
    cluster = MiniCluster(num_servers=2, seed=20).start()
    cluster.create_table("t")
    index = IndexDescriptor("ix", "t", ("c",),
                            scheme=IndexScheme.SYNC_INSERT)
    cluster.create_index(index)
    client = cluster.new_client()
    for i in range(4):
        cluster.run(client.put("t", f"r{i}".encode(),
                               {"c": f"v{i}".encode()}))
    cluster.run(client.put("t", b"r0", {"c": b"v9"}))
    assert len(check_index(cluster, "ix").stale) == 1
    cluster.drop_index("ix")
    cluster.create_index(index)
    assert check_index(cluster, "ix").is_consistent
    hits = cluster.run(client.get_by_index("ix", equals=[b"v9"]))
    assert [hit.rowkey for hit in hits] == [b"r0"]


def test_local_index_rejects_online_build():
    from repro.core.index import IndexScope
    cluster = MiniCluster(num_servers=2, seed=5).start()
    cluster.create_table("t")
    with pytest.raises(ValueError):
        cluster.create_index(
            IndexDescriptor("loc", "t", ("c",), scope=IndexScope.LOCAL),
            backfill="online")


# ---------------------------------------------------------------------------
# Satellite: property test — all four schemes, concurrent writes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", [IndexScheme.SYNC_FULL,
                                    IndexScheme.SYNC_INSERT,
                                    IndexScheme.ASYNC_SIMPLE,
                                    IndexScheme.ASYNC_SESSION])
def test_online_backfill_with_concurrent_writes_all_schemes(scheme):
    cluster = MiniCluster(num_servers=3, seed=41).start()
    cluster.ddl.config = DdlConfig(chunk_cells=32)
    cluster.create_table("t", split_keys=[b"m"])
    client = cluster.new_client()
    _load(cluster, client, "t", 300, prefix="a")
    _load(cluster, client, "t", 300, prefix="z")

    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme),
                         backfill="online")
    job = next(iter(cluster.ddl.jobs.values()))

    def writer():
        # Fresh-row inserts only: sync-insert leaves stale entries behind
        # on updates BY DESIGN (read-repaired lazily), which check_index
        # would flag — that is scheme behaviour, not a backfill bug.
        for i in range(150):
            yield from client.put("t", f"n{i:04d}".encode(), {"c": b"w"})

    writer_proc = cluster.spawn(writer(), name="writer")
    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    cluster.sim.run_until_complete(writer_proc)
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (scheme, report.missing, report.stale)
    assert len(actual_entries(cluster, cluster.index_descriptor("ix"))) \
        == 750


# ---------------------------------------------------------------------------
# Crash safety
# ---------------------------------------------------------------------------

def test_kill_server_during_backfill_still_completes_cleanly():
    cluster = MiniCluster(num_servers=3, seed=11).start()
    cluster.ddl.config = DdlConfig(chunk_cells=32, chunk_pause_ms=10.0)
    cluster.create_table("t", split_keys=[b"g", b"p"])
    client = cluster.new_client()
    _load(cluster, client, "t", 300, prefix="a")
    _load(cluster, client, "t", 300, prefix="h")

    cluster.create_index(IndexDescriptor("ix", "t", ("c",)),
                         backfill="online")
    job = next(iter(cluster.ddl.jobs.values()))

    def killer():
        while job.phase is not JobPhase.BACKFILL:
            yield Timeout(1.0)
        yield Timeout(15.0)
        victim = next(s.name for s in cluster.alive_servers() if s.regions)
        cluster.kill_server(victim)

    cluster.spawn(killer(), name="killer")
    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    assert job.error is None
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)


def test_manager_restart_resumes_from_persisted_cursors():
    cluster = MiniCluster(num_servers=2, seed=9).start()
    cluster.ddl.config = DdlConfig(chunk_cells=16)
    cluster.create_table("t")
    client = cluster.new_client()
    _load(cluster, client, "t", 400, prefix="k")

    cluster.create_index(IndexDescriptor("ix", "t", ("c",)),
                         backfill="online")
    stale_job = next(iter(cluster.ddl.jobs.values()))

    def until_mid_backfill():
        while (stale_job.phase is not JobPhase.BACKFILL
               or stale_job.chunks_done < 3):
            yield Timeout(1.0)

    cluster.run(until_mid_backfill())

    # "Master restart": a brand-new manager over the same durable catalog.
    cluster.ddl = DdlManager(cluster, config=DdlConfig(chunk_cells=16))
    resumed = cluster.ddl.resume_pending()
    assert [j.job_id for j in resumed] == [stale_job.job_id]
    job = resumed[0]
    assert job.phase is JobPhase.BACKFILL       # picked up mid-flight
    assert job.cursors                          # with persisted progress
    assert job.owner_token == stale_job.owner_token + 1

    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    cluster.advance(1000)
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)
    # The superseded runner hit the durable fence and stopped short of a
    # terminal phase — it never raced the new owner to completion.
    assert stale_job.phase is not JobPhase.ACTIVE
    assert cluster.ddl.catalog.load(job.job_id).owner_token \
        == job.owner_token


# ---------------------------------------------------------------------------
# ALTER ... SCHEME as an online scrub job; online DROP
# ---------------------------------------------------------------------------

def test_online_alter_scrubs_stale_entries_in_chunks():
    cluster = MiniCluster(num_servers=2, seed=5).start()
    cluster.ddl.config = DdlConfig(chunk_cells=64)
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_INSERT))
    client = cluster.new_client()
    _load(cluster, client, "t", 150, value=b"old")
    _load(cluster, client, "t", 150, value=b"new")   # updates -> stale entries
    assert not check_index(cluster, "ix").is_consistent  # lazy by design

    job = cluster.change_index_scheme("ix", IndexScheme.SYNC_FULL)
    assert job.scrub
    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    assert job.stale_deleted == 150
    assert cluster.metrics.total("ddl_scrub_deleted_total") == 150
    index = cluster.index_descriptor("ix")
    assert index.scheme is IndexScheme.SYNC_FULL
    assert not index.needs_read_repair
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)


def test_reads_stay_correct_during_alter_transition():
    cluster = MiniCluster(num_servers=2, seed=29).start()
    cluster.ddl.config = DdlConfig(chunk_cells=8, chunk_pause_ms=40.0)
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_INSERT))
    client = cluster.new_client()
    _load(cluster, client, "t", 120, value=b"old")
    _load(cluster, client, "t", 120, value=b"new")

    job = cluster.change_index_scheme("ix", IndexScheme.SYNC_FULL)

    def mid_scrub():
        while job.phase is not JobPhase.BACKFILL or job.chunks_done < 1:
            yield Timeout(0.5)

    cluster.run(mid_scrub())
    index = cluster.index_descriptor("ix")
    assert index.needs_read_repair          # TRANSITION keeps Algorithm 2
    # Mid-scrub, a query for the OLD value must return nothing: stale
    # entries still physically present are filtered by the double-check.
    hits = cluster.run(client.get_by_index("ix", equals=[b"old"]))
    assert hits == []
    hits = cluster.run(client.get_by_index("ix", equals=[b"new"]))
    assert len(hits) == 120

    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE


def test_alter_without_scrub_skips_backfill():
    cluster = MiniCluster(num_servers=2, seed=3).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_FULL))
    client = cluster.new_client()
    _load(cluster, client, "t", 40)
    job = cluster.change_index_scheme("ix", IndexScheme.ASYNC_SIMPLE)
    assert not job.scrub                   # sync-full leaves nothing stale
    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    assert job.chunks_done == 0
    assert cluster.index_descriptor("ix").scheme is IndexScheme.ASYNC_SIMPLE


def test_online_drop_persists_intent_then_drops():
    cluster = MiniCluster(num_servers=2, seed=7).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",)))
    client = cluster.new_client()
    _load(cluster, client, "t", 30)

    job = cluster.drop_index("ix", online=True)
    cluster.run(job.wait())
    assert job.phase is JobPhase.DONE
    with pytest.raises(NoSuchIndexError):
        cluster.index_descriptor("ix")
    # The DROPPING intent reached the catalog before the drop acted, and
    # the terminal record survives for post-mortems.
    assert cluster.ddl.catalog.load(job.job_id).phase is JobPhase.DONE


# ---------------------------------------------------------------------------
# Adaptive controller actuates through the online job
# ---------------------------------------------------------------------------

def test_adaptive_controller_returns_the_alter_job():
    from repro.core.adaptive import AdaptiveController
    from repro.core.schemes import ConsistencyLevel

    cluster = MiniCluster(num_servers=2, seed=19).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_FULL))
    client = cluster.new_client()
    _load(cluster, client, "t", 60)

    controller = AdaptiveController(cluster, "ix", ConsistencyLevel.EVENTUAL)
    for _ in range(200):
        controller.observe_update()
    decision = controller.evaluate()
    assert decision.acted and decision.recommended is IndexScheme.ASYNC_SIMPLE
    assert len(controller.jobs) == 1
    job = controller.jobs[0]
    # The switch is a job inside simulated time, not a free catalog swap.
    assert cluster.index_descriptor("ix").scheme is IndexScheme.SYNC_FULL
    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    assert cluster.index_descriptor("ix").scheme is IndexScheme.ASYNC_SIMPLE


def test_alter_of_a_local_index_raises_before_submitting_a_job():
    from repro.core.index import IndexScope

    cluster = MiniCluster(num_servers=2, seed=3).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("lx", "t", ("c",),
                                         scope=IndexScope.LOCAL))
    with pytest.raises(ValueError):
        cluster.change_index_scheme("lx", IndexScheme.ASYNC_SIMPLE)
    assert not cluster.ddl.jobs
    assert cluster.change_index_scheme("lx", IndexScheme.SYNC_FULL) is None


def _slow_put(scheme, old=None, compaction=None):
    """A 3-server cluster whose index ``ix`` (``scheme``, ``compaction``
    policy) lives off the base server of row r1, optionally holding r1 =
    ``old``; returns it, a client, and a put of r1 = new spawned behind a
    base log write slowed by 10 ms, so a DDL step or an index compaction
    can land while the put is in that write."""
    cluster = MiniCluster(num_servers=3, seed=7).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme),
                         compaction=compaction)
    client = cluster.new_client()
    if old is not None:
        cluster.run(client.put("t", b"r1", {"c": old}))
    base, _region = cluster.locate("t", b"r1")
    index_table = cluster.index_descriptor("ix").table_name
    assert base is not cluster.locate(index_table, b"")[0]
    write_cost = base.log_device.write_cost
    base.log_device.write_cost = lambda records: write_cost(records) + 10.0
    return cluster, client, cluster.spawn(client.put("t", b"r1",
                                                     {"c": b"new"}))


def test_alter_scrub_waits_for_a_put_whose_pi_landed_first():
    """A sync-insert PI ships beside its base log write, so an ALTER can
    find an entry whose base cell has not landed yet.  The scrub must not
    refute that put: it waits out every base write logged before it."""
    cluster, client, put = _slow_put(IndexScheme.SYNC_INSERT)
    cluster.advance(3.0)
    assert not put.future.done()
    assert check_index(cluster, "ix").stale      # entry in, base cell not

    job = cluster.change_index_scheme("ix", IndexScheme.SYNC_FULL)
    cluster.run(job.wait())
    assert put.future.done()
    assert job.stale_deleted == 0
    cluster.quiesce()
    assert check_index(cluster, "ix").is_consistent
    hits = cluster.run(client.get_by_index("ix", equals=[b"new"]))
    assert [h.rowkey for h in hits] == [b"r1"]


def test_alter_to_sync_insert_during_a_put_still_ships_its_pi():
    """An online ALTER from sync-full to sync-insert that lands while a
    put is in its base log write: the put started no PI beside that write
    (its index was sync-full then), and sync-insert's ``post_mutate`` does
    nothing, so the put must ship the PI before it acks."""
    cluster, client, put = _slow_put(IndexScheme.SYNC_FULL, old=b"old")
    cluster.advance(3.0)
    job = cluster.change_index_scheme("ix", IndexScheme.SYNC_INSERT)
    assert not job.scrub
    cluster.advance(0.1)
    assert cluster.index_descriptor("ix").scheme is IndexScheme.SYNC_INSERT
    assert not put.future.done()
    cluster.run(job.wait())
    cluster.advance(20.0)
    assert put.future.done()
    assert not check_index(cluster, "ix").missing
    hits = cluster.run(client.get_by_index("ix", equals=[b"new"]))
    assert [h.rowkey for h in hits] == [b"r1"]


def test_alter_scrub_removes_an_orphan_but_keeps_a_put_in_flight():
    """An ALTER scrub that starts while a sync-insert put's PI has landed
    and its base cell has not must keep that entry (r1), and still
    scrub one no put will ever back (r9: same ts, no row) and the
    entry r1's put supersedes."""
    cluster, client, put = _slow_put(IndexScheme.SYNC_INSERT, old=b"old")
    cluster.advance(3.0)
    assert not put.future.done()
    index = cluster.index_descriptor("ix")
    entries = actual_entries(cluster, index)
    ts = entries[encode_index_key([b"new"], b"r1")]    # landed first
    orphan = encode_index_key([b"new"], b"r9")
    server, _region = cluster.locate(index.table_name, orphan)
    cluster.run(server.handle_index_ops([("put", index.table_name, orphan,
                                          ts)]))
    assert len(check_index(cluster, "ix").stale) == 2
    job = cluster.change_index_scheme("ix", IndexScheme.SYNC_FULL)
    cluster.run(job.wait())
    assert put.future.done()
    assert job.stale_deleted == 2                     # r9 and r1's "old"
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)
    hits = cluster.run(client.get_by_index("ix", equals=[b"new"]))
    assert [h.rowkey for h in hits] == [b"r1"]


def test_validation_read_leaves_an_unsettled_entry_to_its_put():
    """A validation read that finds a sync-insert put's entry before its
    base cell (the PI ships beside the base log write) leaves the entry
    out of the answer but must not hand it to the cleaner: the put acks,
    and the cleaner would mask its entry for good."""
    cluster, client, put = _slow_put(IndexScheme.SYNC_INSERT)
    cluster.advance(3.0)
    job = cluster.change_index_scheme("ix", IndexScheme.VALIDATION)
    cluster.run(job.wait())
    hits = cluster.run(client.get_by_index("ix", equals=[b"new"]))
    assert hits == []                   # the entry is unsettled: filtered
    cluster.advance(100.0)
    assert put.future.done()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)
    hits = cluster.run(client.get_by_index("ix", equals=[b"new"]))
    assert [h.rowkey for h in hits] == [b"r1"]
