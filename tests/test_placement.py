"""repro.placement: auto-splits, live migration, balancer, crash safety.

DESIGN.md §10 invariants under test:

* no key range is ever unowned or doubly-owned (layout contiguity);
* splits and moves are invisible to clients beyond retried routes;
* a split job crashed at any point resumes from its durable record;
* index timestamp discipline is unaffected by placement churn.
"""

import pytest

from repro import (FaultPlan, IndexDescriptor, IndexScheme, IndexScope,
                   KeyRange, MiniCluster, PlacementConfig, check_index)
from repro.errors import NoSuchRegionError
from repro.placement.jobs import SplitCatalog, SplitJob, SplitPhase
from repro.sim.random import RandomStream
from repro.ycsb.distributions import Zipfian
from repro.ycsb.stats import LatencyRecorder


def assert_layout_contiguous(cluster):
    """Every table covers b'' .. None with no gap or overlap, and every
    region is hosted by a live server that actually has it open."""
    for table, infos in cluster.master.layout.items():
        infos = sorted(infos, key=lambda i: i.key_range.start)
        assert infos[0].key_range.start == b"", table
        assert infos[-1].key_range.end is None, table
        for a, b in zip(infos, infos[1:]):
            assert a.key_range.end == b.key_range.start, (table, a, b)
        for info in infos:
            server = cluster.servers[info.server_name]
            assert server.alive, (table, info)
            assert info.region_name in server.regions, (table, info)


def build(num_servers=3, placement=None, **kwargs):
    cluster = MiniCluster(num_servers=num_servers, placement=placement,
                          **kwargs).start()
    cluster.create_table("t", flush_threshold_bytes=2048)
    return cluster, cluster.new_client()


def load_rows(cluster, client, n, prefix="row", pad=48):
    def driver():
        for i in range(n):
            yield from client.put("t", f"{prefix}{i:05d}".encode(),
                                  {"v": f"val{i % 7}".encode(),
                                   "pad": b"x" * pad})
    cluster.run(driver())


def all_rows(cluster, client):
    cells = cluster.run(client.scan_table("t", KeyRange()))
    return sorted({c.key.split(b"\x00")[0] for c in cells})


# -- manual splits ----------------------------------------------------------


def test_manual_split_preserves_data_and_layout():
    cluster, client = build()
    load_rows(cluster, client, 60)
    before = all_rows(cluster, client)
    [info] = cluster.master.layout["t"]

    job = cluster.placement.request_split("t", info.region_name)
    done = cluster.run(job.wait())
    assert done.phase is SplitPhase.DONE
    assert cluster.master.region_info("t", info.region_name) is None
    left = cluster.master.region_info("t", job.left_region)
    right = cluster.master.region_info("t", job.right_region)
    assert left and right
    assert left.key_range.end == right.key_range.start == job.split_key
    assert_layout_contiguous(cluster)

    # A stale client (layout cached pre-split) still reads everything.
    assert all_rows(cluster, client) == before
    got = cluster.run(client.get("t", before[10]))
    assert got["v"][0].startswith(b"val")


def test_split_key_must_be_interior():
    cluster, client = build()
    load_rows(cluster, client, 10)
    [info] = cluster.master.layout["t"]
    with pytest.raises(ValueError):
        cluster.placement.request_split("t", info.region_name, b"")
    with pytest.raises(NoSuchRegionError):
        cluster.placement.request_split("t", "t,r9999")


def test_split_rejects_second_job_on_same_region():
    cluster, client = build()
    load_rows(cluster, client, 40)
    [info] = cluster.master.layout["t"]
    job = cluster.placement.request_split("t", info.region_name)
    with pytest.raises(NoSuchRegionError):
        cluster.placement.request_split("t", info.region_name)
    cluster.run(job.wait())


def test_split_writes_continue_through_retry():
    """Writes issued while the parent is closing are retried onto the
    daughters — no client-visible errors."""
    cluster, client = build()
    load_rows(cluster, client, 80)
    [info] = cluster.master.layout["t"]
    job = cluster.placement.request_split("t", info.region_name)

    def concurrent_writes():
        for i in range(40):
            yield from client.put("t", f"mid{i:04d}".encode(),
                                  {"v": b"during-split"})
    cluster.run(concurrent_writes())
    done = cluster.run(job.wait())
    assert done.phase is SplitPhase.DONE
    rows = all_rows(cluster, client)
    assert len([r for r in rows if r.startswith(b"mid")]) == 40


def test_local_index_tables_never_auto_split():
    cfg = PlacementConfig(max_region_bytes=1024)
    cluster, client = build(placement=cfg)
    cluster.create_index(IndexDescriptor(
        "loc", "t", ("v",), scheme=IndexScheme.SYNC_FULL,
        scope=IndexScope.LOCAL))
    load_rows(cluster, client, 200)
    cluster.advance(5000)
    assert len(cluster.master.layout["t"]) == 1
    assert cluster.placement.obs_splits.value == 0


# -- auto-split + balancer --------------------------------------------------


def test_autosplit_spreads_singleregion_table():
    """Acceptance: zipfian-ish load on an initially single-region table
    ends with >= 3 regions spread over >= 2 servers, no client errors."""
    cfg = PlacementConfig(max_region_bytes=6 * 1024, balancer_enabled=True,
                          balancer_interval_ms=200.0, qps_weight=0.05)
    cluster, client = build(num_servers=4, placement=cfg)
    cluster.create_index(IndexDescriptor("ix", "t", ("v",),
                                         scheme=IndexScheme.ASYNC_SIMPLE))
    load_rows(cluster, client, 300)
    cluster.advance(5000)
    cluster.quiesce()

    layout = cluster.master.layout["t"]
    assert len(layout) >= 3
    assert len({info.server_name for info in layout}) >= 2
    assert_layout_contiguous(cluster)
    assert len(all_rows(cluster, client)) == 300
    assert check_index(cluster, "ix").is_consistent


def test_balancer_buys_back_hot_range_read_p95():
    """Zipfian hot-range load (80% read / 20% update) on a table that
    starts as ONE region, from more closed-loop workers than one server
    has handler slots.  Auto-split is on in both runs, but without the
    balancer every daughter stays on the original server and the whole
    hot range funnels through one handler pool and disk; with it the
    daughters spread and the read p95 comes back."""
    def run(balancer_enabled, rows=300, workers=16):
        cfg = PlacementConfig(max_region_bytes=8 * 1024,
                              balancer_enabled=balancer_enabled,
                              balancer_interval_ms=200.0, qps_weight=0.05)
        cluster, client = build(num_servers=4, placement=cfg)
        load_rows(cluster, client, rows)
        zipf = Zipfian(rows)
        measure_from = cluster.sim.now() + 60.0     # warm-up: splits, moves
        end_at = measure_from + 150.0
        reads = LatencyRecorder()
        cluster.sim.call_at(measure_from, reads.begin_window, measure_from)

        def worker(wid):
            rng = cluster.seeds.stream(f"hot-range-worker/{wid}")
            while cluster.sim.now() < end_at:
                row = f"row{zipf.next_index(rng):05d}".encode()
                if rng.random() < 0.8:
                    start = cluster.sim.now()
                    yield from client.get("t", row)
                    reads.record("read", cluster.sim.now() - start)
                else:
                    yield from client.put("t", row, {"v": b"hot"})

        for proc in [cluster.spawn(worker(w)) for w in range(workers)]:
            cluster.sim.run_until_complete(proc)
        return reads.stats("read").p95_ms, cluster.placement

    unbalanced_p95, unbalanced = run(balancer_enabled=False)
    balanced_p95, balanced = run(balancer_enabled=True)
    assert unbalanced.obs_splits.value >= 2 and unbalanced.obs_moves.value == 0
    assert balanced.obs_splits.value >= 2 and balanced.obs_moves.value >= 1
    assert balanced_p95 <= unbalanced_p95, (balanced_p95, unbalanced_p95)


def test_balance_once_moves_hot_server_regions():
    cluster, client = build(num_servers=3)
    # Pre-split everything onto rs1 by hand: 6 regions on one server.
    splits = [f"row{i:05d}".encode() for i in (10, 20, 30, 40, 50)]
    cluster.master.drop_table("t")
    cluster.create_table("t", split_keys=splits)
    for info in list(cluster.master.layout["t"]):
        if info.server_name != "rs1":
            moved = cluster.run(cluster.placement.move_region(
                "t", info.region_name, "rs1"))
            assert moved
    load_rows(cluster, client, 60)

    counts = lambda: {s: len(cluster.master.regions_on(s))
                      for s in cluster.servers}
    assert counts()["rs1"] == 6
    total_moves = 0
    for _ in range(6):
        total_moves += cluster.run(cluster.placement.balance_once())
    spread = counts()
    assert total_moves >= 2
    assert max(spread.values()) - min(spread.values()) <= 2
    assert_layout_contiguous(cluster)
    assert len(all_rows(cluster, client)) == 60


def test_move_region_keeps_name_and_data():
    cluster, client = build()
    load_rows(cluster, client, 30)
    [info] = cluster.master.layout["t"]
    target = next(n for n in cluster.servers if n != info.server_name)
    moved = cluster.run(cluster.placement.move_region(
        "t", info.region_name, target))
    assert moved
    now = cluster.master.region_info("t", info.region_name)
    assert now.server_name == target
    assert info.region_name in cluster.servers[target].regions
    assert len(all_rows(cluster, client)) == 30


def test_move_to_dead_target_falls_back_to_source():
    cluster, client = build()
    load_rows(cluster, client, 30)
    [info] = cluster.master.layout["t"]
    source = info.server_name
    target = next(n for n in cluster.servers if n != source)
    cluster.kill_server(target)
    moved = cluster.run(cluster.placement.move_region(
        "t", info.region_name, target))
    assert not moved
    assert cluster.master.region_info("t", info.region_name).server_name \
        == source
    region = cluster.servers[source].regions[info.region_name]
    assert not region.closing
    assert len(all_rows(cluster, client)) == 30


# -- crash safety -----------------------------------------------------------


def wait_for_recovery(cluster, victim):
    while victim not in cluster.coordinator.recoveries_completed:
        cluster.advance(200.0)


@pytest.mark.parametrize("scheme", list(IndexScheme))
def test_kill_server_during_inflight_split_recovers(scheme):
    """Acceptance: kill_server() during an in-flight split recovers to a
    consistent index for every scheme."""
    cluster = MiniCluster(num_servers=3, placement=PlacementConfig()).start()
    cluster.create_table("t", flush_threshold_bytes=2048)
    cluster.create_index(IndexDescriptor("ix", "t", ("v",), scheme=scheme))
    client = cluster.new_client()
    load_rows(cluster, client, 80)

    [info] = cluster.master.layout["t"]
    victim = info.server_name
    job = cluster.placement.request_split("t", info.region_name)
    # Let the close start, then yank the server out from under it.
    cluster.advance(1.0)
    cluster.kill_server(victim)
    wait_for_recovery(cluster, victim)
    done = cluster.run(job.wait())
    assert done.phase is SplitPhase.DONE
    assert_layout_contiguous(cluster)
    cluster.quiesce()
    report = check_index(cluster, "ix")
    if scheme is IndexScheme.SYNC_INSERT:
        assert not report.missing, report
    else:
        assert report.is_consistent, report
    assert len(all_rows(cluster, client)) == 80


def test_resume_pending_finishes_job_after_master_restart():
    """A split job whose runner is gone (simulated master crash) finishes
    after resume_pending(), and the superseded runner is fenced off."""
    cluster, client = build()
    load_rows(cluster, client, 60)
    [info] = cluster.master.layout["t"]

    # Persist a job record as a crashed master would have left it: intent
    # saved, no runner alive.
    master = cluster.master
    split_key = cluster.servers[info.server_name] \
        .regions[info.region_name].split_point()
    job = SplitJob(job_id="split9001", table="t",
                   parent_region=info.region_name,
                   split_key_hex=split_key.hex(),
                   left_region=master.new_region_name("t"),
                   right_region=master.new_region_name("t"))
    cluster.placement.catalog.save(job)

    resumed = cluster.placement.resume_pending()
    assert [j.job_id for j in resumed] == ["split9001"]
    assert resumed[0].owner_token == job.owner_token + 1
    done = cluster.run(resumed[0].wait())
    assert done.phase is SplitPhase.DONE
    assert_layout_contiguous(cluster)
    assert len(all_rows(cluster, client)) == 60


def test_split_catalog_roundtrip():
    cluster, _client = build()
    catalog = SplitCatalog(cluster.hdfs)
    job = SplitJob(job_id="s1", table="t", parent_region="t,r0001",
                   split_key_hex=b"m".hex(), left_region="t,r0002",
                   right_region="t,r0003", owner_token=3, attempts=2)
    catalog.save(job)
    back = catalog.load("s1")
    assert back == job
    assert back.split_key == b"m"
    assert not back.is_terminal
    catalog.delete("s1")
    assert catalog.load_all() == []


# -- DDL interplay ----------------------------------------------------------


def test_online_backfill_survives_concurrent_split():
    """An online CREATE INDEX whose base table splits mid-backfill still
    converges: cursors are handed to the daughters."""
    cluster, client = build()
    load_rows(cluster, client, 120)
    [info] = cluster.master.layout["t"]
    ddl_job = cluster.create_index_online(IndexDescriptor(
        "ix", "t", ("v",), scheme=IndexScheme.SYNC_FULL))
    cluster.advance(5.0)  # let a chunk or two land
    split = cluster.placement.request_split("t", info.region_name)
    assert cluster.run(split.wait()).phase is SplitPhase.DONE
    cluster.run(ddl_job.wait())
    cluster.quiesce()
    assert check_index(cluster, "ix").is_consistent


def test_ddl_cursor_inheritance_on_split():
    """Unit-level: a mid-region cursor lands on exactly the right daughter,
    done parents mark both daughters done."""
    from repro.cluster.master import RegionInfo
    from repro.ddl.jobs import DdlJob, JobKind
    cluster, _client = build()
    ddl = cluster.ddl
    job = DdlJob(job_id="j1", kind=JobKind.CREATE, index_name="ix",
                 base_table="t", index_table="ix_t")
    job.set_region_cursor("t,r0001", b"row00050")
    ddl.jobs["j1"] = job
    done_job = DdlJob(job_id="j2", kind=JobKind.CREATE, index_name="ix",
                      base_table="t", index_table="ix_t")
    done_job.mark_region_done("t,r0001")
    ddl.jobs["j2"] = done_job

    daughters = [
        RegionInfo("t,r0010", "t", KeyRange(b"", b"row00030"), "rs1"),
        RegionInfo("t,r0011", "t", KeyRange(b"row00030", None), "rs1"),
    ]
    ddl.on_region_split("t", "t,r0001", daughters)

    # jobA: left daughter fully covered (cursor past its end) -> done;
    # right daughter resumes from the cursor.
    assert job.region_done("t,r0010")
    assert job.region_cursor("t,r0011") == b"row00050"
    assert "t,r0001" not in job.cursors
    # jobB: both daughters done.
    assert done_job.region_done("t,r0010")
    assert done_job.region_done("t,r0011")


# -- fault-plan API ---------------------------------------------------------


def test_fault_plan_set_probability_and_disable():
    plan = FaultPlan(0.5, rng=RandomStream(7))
    assert any(plan.should_fail() for _ in range(50))
    plan.disable()
    assert plan.fail_probability == 0.0
    assert not any(plan.should_fail() for _ in range(50))
    plan.set_probability(1.0)
    assert plan.should_fail()
    with pytest.raises(ValueError):
        plan.set_probability(1.5)
    with pytest.raises(ValueError):
        plan.set_probability(-0.1)


# -- routing epoch ----------------------------------------------------------


def test_routing_epoch_bumps_on_layout_changes():
    cluster, client = build()
    epoch0 = cluster.master.routing_epoch
    assert client.layout_epoch <= epoch0
    load_rows(cluster, client, 40)
    [info] = cluster.master.layout["t"]
    job = cluster.placement.request_split("t", info.region_name)
    cluster.run(job.wait())
    assert cluster.master.routing_epoch > epoch0
    assert client.layout_epoch < cluster.master.routing_epoch
    client.refresh_layout()
    assert client.layout_epoch == cluster.master.routing_epoch
