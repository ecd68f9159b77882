"""Pluggable compaction policies + the index dead-entry purge
(DESIGN.md §14)."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.core.verify import actual_entries
from repro.lsm import Cell, LSMConfig, LSMTree
from repro.lsm.compaction import CompactionPolicy
from repro.lsm.policy import (LeveledPolicy, POLICY_LABELS, SizeTieredPolicy,
                              compaction_policy_from_label)


# -- policy units --------------------------------------------------------------

def _tables(tree, n, keys_per=4):
    for t in range(n):
        for k in range(keys_per):
            tree.add(Cell(f"k{k}".encode(), t * keys_per + k + 1, b"v"))
        handle = tree.prepare_flush()
        tree.complete_flush(handle)
    return tree


def test_size_tiered_matches_legacy_behaviour():
    legacy, tiered = CompactionPolicy(), SizeTieredPolicy()
    tree = _tables(LSMTree(config=LSMConfig()), 6)
    for done in range(3):
        assert (legacy.pick(tree._sstables, done)
                == tiered.pick(tree._sstables, done))
    assert SizeTieredPolicy.label == "size_tiered"


def test_leveled_noop_below_min_files():
    policy = LeveledPolicy(min_files=4)
    tree = _tables(LSMTree(config=LSMConfig()), 3)
    assert policy.pick(tree._sstables, 0) == ([], False)


def test_leveled_merges_everything_always_major():
    policy = LeveledPolicy(min_files=4)
    tree = _tables(LSMTree(config=LSMConfig()), 5)
    files, is_major = policy.pick(tree._sstables, 0)
    assert files == list(tree._sstables)
    assert is_major is True
    # ...regardless of the round counter (size-tiered is major 1-in-N).
    assert policy.pick(tree._sstables, 1)[1] is True


def test_registry_resolves_and_rejects():
    assert set(POLICY_LABELS) == {"size_tiered", "leveled"}
    assert isinstance(compaction_policy_from_label("leveled"), LeveledPolicy)
    assert isinstance(compaction_policy_from_label("size_tiered"),
                      SizeTieredPolicy)
    with pytest.raises(ValueError):
        compaction_policy_from_label("bogus")


# -- per-table threading -------------------------------------------------------

def test_create_table_threads_policy_to_regions():
    cluster = MiniCluster(num_servers=2, seed=4).start()
    cluster.create_table("t", compaction_policy="leveled")
    for server in cluster.servers.values():
        for region in server.regions.values():
            assert region.tree.config.compaction.label == "leveled"
    gauges = cluster.metrics.find("compaction_policy")
    assert any(dict(g.labels).get("policy") == "leveled" for g in gauges)


def test_create_table_rejects_unknown_policy():
    cluster = MiniCluster(num_servers=2, seed=4).start()
    with pytest.raises(ValueError):
        cluster.create_table("t", compaction_policy="bogus")


def test_index_inherits_and_overrides_policy():
    cluster = MiniCluster(num_servers=2, seed=4).start()
    cluster.create_table("t", compaction_policy="leveled")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_FULL))
    inherited = cluster.index_descriptor("ix")
    assert cluster.descriptor(
        inherited.table_name).storage.compaction.label == "leveled"

    cluster.create_table("u")          # size_tiered base...
    cluster.create_index(IndexDescriptor("uix", "u", ("c",),
                                         scheme=IndexScheme.SYNC_FULL),
                         compaction_policy="leveled")   # ...leveled index
    assert cluster.descriptor("u").storage.compaction.label == "size_tiered"
    overridden = cluster.index_descriptor("uix")
    assert cluster.descriptor(
        overridden.table_name).storage.compaction.label == "leveled"


# -- dead-entry purge ----------------------------------------------------------

def _churned_cluster(scheme, rounds=5):
    cluster = MiniCluster(num_servers=2, seed=6).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme),
                         compaction_policy="leveled")
    client = cluster.new_client()
    index = cluster.index_descriptor("ix")

    def one_round(r):
        for i in range(6):
            yield from client.put("t", f"r{i}".encode(),
                                  {"c": f"v{r}-{i}".encode()})

    for r in range(rounds):
        cluster.run(one_round(r), name=f"churn{r}")
        cluster.quiesce()
        for server in cluster.alive_servers():
            for region in list(server.regions.values()):
                if region.table.name == index.table_name:
                    cluster.run(server.flush_region(region))
    cluster.advance(10.0)      # settle everything past the ts-δ horizon
    return cluster, client, index


def _compact_index(cluster, index):
    for server in cluster.alive_servers():
        for region in list(server.regions.values()):
            if region.table.name == index.table_name:
                cluster.run(server.compact_region(region))


def test_major_compaction_purges_dead_entries():
    cluster, client, index = _churned_cluster(IndexScheme.VALIDATION)
    stale_before = len(check_index(cluster, "ix").stale)
    assert stale_before > 0
    _compact_index(cluster, index)
    purged = cluster.metrics.total("compaction_dead_entries_purged_total")
    assert purged > 0
    assert len(check_index(cluster, "ix").stale) < stale_before
    # Live entries survive: every final-round value still answers.
    for i in range(6):
        got = sorted(h.rowkey for h in cluster.run(
            client.get_by_index("ix", equals=[f"v4-{i}".encode()])))
        assert got == [f"r{i}".encode()]


def test_purge_applies_to_sync_insert_too():
    cluster, _client, index = _churned_cluster(IndexScheme.SYNC_INSERT)
    _compact_index(cluster, index)
    assert cluster.metrics.total("compaction_dead_entries_purged_total") > 0


def test_no_purge_for_eager_schemes():
    """sync-full leaves no dead entries, and the filter is not even built
    for non-lazy schemes."""
    cluster, _client, index = _churned_cluster(IndexScheme.SYNC_FULL)
    _compact_index(cluster, index)
    assert cluster.metrics.total("compaction_dead_entries_purged_total") == 0
    assert check_index(cluster, "ix").is_consistent


def test_purge_settles_staleness_debt():
    cluster, client, index = _churned_cluster(IndexScheme.VALIDATION)
    # Discover some staleness so there is debt on the books.
    cluster.run(client.get_by_index("ix", equals=[b"v0-0"]))
    assert cluster.staleness.stale_debt > 0
    _compact_index(cluster, index)
    cluster.quiesce()
    assert cluster.staleness.stale_debt == 0


def test_minor_compaction_never_purges():
    """Non-major rounds must keep dead entries even when a filter exists
    (without full visibility, an entry's newer sibling could live in an
    unmerged file).  Forced at the tree level: a partial size-tiered pick
    with a kill-everything filter drops nothing."""
    config = LSMConfig(compaction=CompactionPolicy(min_files=2, max_files=2,
                                                   major_every=100))
    tree = _tables(LSMTree(config=config), 3)
    result = tree.compact(dead_entry_filter=lambda cell: True)
    assert result is not None
    assert result.dropped_dead_entries == 0
    assert result.cells_written > 0


def test_major_compaction_applies_filter_at_tree_level():
    config = LSMConfig(compaction=LeveledPolicy(min_files=2))
    tree = _tables(LSMTree(config=config), 3)
    result = tree.compact(dead_entry_filter=lambda cell: cell.key == b"k0")
    assert result.dropped_dead_entries > 0
    assert tree.get(b"k0") is None
    assert tree.get(b"k1") is not None
