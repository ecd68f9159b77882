"""Unit tests for the segmented-LRU block cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import BlockCache
from repro.lsm.cache import PROTECTED_SHARE


def test_miss_then_hit():
    cache = BlockCache(1000)
    assert cache.access(("t", 1), 100) is False
    assert cache.access(("t", 1), 100) is True
    assert cache.hits == 1 and cache.misses == 1


def test_eviction_is_lru():
    cache = BlockCache(300)
    cache.access(("a",), 100)
    cache.access(("b",), 100)
    cache.access(("c",), 100)
    cache.access(("a",), 100)     # refresh a
    cache.access(("d",), 100)     # evicts b (least recently used)
    assert cache.access(("a",), 100) is True
    assert cache.access(("b",), 100) is False
    assert cache.evictions >= 1


def test_capacity_respected():
    cache = BlockCache(250)
    for i in range(10):
        cache.access(("blk", i), 100)
    assert cache.used_bytes <= 250
    assert len(cache) <= 2


def test_oversized_block_never_cached():
    cache = BlockCache(100)
    assert cache.access(("huge",), 500) is False
    assert cache.access(("huge",), 500) is False  # still a miss
    assert cache.used_bytes == 0


def test_invalidate_sstable_drops_only_its_blocks():
    cache = BlockCache(10_000)
    cache.access((1, 0), 100)
    cache.access((1, 1), 100)
    cache.access((2, 0), 100)
    cache.invalidate_sstable(1)
    assert cache.access((2, 0), 100) is True
    assert cache.access((1, 0), 100) is False


def test_hit_rate():
    cache = BlockCache(1000)
    cache.access(("x",), 10)
    cache.access(("x",), 10)
    cache.access(("x",), 10)
    assert abs(cache.hit_rate() - 2 / 3) < 1e-9


def test_zero_capacity_caches_nothing():
    cache = BlockCache(0)
    assert cache.access(("x",), 1) is False
    assert cache.access(("x",), 1) is False


def test_negative_capacity_rejected():
    import pytest
    with pytest.raises(ValueError):
        BlockCache(-1)


def test_block_read_twice_survives_a_one_shot_sweep():
    """An index range scan reads each block once; the sweep cycles
    through probation and leaves the twice-read block resident."""
    cache = BlockCache(1000)
    cache.access(("hot",), 100)
    cache.access(("hot",), 100)
    for i in range(100):                 # 10x capacity, each block once
        cache.access(("scan", i), 100)
    assert cache.access(("hot",), 100) is True


def test_second_access_promotes():
    cache = BlockCache(400)
    cache.access("a", 100)
    cache.access("b", 100)
    assert cache.block_ids() == ["a", "b"]
    cache.access("a", 100)
    assert cache.block_ids() == ["b", "a"]    # b on probation, a protected
    for blk in "cdef":                        # newer, but read only once
        cache.access(blk, 100)
    assert cache.access("a", 100) is True
    assert cache.access("b", 100) is False


def test_protected_overflow_is_demoted_to_probation_mru():
    cache = BlockCache(500)                   # protected cap: 375 bytes
    for blk in "abc":
        cache.access(blk, 125)
        cache.access(blk, 125)                # exactly at the cap: no demotion
    cache.access("e", 100)
    assert cache.block_ids() == ["e", "a", "b", "c"]
    cache.access("d", 25)
    cache.access("d", 25)                     # over the cap: a is demoted
    cache.access("f", 100)                    # evicts e, the older probationer
    assert cache.block_ids() == ["a", "f", "b", "c", "d"]
    assert cache.evictions == 1


def test_invalidate_sstable_clears_both_segments():
    cache = BlockCache(400)                   # protected cap: 300 bytes
    for block in ((1, 0), (1, 1), (2, 0), (2, 1)):
        cache.access(block, 100)
    cache.access((1, 0), 100)                 # protected
    cache.access((2, 0), 100)                 # protected
    cache.invalidate_sstable(1)
    assert cache.block_ids() == [(2, 1), (2, 0)]
    assert cache.used_bytes == 200 and len(cache) == 2
    # The protected bytes were released too: filling the segment to its
    # cap again demotes nothing.
    cache.access((3, 0), 100)
    cache.access((3, 1), 100)
    cache.access((2, 1), 100)
    cache.access((3, 0), 100)
    cache.access((4, 0), 100)                 # evicts (3, 1) alone
    assert cache.block_ids() == [(4, 0), (2, 0), (2, 1), (3, 0)]


def test_victims_come_from_protected_only_when_probation_is_empty():
    cache = BlockCache(400)                   # protected cap: 300 bytes
    for blk in "abc":
        cache.access(blk, 100)
        cache.access(blk, 100)                # all three protected
    cache.access("d", 200)                    # probation empty: a goes
    assert cache.block_ids() == ["d", "b", "c"]
    cache.access("d", 200)                    # over the cap: b is demoted
    cache.access("e", 100)                    # evicts b from probation
    assert cache.block_ids() == ["e", "c", "d"]
    assert cache.evictions == 2


class _ReferenceSLRU:
    """The policy spelled out over two lists of (id, bytes), LRU first."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.probation = []
        self.protected = []
        self.evictions = 0

    @staticmethod
    def _find(segment, block_id):
        return next((entry for entry in segment if entry[0] == block_id),
                    None)

    def used(self, segment=None):
        segments = (segment,) if segment is not None \
            else (self.probation, self.protected)
        return sum(size for seg in segments for _bid, size in seg)

    def block_ids(self):
        return [bid for bid, _size in self.probation + self.protected]

    def access(self, block_id, size):
        entry = self._find(self.protected, block_id)
        if entry is not None:
            self.protected.remove(entry)
            self.protected.append(entry)
            return True
        entry = self._find(self.probation, block_id)
        if entry is not None:
            self.probation.remove(entry)
            self.protected.append(entry)
            while self.used(self.protected) > \
                    self.capacity * PROTECTED_SHARE:
                self.probation.append(self.protected.pop(0))
            return True
        if size <= self.capacity:
            while self.used() + size > self.capacity:
                (self.probation or self.protected).pop(0)
                self.evictions += 1
            self.probation.append((block_id, size))
        return False

    def invalidate(self, sstable_id):
        self.probation = [e for e in self.probation if e[0][0] != sstable_id]
        self.protected = [e for e in self.protected if e[0][0] != sstable_id]


_SIZES = (40, 100, 250, 700)
_op = st.one_of(
    st.tuples(st.just("access"), st.integers(0, 3), st.integers(0, 5)),
    st.tuples(st.just("invalidate"), st.integers(0, 3), st.just(0)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 300, 400, 1000, 2500]), st.lists(_op, max_size=120))
def test_matches_reference_model(capacity, ops):
    cache = BlockCache(capacity)
    model = _ReferenceSLRU(capacity)
    accesses = 0
    # A closing sweep of one-shot blocks flushes probation, so which
    # blocks sit in the protected segment shows in the resident order.
    sweep = [("access", 4 + i // 8, i % 8) for i in range(24)]
    for kind, sstable_id, block in ops + sweep:
        if kind == "invalidate":
            cache.invalidate_sstable(sstable_id)
            model.invalidate(sstable_id)
        else:
            block_id = BlockCache.block_id(sstable_id, block)
            size = _SIZES[(sstable_id + block) % len(_SIZES)]
            resident = block_id in cache.block_ids()
            hit = cache.access(block_id, size)
            accesses += 1
            assert hit == resident == model.access(block_id, size)
        assert cache.block_ids() == model.block_ids()
        assert cache.used_bytes == model.used() <= capacity
        assert len(cache) == len(model.block_ids())
    assert cache.hits + cache.misses == accesses
    assert cache.evictions == model.evictions
    assert cache.hit_rate() == (cache.hits / accesses if accesses else 0.0)
