"""Unit tests for the write-ahead log (append, split, roll-forward, and
the replication ship's tail read)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import Cell, WriteAheadLog

REGIONS = ("regA", "regB", "regC")


def record(wal, region, key=b"k", ts=1, indexed=False):
    return wal.append(region, "t", (Cell(key, ts, b"v"),), indexed=indexed)


def tail(wal, region):
    """Every record of ``region`` still in the log, oldest first."""
    records, complete = wal.records_after(region, 0, 10 ** 9)
    assert complete
    return records


def test_append_assigns_increasing_seqnos():
    wal = WriteAheadLog()
    r1 = record(wal, "regA")
    r2 = record(wal, "regA")
    assert r2.seqno > r1.seqno
    assert len(wal) == 2


def test_records_after_filters_by_region():
    wal = WriteAheadLog()
    record(wal, "regA")
    record(wal, "regB")
    record(wal, "regA")
    assert len(tail(wal, "regA")) == 2
    assert len(tail(wal, "regB")) == 1
    assert wal.records_after("regC", 0, 5) == ([], True)


def test_records_after_cuts_at_watermark_and_limit():
    wal = WriteAheadLog()
    mine = [record(wal, "regA", key=b"a%d" % i) for i in range(5)]
    record(wal, "regB")
    assert wal.records_after("regA", mine[1].seqno, 2) == (mine[2:4], False)
    assert wal.records_after("regA", mine[1].seqno, 3) == (mine[2:], True)
    assert wal.records_after("regA", mine[-1].seqno, 1) == ([], True)


# One step of a random WAL history: a single append, a group commit
# across regions, or a roll-forward at the i-th cut of a region's tail.
wal_steps = st.lists(st.one_of(
    st.tuples(st.just("append"), st.sampled_from(REGIONS)),
    st.tuples(st.just("batch"),
              st.lists(st.sampled_from(REGIONS), min_size=1, max_size=4)),
    st.tuples(st.just("roll"), st.sampled_from(REGIONS),
              st.integers(0, 10)),
), max_size=25)


def _watermarks(seqnos):
    """Below the first seqno, at and just above each one (between two
    seqnos whenever the region's seqnos are not adjacent), and above the
    last."""
    if not seqnos:
        return [0, 1]
    return ([0, seqnos[0] - 1] + seqnos + [s + 1 for s in seqnos]
            + [seqnos[-1] + 1000])


def _assert_tail_reads_match_reference(wal):
    split = wal.split()
    for region in REGIONS:
        records = split.get(region, [])
        for w in _watermarks([r.seqno for r in records]):
            pending = len([r for r in records if r.seqno > w])
            for limit in (1, pending, pending + 1):
                expected = [r for r in records if r.seqno > w][:limit]
                assert wal.records_after(region, w, limit) == (
                    expected, pending <= limit), (region, w, limit)


@settings(max_examples=100, deadline=None)
@given(wal_steps)
def test_records_after_equals_filter_over_random_histories(steps):
    """The bisect-and-slice read answers exactly what the copy-and-filter
    it replaced did, and roll_forward's bisect cut drops exactly the
    records at or below the flush point, over random interleavings of
    appends, group commits and roll-forwards on three regions."""
    wal = WriteAheadLog()
    for step in steps:
        if step[0] == "append":
            record(wal, step[1])
        elif step[0] == "batch":
            wal.append_batch([(region, "t", (Cell(b"k", 1, b"v"),), False)
                              for region in step[1]])
        else:
            _, region, i = step
            before = wal.split().get(region, [])
            cuts = ([before[0].seqno - 1] + [r.seqno for r in before]
                    + [before[-1].seqno + 1]) if before else [0]
            cut = cuts[min(i, len(cuts) - 1)]
            dropped = wal.roll_forward(region, cut)
            assert dropped == len([r for r in before if r.seqno <= cut])
            assert wal.split().get(region, []) == [
                r for r in before if r.seqno > cut]
        _assert_tail_reads_match_reference(wal)
    assert len(wal) == sum(len(records) for records in wal.split().values())


def test_split_groups_by_region():
    wal = WriteAheadLog()
    record(wal, "regA")
    record(wal, "regB")
    split = wal.split()
    assert set(split) == {"regA", "regB"}


def test_roll_forward_drops_only_flushed_records():
    """The WAL roll after a flush must keep records newer than the
    flush point — they cover the new memtable (and its AUQ entries)."""
    wal = WriteAheadLog()
    r1 = record(wal, "regA")
    r2 = record(wal, "regA")
    r3 = record(wal, "regB")
    dropped = wal.roll_forward("regA", r1.seqno)
    assert dropped == 1
    remaining = [r.seqno for r in wal.records()]
    assert r1.seqno not in remaining
    assert r2.seqno in remaining
    assert r3.seqno in remaining


def test_roll_forward_other_region_untouched():
    wal = WriteAheadLog()
    record(wal, "regA")
    r_b = record(wal, "regB")
    wal.roll_forward("regA", 10 ** 9)
    assert tail(wal, "regB") == [r_b]


def test_max_seqno():
    wal = WriteAheadLog()
    assert wal.max_seqno("regA") == 0
    r = record(wal, "regA")
    assert wal.max_seqno("regA") == r.seqno


def test_indexed_flag_preserved():
    wal = WriteAheadLog()
    r = record(wal, "regA", indexed=True)
    assert wal.records()[0].indexed


def test_backing_map_is_shared():
    """The WAL writes through to the durable backing map (SimHDFS)."""
    backing = {}
    wal = WriteAheadLog(backing)
    record(wal, "regA")
    assert sum(len(records) for records in backing.values()) == 1
    wal.roll_forward("regA", 10 ** 9)
    assert not any(backing.values())


def test_reopen_from_nonempty_backing():
    """A recovered server re-opens the durable map: counters rebuild."""
    backing = {}
    wal = WriteAheadLog(backing)
    record(wal, "regA")
    record(wal, "regB")
    reopened = WriteAheadLog(backing)
    assert len(reopened) == 2
    assert reopened.approximate_bytes == wal.approximate_bytes
    assert [r.seqno for r in reopened.records()] == \
        [r.seqno for r in wal.records()]


def test_approximate_bytes_positive():
    wal = WriteAheadLog()
    r = record(wal, "regA")
    assert wal.approximate_bytes == r.approximate_bytes > 0
    wal.roll_forward("regA", r.seqno)
    assert wal.approximate_bytes == 0


def test_append_batch_per_record_seqnos():
    """Group commit amortises the device charge, not the records: every
    mutation in the batch keeps its own record and ascending seqno."""
    wal = WriteAheadLog()
    lone = record(wal, "regA")
    batch = wal.append_batch([
        ("regA", "t", (Cell(b"k1", 2, b"v"),), True),
        ("regB", "t", (Cell(b"k2", 2, b"v"),), False),
        ("regA", "t", (Cell(b"k3", 3, None),), True),
    ])
    assert len(wal) == 4
    seqnos = [r.seqno for r in batch]
    assert seqnos == sorted(seqnos) and seqnos[0] > lone.seqno
    assert [r.indexed for r in batch] == [True, False, True]
    assert len(tail(wal, "regA")) == 3
    assert wal.max_seqno("regA") == batch[2].seqno


def test_roll_forward_touches_only_own_region():
    """The per-region index: rolling one region's flush point must not
    visit (or disturb) the other regions' record lists — the O(total WAL)
    scan per flush is gone."""
    wal = WriteAheadLog()
    for i in range(5):
        record(wal, "busy", key=b"b%d" % i, ts=i + 1)
    mine = [record(wal, "mine", key=b"m%d" % i, ts=i + 1) for i in range(3)]
    # The other region's list object must be left untouched (same object,
    # same contents) by a roll_forward on "mine".
    busy_before = tail(wal, "busy")
    dropped = wal.roll_forward("mine", mine[1].seqno)
    assert dropped == 2
    assert tail(wal, "busy") == busy_before
    assert [r.seqno for r in tail(wal, "mine")] == [mine[2].seqno]
    assert len(wal) == 6
