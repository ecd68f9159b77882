"""Unit tests for queueing primitives (Resource, GroupCommitLog,
AsyncQueue, Gate, Latch)."""

import pytest

from repro.errors import SimulationError
from repro.sim import (AsyncQueue, Gate, LatencyModel, Latch, RandomStream,
                       Resource, Simulator, Timeout, use)
from repro.sim.resources import GroupCommitLog


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    f1, f2, f3 = resource.acquire(), resource.acquire(), resource.acquire()
    assert f1.done() and f2.done()
    assert not f3.done()
    resource.release()
    assert f3.done()


def test_resource_release_without_acquire():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_queueing_serialises_service():
    """Two jobs on a capacity-1 device: second waits for the first."""
    sim = Simulator()
    disk = Resource(sim, capacity=1)
    finish_times = []

    def job(service):
        yield from use(disk, service)
        finish_times.append(sim.now())

    sim.spawn(job(10))
    sim.spawn(job(10))
    sim.run()
    assert finish_times == [10.0, 20.0]


def test_resource_parallel_when_capacity_allows():
    sim = Simulator()
    disk = Resource(sim, capacity=2)
    finish_times = []

    def job():
        yield from use(disk, 10)
        finish_times.append(sim.now())

    sim.spawn(job())
    sim.spawn(job())
    sim.run()
    assert finish_times == [10.0, 10.0]


def test_resource_utilisation_tracking():
    sim = Simulator()
    disk = Resource(sim, capacity=1)

    def job():
        yield from use(disk, 5)

    sim.spawn(job())
    sim.run()
    sim.run(until=10)
    assert disk.utilisation() == pytest.approx(0.5)


def test_resource_fifo_order():
    sim = Simulator()
    device = Resource(sim, capacity=1)
    order = []

    def job(name):
        yield from use(device, 1)
        order.append(name)

    for name in "abc":
        sim.spawn(job(name))
    sim.run()
    assert order == ["a", "b", "c"]


MODEL = LatencyModel()
cost = MODEL.wal_group_append


def run_writers(writers):
    """Run ``(name, arrival, records)`` writers against one log; return
    each writer's finish time and the record total of every device write."""
    sim = Simulator()
    writes = []
    log = GroupCommitLog(sim, cost, writes.append)
    finished = {}

    def writer(name, arrival, records):
        yield Timeout(arrival)
        yield log.sync(records)
        finished[name] = sim.now()

    for name, arrival, records in writers:
        sim.spawn(writer(name, arrival, records))
    sim.run()
    return finished, writes


def test_group_commit_lone_sync_costs_one_append():
    """An idle log starts the write at once: the old 1-slot timing."""
    finished, writes = run_writers([("a", 5.0, 3)])
    assert finished == {"a": 5.0 + cost(3)}
    assert writes == [3]


def test_group_commit_batches_writers_behind_the_write_in_flight():
    end = cost(2)
    finished, writes = run_writers([("a", 0.0, 2), ("b", 0.1, 1),
                                    ("c", 0.2, 2), ("d", 0.3, 3)])
    assert finished["a"] == end
    assert {finished[name] for name in "bcd"} == {end + cost(6)}
    assert writes == [2, 6]


def test_group_commit_writer_during_second_batch_goes_into_the_third():
    first = cost(1)
    second = first + cost(2)
    finished, writes = run_writers([("a", 0.0, 1), ("b", 0.1, 2),
                                    ("c", first + 0.1, 4)])
    assert finished == {"a": first, "b": second, "c": second + cost(4)}
    assert writes == [1, 2, 4]


def test_group_commit_log_is_idle_after_the_last_batch():
    last = cost(1) + cost(1)
    finished, writes = run_writers([("a", 0.0, 1), ("b", 0.1, 1),
                                    ("c", last + 1.0, 5)])
    assert finished["b"] == last
    assert finished["c"] == last + 1.0 + cost(5)
    assert writes == [1, 1, 5]


def test_group_commit_barrier_waits_for_every_sync_asked_for():
    """A barrier adds no write: it resolves with the last batch pending
    when it was taken, after that batch's writers resumed, and at once
    on an idle log."""
    sim = Simulator()
    writes, order = [], []
    log = GroupCommitLog(sim, cost, writes.append)
    assert log.barrier().done()

    def writer(name, records):
        yield log.sync(records)
        order.append((name, sim.now()))

    def barrier():
        yield Timeout(0.1)
        yield log.barrier()
        order.append(("barrier", sim.now()))

    sim.spawn(writer("a", 1))
    sim.spawn(barrier())
    sim.run()
    assert order == [("a", cost(1)), ("barrier", cost(1))]
    sim.spawn(writer("b", 1))
    sim.spawn(writer("c", 2))       # joins the batch after b's
    sim.spawn(barrier())
    sim.run()
    end = cost(1) + cost(1) + cost(2)
    assert order[2:] == [("b", cost(1) + cost(1)), ("c", end),
                         ("barrier", end)]
    assert writes == [1, 1, 2]
    assert log.barrier().done()


def test_group_commit_same_seed_runs_are_identical():
    def writers(seed):
        rng = RandomStream(seed)
        return [(i, rng.uniform(0.0, 5.0), rng.randint(1, 4))
                for i in range(40)]

    first = run_writers(writers(9))
    assert first == run_writers(writers(9))
    # The random arrivals really did overlap into shared writes.
    assert len(first[1]) < 40 and sum(first[1]) == sum(
        records for _i, _at, records in writers(9))


def test_queue_put_then_get():
    sim = Simulator()
    queue = AsyncQueue(sim)
    queue.put("x")
    future = queue.get()
    assert future.done() and future.result() == "x"


def test_queue_get_blocks_until_put():
    sim = Simulator()
    queue = AsyncQueue(sim)
    got = []

    def consumer():
        item = yield queue.get()
        got.append((item, sim.now()))

    def producer():
        yield Timeout(7)
        queue.put("y")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got == [("y", 7.0)]


def test_queue_fifo():
    sim = Simulator()
    queue = AsyncQueue(sim)
    for item in [1, 2, 3]:
        queue.put(item)
    assert [queue.get().result() for _ in range(3)] == [1, 2, 3]


def test_queue_wait_empty():
    sim = Simulator()
    queue = AsyncQueue(sim)
    queue.put("a")
    waited = []

    def drainer():
        yield Timeout(5)
        item = yield queue.get()
        assert item == "a"

    def watcher():
        yield queue.wait_empty()
        waited.append(sim.now())

    sim.spawn(drainer())
    sim.spawn(watcher())
    sim.run()
    assert waited == [5.0]


def test_queue_wait_empty_immediate_when_empty():
    sim = Simulator()
    queue = AsyncQueue(sim)
    assert queue.wait_empty().done()


def test_queue_tracks_max_length():
    sim = Simulator()
    queue = AsyncQueue(sim)
    for i in range(5):
        queue.put(i)
    queue.get()
    assert queue.max_length == 5
    assert queue.total_enqueued == 5


def test_gate_blocks_while_closed():
    sim = Simulator()
    gate = Gate(sim)
    passed = []

    def walker():
        yield gate.wait_open()
        passed.append(sim.now())

    gate.close()
    sim.spawn(walker())
    sim.run()
    assert passed == []

    def opener():
        yield Timeout(4)
        gate.open()

    sim.spawn(opener())
    sim.run()
    assert passed == [4.0]


def test_gate_open_passes_immediately():
    sim = Simulator()
    gate = Gate(sim)
    assert gate.wait_open().done()


def test_latch_waits_for_zero():
    sim = Simulator()
    latch = Latch(sim)
    latch.increment()
    latch.increment()
    hit = []

    def watcher():
        yield latch.wait_zero()
        hit.append(sim.now())

    def worker(delay):
        yield Timeout(delay)
        latch.decrement()

    sim.spawn(watcher())
    sim.spawn(worker(3))
    sim.spawn(worker(8))
    sim.run()
    assert hit == [8.0]


def test_latch_zero_is_immediate():
    sim = Simulator()
    latch = Latch(sim)
    assert latch.wait_zero().done()


def test_latch_negative_rejected():
    sim = Simulator()
    latch = Latch(sim)
    with pytest.raises(SimulationError):
        latch.decrement()
