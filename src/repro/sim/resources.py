"""Queueing primitives built on the simulation kernel.

These are what turn per-operation *costs* into the paper's latency-versus-
throughput curves: a :class:`Resource` models a device with finite service
slots (RPC handler pool, disk spindles), so when offered load approaches
capacity, waiting time — and therefore observed latency — grows exactly as
it does on the paper's saturated region servers; a :class:`GroupCommitLog`
syncs whatever concurrent handlers appended to a log in one write.

:class:`AsyncQueue` is the substrate for the Asynchronous Update Queue
(AUQ) and :class:`Gate` implements the pause/drain step of the
drain-AUQ-before-flush recovery protocol (paper §5.3, Figure 5).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional

from repro.errors import SimulationError
from repro.sim.kernel import RESOLVED_NONE, Future, Simulator, Timeout

__all__ = ["Resource", "GroupCommitLog", "AsyncQueue", "Gate", "Latch", "use"]


class Resource:
    """A pool of ``capacity`` service slots with a FIFO wait queue."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Future] = deque()
        # Contention statistics (used by benchmarks to report utilisation).
        self._busy_since: Optional[float] = None
        self.busy_time = 0.0
        self.total_acquisitions = 0

    def acquire(self) -> Future:
        """Returns a Future resolved when a slot is granted."""
        if self._in_use < self.capacity:
            # Uncontended fast path: grant bookkeeping, no Future
            # allocation (this is once per RPC on every server).
            self._in_use += 1
            self.total_acquisitions += 1
            if self._busy_since is None:
                self._busy_since = self.sim.now()
            return RESOLVED_NONE
        future = Future()
        self._waiters.append(future)
        return future

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.sim.now() - self._busy_since
            self._busy_since = None
        if self._waiters:
            self._grant(self._waiters.popleft())

    def _grant(self, future: Future) -> None:
        self._in_use += 1
        self.total_acquisitions += 1
        if self._busy_since is None:
            self._busy_since = self.sim.now()
        future.set_result(None)

    def utilisation(self) -> float:
        """Fraction of elapsed simulated time this resource was busy."""
        now = self.sim.now()
        busy = self.busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        return busy / now if now > 0 else 0.0


def use(resource: Resource, service_time: float) -> Generator[Any, Any, None]:
    """Sub-generator: hold one slot of ``resource`` for ``service_time``.

    Usage inside a process::

        yield from use(server.disk, model.disk_read_ms)
    """
    yield resource.acquire()
    try:
        if service_time > 0:
            yield Timeout(service_time)
    finally:
        resource.release()


class GroupCommitLog:
    """A log device that group-commits across concurrent writers.

    An idle device starts a ``sync(records)`` at once, costing
    ``write_cost(records)`` as a 1-slot :class:`Resource` did.  Writers
    arriving meanwhile join the batch that goes next (never the write in
    flight), which runs as ONE write of ``write_cost(total records)`` and
    releases them together.  ``observe`` sees each write's record total.
    ``barrier`` waits for the writes already asked for without adding one.
    """

    def __init__(self, sim: Simulator, write_cost: Callable[[int], float],
                 observe: Callable[[int], None]):
        self.sim = sim
        self.write_cost = write_cost
        self.observe = observe
        self._inflight: Optional[Future] = None   # the batch being written
        self._next: Optional[Future] = None       # the batch that goes next
        self._next_records = 0

    def sync(self, records: int) -> Future:
        batch = self._next = self._next or Future()
        self._next_records += records
        if self._inflight is None:
            self._write()
        return batch

    def barrier(self) -> Future:
        """Resolves once every sync asked for so far is durable, after its
        writers have resumed (they registered first)."""
        return self._next or self._inflight or RESOLVED_NONE

    def _write(self) -> None:
        self._inflight, records = self._next, self._next_records
        self._next, self._next_records = None, 0
        self.observe(records)
        self.sim.call_later(self.write_cost(records), self._end)

    def _end(self) -> None:
        # The next batch is in flight before this one's writers resume.
        batch, self._inflight = self._inflight, None
        if self._next is not None:
            self._write()
        batch.set_result(None)


class AsyncQueue:
    """An unbounded FIFO queue connecting producers to consumer processes.

    ``get()`` returns a Future resolving to the next item; items hand over
    directly to the oldest waiting getter.  Used for the AUQ and for the
    open-loop request generators in the benchmark driver.
    """

    def __init__(self, sim: Simulator, name: str = "queue"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Future] = deque()
        self._empty_waiters: List[Future] = []
        self.total_enqueued = 0
        self.max_length = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self.total_enqueued += 1
        if self._getters:
            self._getters.popleft().set_result(item)
        else:
            self._items.append(item)
            if len(self._items) > self.max_length:
                self.max_length = len(self._items)

    def get(self) -> Future:
        future = Future()
        if self._items:
            future.set_result(self._items.popleft())
            self._notify_if_empty()
        else:
            self._getters.append(future)
        return future

    def get_nowait(self) -> Any:
        """Pop the next item immediately; raises if empty (check ``len``).
        Lets a consumer drain a burst into one batch (AUQ op batching)."""
        if not self._items:
            raise SimulationError(f"{self.name}: get_nowait on empty queue")
        item = self._items.popleft()
        self._notify_if_empty()
        return item

    def _notify_if_empty(self) -> None:
        if not self._items and self._empty_waiters:
            waiters, self._empty_waiters = self._empty_waiters, []
            for waiter in waiters:
                waiter.set_result(None)

    def wait_empty(self) -> Future:
        """Future resolved when the queue holds no items.

        Note "empty" means no items are *queued*; a consumer may still be
        working on the last dequeued item.  The AUQ pairs this with an
        in-flight :class:`Latch` to get a true drain barrier.
        """
        if not self._items:
            return RESOLVED_NONE
        future = Future()
        self._empty_waiters.append(future)
        return future


class Gate:
    """An open/closed barrier. Processes wait while the gate is closed.

    The AUQ intake gate closes during the pre-flush drain so that
    ``PR(Flushed)`` stays empty (paper §5.3 requirement (1)).
    """

    def __init__(self, sim: Simulator, open_: bool = True, name: str = "gate"):
        self.sim = sim
        self.name = name
        self._open = open_
        self._waiters: List[Future] = []

    @property
    def is_open(self) -> bool:
        return self._open

    def close(self) -> None:
        self._open = False

    def open(self) -> None:
        self._open = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.set_result(None)

    def wait_open(self) -> Future:
        if self._open:
            return RESOLVED_NONE
        future = Future()
        self._waiters.append(future)
        return future


class Latch:
    """Counts in-flight work; waiters resume when the count reaches zero."""

    def __init__(self, sim: Simulator, name: str = "latch"):
        self.sim = sim
        self.name = name
        self._count = 0
        self._waiters: List[Future] = []

    @property
    def count(self) -> int:
        return self._count

    def increment(self) -> None:
        self._count += 1

    def decrement(self) -> None:
        if self._count <= 0:
            raise SimulationError(f"{self.name}: decrement below zero")
        self._count -= 1
        if self._count == 0:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter.set_result(None)

    def wait_zero(self) -> Future:
        if self._count == 0:
            return RESOLVED_NONE
        future = Future()
        self._waiters.append(future)
        return future
