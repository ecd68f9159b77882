"""Discrete-event simulation kernel.

The whole reproduction runs inside a single-threaded discrete-event
simulator: region servers, YCSB clients, the asynchronous processing
service (APS), flushes and compactions are all *processes* — plain Python
generators that yield the things they wait on:

* ``Timeout(delay)``   — resume after ``delay`` simulated milliseconds;
* a :class:`Future`    — resume when it resolves (its value is sent back);
* a :class:`Process`   — resume when that process returns.

The kernel is deliberately tiny (a heap of timestamped callbacks) so its
behaviour is easy to audit; the queueing behaviour that produces the
paper's latency-vs-throughput curves comes from :mod:`repro.sim.resources`
built on top of it.

Simulated time is a ``float`` number of **milliseconds**, matching the
latency units the paper reports.

Performance model (DESIGN.md §16): every simulated operation is tens of
heap events, so the per-event constant factor here is the wall-clock
ceiling on every benchmark in the repo.  The event heap therefore stores
plain ``(when, seq, fn, args)`` 4-tuples — never a closure allocated per
``call_at`` — and the drain loops in :meth:`Simulator.run` hoist the
deadline/crash checks off the per-event path.  Two invariants may never
change for speed: spawn runs the process's first step eagerly (scheduling
determinism), and a process waiting on a Future resumes on the *current*
event when it resolves (exact causality, no same-timestamp ambiguity).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import ProcessCrashed, SimulationError

__all__ = ["Future", "Timeout", "Process", "Simulator", "RESOLVED_NONE"]

_NO_ARGS: Tuple[Any, ...] = ()
_heappush = heapq.heappush
_heappop = heapq.heappop


class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated milliseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Always stored as float so downstream arithmetic (and any number
        # that reaches a JSON report) never flips int/float representation.
        self.delay = delay if delay.__class__ is float else float(delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay})"


class Future:
    """A one-shot container for a value produced later in simulated time."""

    __slots__ = ("_done", "_value", "_exception", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        # Lazily allocated: most futures resolve before anyone registers
        # a callback, so the common case pays no list allocation.
        self._callbacks: Optional[List[Callable[["Future"], None]]] = None

    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise SimulationError("Future.result() called before resolution")
        if self._exception is not None:
            raise self._exception
        return self._value

    def exception(self) -> Optional[BaseException]:
        if not self._done:
            raise SimulationError("Future.exception() called before resolution")
        return self._exception

    def set_result(self, value: Any) -> None:
        if self._done:
            raise SimulationError("Future resolved twice")
        self._done = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            for callback in callbacks:
                callback(self)

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise SimulationError("Future resolved twice")
        self._done = True
        self._exception = exc
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            for callback in callbacks:
                callback(self)

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        if self._done:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)


# Shared pre-resolved Future: queueing primitives hand this out on their
# uncontended fast paths (slot free, gate open, queue empty) instead of
# allocating a fresh Future per grant.  Safe to share because a resolved
# Future is immutable — add_done_callback invokes immediately and stores
# nothing.
RESOLVED_NONE = Future()
RESOLVED_NONE.set_result(None)


ProcessGen = Generator[Any, Any, Any]


class Process:
    """A running generator coroutine inside the simulator.

    The generator's ``return`` value resolves :attr:`future`.  An exception
    escaping the generator resolves the future with that exception; if no
    one ever waits on the future, :meth:`Simulator.run` raises
    :class:`ProcessCrashed` so failures never pass silently.
    """

    __slots__ = ("sim", "name", "future", "_gen", "_waited_on",
                 "_step_fn", "_send")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self.future = Future()
        self._gen = gen
        self._waited_on = False
        # The zero-arg resume bound-method is interned once: timer resumes
        # are the hottest heap entries and a fresh bound method per
        # call_at would be one allocation per event.
        self._step_fn = self._step
        self._send = gen.send

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.future.done() else "running"
        return f"<Process {self.name} {state}>"

    # -- stepping ---------------------------------------------------------

    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        try:
            if exc is not None:
                item = self._gen.throw(exc)
            else:
                item = self._send(value)
        except StopIteration as stop:
            self._step_fn = None    # break the self-cycle: freed without the GC
            self.future.set_result(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - must capture any crash
            self.future.set_exception(error)
            if not self.future._callbacks and not self._waited_on:
                self.sim._record_crash(self, error)
            return
        # Inline dispatch, fast-pathed on the overwhelmingly common
        # Timeout: push the interned resume method straight onto the heap.
        cls = item.__class__
        if cls is Timeout:
            sim = self.sim
            sim._seq += 1
            _heappush(sim._heap,
                      (sim._now + item.delay, sim._seq,
                       self._step_fn, _NO_ARGS))
        elif cls is Future:
            item.add_done_callback(self._resume_from_future)
        elif cls is Process:
            item._waited_on = True
            item.future.add_done_callback(self._resume_from_future)
        else:
            self._dispatch(item)

    def _dispatch(self, item: Any) -> None:
        # Slow path for subclasses and garbage (the fast path in _step
        # matched on exact type).
        if isinstance(item, Timeout):
            self.sim.call_later(item.delay, self._step_fn)
        elif isinstance(item, Future):
            item.add_done_callback(self._resume_from_future)
        elif isinstance(item, Process):
            item._waited_on = True
            item.future.add_done_callback(self._resume_from_future)
        else:
            self._step(exc=SimulationError(
                f"process {self.name!r} yielded unsupported item {item!r}"))

    def _resume_from_future(self, future: Future) -> None:
        # Resume on the *current* event, not a new heap entry: waking a
        # process the instant its dependency resolves keeps causality exact
        # and avoids same-timestamp ordering ambiguity.
        exc = future._exception
        if exc is not None:
            self._step(exc=exc)
        else:
            self._step(future._value)


class Simulator:
    """Event loop: a heap of ``(time, seq, fn, args)`` entries."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._seq = 0
        self._heap: List[Tuple[float, int, Callable[..., None], Tuple]] = []
        self._crashes: List[ProcessCrashed] = []

    # -- time -------------------------------------------------------------

    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    # -- scheduling -------------------------------------------------------

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        when = self._now + delay
        if when < self._now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self._now})")
        self._seq += 1
        _heappush(self._heap, (when, self._seq, fn, args))

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self._now})")
        self._seq += 1
        _heappush(self._heap, (when, self._seq, fn, args))

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start ``gen`` as a process.  Its first step runs *now* (before
        returning), which keeps spawn-then-wait sequences deterministic."""
        process = Process(self, gen, name=name)
        process._step()
        return process

    # -- running ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Drain events; with ``until`` set, stop once simulated time would
        pass it (and advance the clock exactly to ``until``).

        Two drain loops so the common ``until is None`` case never
        branches on the deadline per event; the crash check is a list
        truthiness test, paid only when a crash was actually recorded.
        """
        heap = self._heap
        pop = _heappop
        crashes = self._crashes
        if until is None:
            while heap:
                when, _seq, fn, args = pop(heap)
                self._now = when
                fn(*args)
                if crashes:
                    self._raise_crashes()
        else:
            while heap and heap[0][0] <= until:
                when, _seq, fn, args = pop(heap)
                self._now = when
                fn(*args)
                if crashes:
                    self._raise_crashes()
            if until > self._now:
                self._now = until
        if crashes:
            self._raise_crashes()

    def run_until_complete(self, waitable: Any) -> Any:
        """Drive the loop until ``waitable`` (Process or Future) resolves."""
        if isinstance(waitable, Process):
            waitable._waited_on = True
            future = waitable.future
            # A process that crashed during spawn's eager first step (before
            # anyone could wait on it) was provisionally recorded as an
            # orphan crash.  Its exception is about to surface through
            # future.result() below — claiming it here keeps the same error
            # from being raised a second time by a later step().
            if future.done() and future._exception is not None:
                # In-place so the drain loops' local alias stays valid.
                self._crashes[:] = [
                    c for c in self._crashes
                    if not (c.process_name == waitable.name
                            and c.cause is future._exception)]
        elif isinstance(waitable, Future):
            future = waitable
        else:
            raise SimulationError(
                f"run_until_complete expects Process or Future, got {waitable!r}")
        heap = self._heap
        pop = _heappop
        crashes = self._crashes
        while not future._done:
            if not heap:
                raise SimulationError(
                    "event heap drained before waitable resolved (deadlock)")
            when, _seq, fn, args = pop(heap)
            self._now = when
            fn(*args)
            if crashes:
                self._raise_crashes()
        return future.result()

    # -- crash bookkeeping --------------------------------------------------

    def _record_crash(self, process: Process, error: BaseException) -> None:
        self._crashes.append(ProcessCrashed(process.name, error))

    def _raise_crashes(self) -> None:
        if self._crashes:
            crash = self._crashes[0]
            # Keep the shared list identity: the drain loops hold a local
            # reference to it.
            self._crashes.clear()
            raise crash


def all_of(sim: Simulator, waitables: "List[Any]") -> Future:
    """A Future that resolves (with the list of results, in input order)
    once every Process/Future in ``waitables`` has resolved.

    The first exception among them resolves the future with that exception.
    """
    result = Future()
    futures: List[Future] = []
    for item in waitables:
        if isinstance(item, Process):
            item._waited_on = True
            futures.append(item.future)
        elif isinstance(item, Future):
            futures.append(item)
        else:
            raise SimulationError(f"all_of expects Process/Future, got {item!r}")

    remaining = len(futures)
    if remaining == 0:
        result.set_result([])
        return result

    state = {"remaining": remaining, "failed": False}

    def on_done(_future: Future) -> None:
        if state["failed"] or result.done():
            return
        exc = _future.exception()
        if exc is not None:
            state["failed"] = True
            result.set_exception(exc)
            return
        state["remaining"] -= 1
        if state["remaining"] == 0:
            result.set_result([f.result() for f in futures])

    for future in futures:
        future.add_done_callback(on_done)
    return result
