"""Simulated RPC fabric.

Every client→server and server→server interaction crosses this fabric
and pays propagation delay both ways; that is the "remote calls and
therefore a longer latency" cost of a *global* index the paper weighs
against local indexes (§3.1).  The fabric also injects faults: a failed
index RPC is what sends a sync-scheme operation down the degrade-to-AUQ
durability path (§6.2).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.errors import RpcError, ServerDownError
from repro.obs.metrics import MetricsRegistry
from repro.sim.kernel import Simulator, Timeout
from repro.sim.latency import LatencyModel
from repro.sim.random import RandomStream

__all__ = ["Network", "FaultPlan"]


class FaultPlan:
    """Probabilistic RPC failures and per-link degradation, switchable
    at runtime.  Link degradation adds extra one-way propagation delay
    to a specific (source, destination) server pair — the knob failure
    storms use to slow a replication channel (followers fall behind and
    staleness grows) without killing anything."""

    def __init__(self, fail_probability: float = 0.0,
                 rng: Optional[RandomStream] = None):
        self.set_probability(fail_probability)
        self._rng = rng or RandomStream(0)
        self._link_extra_ms: Dict[Tuple[str, str], float] = {}

    def set_probability(self, fail_probability: float) -> None:
        """Retune the failure rate mid-run (a test turning chaos on for
        one phase and off for verification)."""
        if not 0.0 <= fail_probability <= 1.0:
            raise ValueError(
                f"fail_probability must be in [0, 1], "
                f"got {fail_probability!r}")
        self.fail_probability = fail_probability

    def disable(self) -> None:
        """Stop injecting failures (equivalent to ``set_probability(0)``)."""
        self.fail_probability = 0.0

    def should_fail(self) -> bool:
        return (self.fail_probability > 0.0
                and self._rng.random() < self.fail_probability)

    # -- per-link degradation (replication channels, failure storms) --------

    def degrade_link(self, source: str, destination: str,
                     extra_ms: float) -> None:
        """Add ``extra_ms`` of one-way delay to every RPC from ``source``
        to ``destination`` (directional; round trips pay it both ways)."""
        if extra_ms < 0.0:
            raise ValueError(f"extra_ms must be >= 0, got {extra_ms!r}")
        self._link_extra_ms[(source, destination)] = extra_ms

    def clear_link(self, source: Optional[str] = None,
                   destination: Optional[str] = None) -> None:
        """Remove degradation for one link, or for every link when called
        with no arguments."""
        if source is None and destination is None:
            self._link_extra_ms.clear()
        else:
            self._link_extra_ms.pop((source, destination), None)

    def link_extra_ms(self, source: Optional[str], destination: str) -> float:
        if source is None or not self._link_extra_ms:
            return 0.0
        return self._link_extra_ms.get((source, destination), 0.0)


class Network:
    def __init__(self, sim: Simulator, model: LatencyModel,
                 rng: Optional[RandomStream] = None,
                 faults: Optional[FaultPlan] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.model = model
        self._rng = rng or RandomStream(1)
        self.faults = faults or FaultPlan()
        self.metrics = metrics or MetricsRegistry()
        self.rpc_count = 0
        self.failed_rpcs = 0
        # target name -> rpc_ms{server=} histogram, cached so the
        # per-RPC hot path skips registry resolution.
        self._rpc_ms = {}

    def call(self, target: Any,
             handler_factory: Callable[[], Generator],
             source: Optional[str] = None,
             ) -> Generator[Any, Any, Any]:
        """Round-trip RPC: propagate → run handler on target → propagate back.

        ``target`` is any object with ``alive`` (bool) and ``name`` (str);
        the handler coroutine is produced lazily so a dead server never
        executes it.  Usage: ``result = yield from network.call(server,
        lambda: server.handle_read(...))``.  Callers that name their
        ``source`` server additionally pay any per-link degradation the
        :class:`FaultPlan` has configured for that (source, target) pair.
        """
        self.rpc_count += 1
        start = self.sim.now()
        faults = self.faults
        link_extra = (faults.link_extra_ms(source, target.name)
                      if faults._link_extra_ms else 0.0)
        if faults.should_fail():
            self.failed_rpcs += 1
            self.metrics.counter("rpc_failures", server=target.name).inc()
            # The request is lost in flight: the caller still waited.
            yield Timeout(self.model.rpc_delay(self._rng) + link_extra)
            raise RpcError(f"rpc to {target.name} lost (injected fault)")

        yield Timeout(self.model.rpc_delay(self._rng) + link_extra)
        if not target.alive:
            self.failed_rpcs += 1
            self.metrics.counter("rpc_failures", server=target.name).inc()
            raise ServerDownError(f"server {target.name} is down")
        result = yield from handler_factory()
        if not target.alive:
            # Server died while serving: the response never leaves the node.
            self.failed_rpcs += 1
            self.metrics.counter("rpc_failures", server=target.name).inc()
            raise ServerDownError(f"server {target.name} died mid-request")
        yield Timeout(self.model.rpc_delay(self._rng) + link_extra)
        histogram = self._rpc_ms.get(target.name)
        if histogram is None:
            histogram = self.metrics.histogram("rpc_ms", server=target.name)
            self._rpc_ms[target.name] = histogram
        histogram.observe(self.sim.now() - start)
        return result
