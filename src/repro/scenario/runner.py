"""ScenarioRunner: stage, drive and audit one declarative scenario.

The runner composes the subsystems every prior PR built — the sim
kernel, replication, placement, online DDL, the adaptive controller,
the validation cleaner — under *one* open-loop, multi-tenant, chaos-
scheduled load, and reports per-tenant SLO compliance in windows:

1. **Stage** — one table + title index per tenant (its own scheme,
   split keys, optional replication), bulk-loaded and started.
2. **Drive** — per tenant, a non-homogeneous Poisson arrival process
   (:mod:`repro.scenario.arrival`) spawns ops open-loop: arrivals keep
   coming whether or not earlier ops finished, so overload shows up as
   queueing delay and SLO violations, not as a politely slowed driver.
   In parallel, a storm process executes the spec's timed kills / link
   degradations, and a sampler process closes SLO windows and feeds
   each armed tenant's :class:`~repro.core.adaptive.AdaptiveController`
   (which actuates through online ALTER — scheme switches happen live,
   under fire).
3. **Audit** — after the horizon, quiesce and verify every *acked*
   write is durably readable (`acked_write_loss` must be 0 across
   kills), then assemble the :class:`~repro.scenario.report.
   ScenarioReport`.

Everything runs on the simulated clock and every random draw comes from
a stream derived from the scenario seed, so a (spec, seed) pair is one
exact, replayable history.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Generator, Iterator, List, Optional

from repro.cluster.cluster import MiniCluster
from repro.cluster.network import FaultPlan
from repro.core.adaptive import AdaptiveController, AdaptivePolicy
from repro.core.index import IndexDescriptor
from repro.errors import ReproError
from repro.replication.config import ReplicationConfig
from repro.scenario.arrival import HotspotChooser, poisson_arrivals
from repro.scenario.report import ScenarioReport, TenantResult
from repro.scenario.slo import WindowAccumulator, WindowReport
from repro.scenario.spec import ScenarioSpec, StormEvent, TenantSpec
from repro.sim.kernel import Timeout
from repro.sim.random import RandomStream
from repro.ycsb.driver import OpRecorder, load_direct, open_loop
from repro.ycsb.schema import ItemSchema, TITLE_COLUMN
from repro.ycsb.workload import CoreWorkload, Op, OpType

__all__ = ["ScenarioRunner"]

# Open-loop back-pressure valve: above this many in-flight ops a tenant
# sheds new arrivals (reported per window) instead of growing the sim's
# process table without bound.
MAX_IN_FLIGHT = 2000

# Adaptive policy tuned for windowed scenarios: act on less history than
# the default (windows refill the evidence quickly) but keep hysteresis.
SCENARIO_POLICY = AdaptivePolicy(window_ops=150, min_ops_to_act=40,
                                 cooldown_ops=60)


class _TenantState(OpRecorder):
    """Everything the runner tracks for one tenant at run time, and the
    recorder of its ops: the open window, the adaptive controller's op
    mix and the acked rows the audit reads back."""

    def __init__(self, runner: "ScenarioRunner", spec: TenantSpec):
        super().__init__()
        cluster = runner.cluster
        self.spec = spec
        self.schema = ItemSchema(
            record_count=spec.records,
            title_cardinality=(spec.records // 5
                               if spec.title_cardinality is None
                               else spec.title_cardinality),
            key_prefix=f"{spec.name}-")
        self.workload = CoreWorkload(
            self.schema, proportions={"update": 1.0},
            distribution=spec.distribution,
            title_index_name=spec.index_name)
        # Hotspot phases decorate the configured chooser: the flash
        # crowd retargets draws without touching the base distribution.
        if spec.hotspots.phases:
            self.workload._chooser = HotspotChooser(
                self.workload._chooser, spec.hotspots, spec.records,
                clock=cluster.sim.now)
        self.client = cluster.new_client(f"{spec.name}-loadgen")
        self.rng = runner.seeds.stream(f"tenant/{spec.name}/ops")
        self.arrival_rng = runner.seeds.stream(
            f"tenant/{spec.name}/arrivals")
        self.accumulator = WindowAccumulator(spec.slo)
        self.windows: List[WindowReport] = []
        self.controller: Optional[AdaptiveController] = None
        if spec.adaptive:
            self.controller = AdaptiveController(
                cluster, spec.index_name,
                required_consistency=spec.consistency,
                policy=SCENARIO_POLICY)
        self.acked_writes: List[bytes] = []
        self._staleness_floor = 0   # index into cluster.staleness.lags_ms

    def record(self, kind: str, latency_ms: float,
               acked_row: Optional[bytes]) -> None:
        self.accumulator.record(kind, latency_ms)
        self._observe(kind)
        if acked_row is not None:
            self.acked_writes.append(acked_row)

    def record_failure(self, kind: str) -> None:
        self.accumulator.record_failure()   # storms make ops fail
        self._observe(kind)

    def record_shed(self) -> None:
        self.accumulator.record_shed()

    def _observe(self, kind: str) -> None:
        if self.controller is not None:
            if kind in OpType.WRITES:
                self.controller.observe_update()
            else:
                self.controller.observe_read()

    def window_staleness(self, cluster: MiniCluster) -> float:
        """Worst index-completion lag the tracker observed since the
        last window closed.  The tracker is cluster-global; sync-scheme
        tenants contribute (and see) ~nothing, so in practice the value
        reflects the async tenants that can actually violate a
        staleness bound."""
        lags = cluster.staleness.lags_ms
        fresh = lags[self._staleness_floor:]
        self._staleness_floor = len(lags)
        return max(fresh) if fresh else 0.0

    def current_scheme_label(self, cluster: MiniCluster) -> str:
        return cluster.index_descriptor(self.spec.index_name).scheme.value


class ScenarioRunner:
    def __init__(self, spec: ScenarioSpec, seed: int = 42):
        self.spec = spec
        self.seed = seed
        replication = (ReplicationConfig(
            replication_factor=spec.replication_factor)
            if spec.replication_factor > 1 else None)
        self.cluster = MiniCluster(
            num_servers=spec.num_servers, seed=seed,
            fault_plan=FaultPlan(
                rng=RandomStream(seed * 7919 + 13)),
            heartbeat_timeout_ms=spec.heartbeat_timeout_ms,
            replication=replication)
        self.seeds = self.cluster.seeds
        self.tenants: Dict[str, _TenantState] = {}
        self.storm_log: List[Dict[str, Any]] = []
        self._stage()

    # -- staging ---------------------------------------------------------------

    def _stage(self) -> None:
        cluster = self.cluster
        for spec in self.spec.tenants:
            state = _TenantState(self, spec)
            cluster.create_table(
                spec.table,
                split_keys=state.schema.split_keys(
                    self.spec.base_regions_per_tenant))
            load_direct(cluster, state.schema, spec.table,
                        seed=self.seeds.seed_for(
                            f"tenant/{spec.name}/load") % (2 ** 31))
            cluster.create_index(
                IndexDescriptor(spec.index_name, spec.table,
                                (TITLE_COLUMN,), scheme=spec.scheme),
                split_keys=state.schema.title_split_keys(
                    self.spec.index_regions_per_tenant))
            self.tenants[spec.name] = state
        cluster.start()

    # -- load generation -------------------------------------------------------

    def _tenant_loadgen(self, state: _TenantState, end_ms: float,
                        ) -> Generator[Any, Any, None]:
        """Open-loop arrival process for one tenant: walk the thinned
        Poisson schedule, spawning each op as its own process (arrivals
        never wait for completions)."""
        sim = self.cluster.sim
        spec, workload, rng = state.spec, state.workload, state.rng

        def ops() -> Iterator[Op]:
            while True:
                yield workload.draw(spec.mix.draw(sim.now(), rng), rng)

        def delays() -> Iterator[float]:
            for at in poisson_arrivals(spec.arrival, state.arrival_rng,
                                       sim.now(), end_ms):
                yield at - sim.now()

        return open_loop(state.client, spec.table, ops(), delays(), end_ms,
                         state, MAX_IN_FLIGHT)

    # -- storm schedule --------------------------------------------------------

    def _apply_storm_event(self, event: StormEvent) -> None:
        cluster = self.cluster
        faults = cluster.network.faults
        entry = dict(event.to_dict())
        if event.kind == "kill":
            if cluster.servers[event.target].alive:
                cluster.kill_server(event.target)
                entry["applied"] = True
            else:
                entry["applied"] = False   # already dead; storms overlap
        elif event.kind == "degrade":
            for name in cluster.servers:
                if name != event.target:
                    faults.degrade_link(name, event.target, event.extra_ms)
            entry["applied"] = True
        elif event.kind == "clear":
            faults.clear_link()
            entry["applied"] = True
        elif event.kind == "fault_rate":
            faults.set_probability(event.probability)
            entry["applied"] = True
        self.storm_log.append(entry)

    def _storm_process(self, start_ms: float,
                       ) -> Generator[Any, Any, None]:
        sim = self.cluster.sim
        for event in sorted(self.spec.storm, key=lambda e: e.at_ms):
            at = start_ms + event.at_ms
            if at > sim.now():
                yield Timeout(at - sim.now())
            self._apply_storm_event(event)

    # -- SLO sampling + adaptation ---------------------------------------------

    def _sampler_process(self, start_ms: float, end_ms: float,
                         ) -> Generator[Any, Any, None]:
        sim = self.cluster.sim
        index = 0
        window_start = start_ms
        while window_start < end_ms:
            window_end = min(window_start + self.spec.window_ms, end_ms)
            yield Timeout(window_end - sim.now())
            for state in self.tenants.values():
                report = state.accumulator.freeze(
                    index, window_start, window_end,
                    staleness_max_ms=state.window_staleness(self.cluster),
                    offered_update_fraction=state.spec.mix
                    .update_fraction_at(window_start),
                    scheme=state.current_scheme_label(self.cluster))
                state.windows.append(report)
                controller = state.controller
                if controller is not None:
                    controller.observe_slo(report.slo_signal())
                    controller.evaluate()
            index += 1
            window_start = window_end

    # -- audit ------------------------------------------------------------------

    def _audit_acked_writes(self, state: _TenantState,
                            sample_cap: int = 400) -> Dict[str, int]:
        """After quiesce: every acked write must be durably readable.
        Rows are deduped (later acks supersede earlier ones on the same
        row) and sampled evenly up to ``sample_cap`` to keep the audit
        cheap at full scale."""
        rows = list(dict.fromkeys(state.acked_writes))
        if len(rows) > sample_cap:
            step = len(rows) / sample_cap
            rows = [rows[int(i * step)] for i in range(sample_cap)]
        lost = 0
        client = self.cluster.new_client(f"{state.spec.name}-auditor")

        def audit() -> Generator[Any, Any, None]:
            nonlocal lost
            for row in rows:
                try:
                    found = yield from client.get(state.spec.table, row)
                except ReproError:   # a loss, not a crash
                    found = None
                if not found:
                    lost += 1

        self.cluster.run(audit(), name=f"audit-{state.spec.name}")
        return {"acked": len(state.acked_writes),
                "audited": len(rows), "lost": lost}

    # -- the run -----------------------------------------------------------------

    def run(self) -> ScenarioReport:
        cluster = self.cluster
        sim = cluster.sim
        wall_start = time.perf_counter()
        start = sim.now()
        end = start + self.spec.duration_ms
        promotions0 = int(cluster.metrics.total("promotions_total"))

        for name, state in self.tenants.items():
            sim.spawn(self._tenant_loadgen(state, end), name=f"loadgen-{name}")
        sim.spawn(self._storm_process(start), name="storm")
        sampler = sim.spawn(self._sampler_process(start, end),
                            name="slo-sampler")
        # The sampler is the metronome: it closes the last window exactly
        # at the horizon, after which stragglers may still be in flight.
        while not sampler.future.done():
            yield_step = min(self.spec.window_ms, 50.0)
            sim.run(until=sim.now() + yield_step)
        # Let in-flight ops finish, AUQs drain, DDL jobs settle.
        cluster.quiesce()
        for state in self.tenants.values():
            for job in (state.controller.jobs if state.controller else ()):
                if not job.is_terminal:
                    cluster.run(job.wait())
        cluster.quiesce()

        tenant_results: Dict[str, TenantResult] = {}
        for name, state in self.tenants.items():
            durability = self._audit_acked_writes(state)
            controller = state.controller
            tenant_results[name] = TenantResult(
                spec=state.spec,
                windows=list(state.windows),
                issued=state.issued,
                acked_writes=durability["acked"],
                audited_writes=durability["audited"],
                acked_write_loss=durability["lost"],
                final_scheme=state.current_scheme_label(cluster),
                switches=(list(controller.switch_events)
                          if controller else []),
            )

        report = ScenarioReport(
            spec=self.spec,
            seed=self.seed,
            tenants=tenant_results,
            storm_log=list(self.storm_log),
            promotions=int(cluster.metrics.total("promotions_total"))
            - promotions0,
            splits=int(cluster.placement.obs_splits.value),
            moves=int(cluster.placement.obs_moves.value),
            stale_served=cluster.staleness.stale_served,
            stale_debt_end=cluster.staleness.stale_debt,
            sim_ms=sim.now() - start,
            wall_seconds=time.perf_counter() - wall_start,
        )
        return report
