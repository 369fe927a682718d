"""The timestep loop: stepping, trace recording, and satisfaction evaluation.

One :class:`Simulation` owns one run's state. ``run`` closes the loop with an
in-process manager; ``replay`` re-drives a fresh simulation from a command
log and must reproduce the original trace bit for bit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass
from random import Random
from typing import NamedTuple, Optional, Sequence

from .config import ExperimentConfig, SatisfactionThresholds, SimulationProperties
from .management import Effector, EffectorCommand, Probe
from .network import (
    MirrorNetwork,
    Monitorables,
    Topology,
    TopologyRanges,
    sample_base_monitorables,
)
from .scenarios import ScenarioState, apply_disturbance, initial_topology


class SimulationError(RuntimeError):
    """Stepping past the end of the run, or similar misuse."""


class ManagerError(RuntimeError):
    """A managing system raised during its decision; carries the timestep."""

    def __init__(self, timestep: int, message: str) -> None:
        super().__init__(f"manager failed at timestep {timestep}: {message}")
        self.timestep = timestep


class NormalizedMetrics(NamedTuple):
    active_links_pct: float
    bandwidth_pct: float
    write_time_pct: float


def normalize(monitorables: Monitorables, network: MirrorNetwork) -> NormalizedMetrics:
    """Express the three monitorables as percentages of their per-step maxima.

    The basis is total_links for the link count and total_links times the
    upper bound of the corresponding unit range for the derived metrics, so
    inflation scenarios can push the load percentages above 100.
    """
    active_links, bandwidth, write_time = monitorables
    return NormalizedMetrics(
        100.0 * active_links / network.total_links,
        100.0 * bandwidth / network.bandwidth_basis,
        100.0 * write_time / network.write_time_basis,
    )


class TraceRecord(NamedTuple):
    """One timestep's observations, plus the topology switch if one landed.

    An immutable named tuple: derive a changed copy with ``_replace``.
    """

    timestep: int
    topology: Topology
    monitorables: Monitorables
    normalized: NormalizedMetrics
    adaptation: Optional[Topology] = None


@dataclass(frozen=True)
class SatisfactionSummary:
    """Run-level means and the three threshold verdicts (MC, MP, MR)."""

    mean_bandwidth_pct: float
    mean_write_time_pct: float
    mean_active_links_pct: float
    mc_satisfied: bool
    mp_satisfied: bool
    mr_satisfied: bool

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate_satisfaction(
    trace: Sequence[TraceRecord], thresholds: SatisfactionThresholds
) -> SatisfactionSummary:
    """Arithmetic means over the whole trace, compared inclusively."""
    if not trace:
        raise ValueError("cannot evaluate an empty trace")
    count = len(trace)
    mean_bandwidth = sum(r.normalized.bandwidth_pct for r in trace) / count
    mean_write_time = sum(r.normalized.write_time_pct for r in trace) / count
    mean_active_links = sum(r.normalized.active_links_pct for r in trace) / count
    return SatisfactionSummary(
        mean_bandwidth_pct=mean_bandwidth,
        mean_write_time_pct=mean_write_time,
        mean_active_links_pct=mean_active_links,
        mc_satisfied=mean_bandwidth <= thresholds.max_bandwidth_pct,
        mp_satisfied=mean_write_time <= thresholds.max_write_time_pct,
        mr_satisfied=mean_active_links >= thresholds.min_active_links_pct,
    )


class Simulation:
    """One run's mutable state: topology, pending commands, timestep, rng."""

    def __init__(
        self,
        network: MirrorNetwork,
        ranges: TopologyRanges,
        scenario_state: ScenarioState,
        properties: SimulationProperties,
    ) -> None:
        for name, (_, upper) in (
            ("mst_active_links_range", ranges.mst_active_links_range),
            ("rt_active_links_range", ranges.rt_active_links_range),
        ):
            if upper > network.total_links:
                raise ValueError(
                    f"{name} upper bound {upper} exceeds the network's"
                    f" {network.total_links} links"
                )
        self.network = network
        self.ranges = ranges
        self.scenario_state = scenario_state
        self.properties = properties
        self.rng = Random(properties.seed)
        self.timestep = 0  # index of the next step to execute
        self.current_topology = initial_topology(scenario_state.scenario, self.rng)
        self.trace: list[TraceRecord] = []
        self.command_log: list[EffectorCommand] = []
        self._topology_schedule: dict[int, Topology] = {}
        self._pending_overrides: dict[str, float] = {}
        self.probe = Probe(self)
        self.effector = Effector(self)

    @property
    def latest_monitorables(self) -> Optional[Monitorables]:
        return self.trace[-1].monitorables if self.trace else None

    @property
    def finished(self) -> bool:
        return self.timestep >= self.properties.timesteps

    def schedule_topology(self, timestep: int, topology: Topology) -> None:
        # Last command for a target wins; the log keeps every issue.
        self._topology_schedule[timestep] = topology

    def queue_override(self, field: str, value) -> None:
        self._pending_overrides[field] = value

    def step(self) -> TraceRecord:
        """Execute one timestep.

        Fixed order: (1) apply due topology commands, (2) sample base
        monitorables and apply effector overrides, (3) apply the scenario
        disturbance, (4) normalize and record, (5) advance.
        """
        if self.finished:
            raise SimulationError(
                f"run already finished after {self.properties.timesteps} timesteps"
            )
        t = self.timestep

        topology = self.current_topology
        adaptation: Optional[Topology] = None
        if self._topology_schedule:
            target = self._topology_schedule.pop(t, None)
            if target is not None and target is not topology:
                self.current_topology = topology = target
                adaptation = target

        network = self.network
        rng = self.rng
        base = sample_base_monitorables(topology, network, self.ranges, rng)
        overrides = self._pending_overrides
        if overrides:
            base = self._with_overrides(base)

        disturbed = apply_disturbance(self.scenario_state, topology, base, t, rng, network)

        record = TraceRecord(t, topology, disturbed, normalize(disturbed, network), adaptation)
        self.trace.append(record)

        if overrides:
            overrides.clear()  # overrides live for exactly one step
        self.timestep = t + 1
        return record

    def _with_overrides(self, base: Monitorables) -> Monitorables:
        overrides = self._pending_overrides
        links = int(overrides.get("active_links", base.active_links))
        # Non-overridden derived metrics follow the (possibly overridden) link
        # count, keeping them consistent with the closed-form products.
        ratio = links / base.active_links if base.active_links else 1.0
        return Monitorables(
            active_links=links,
            bandwidth_consumption=overrides.get(
                "bandwidth_consumption", base.bandwidth_consumption * ratio
            ),
            time_to_write=overrides.get("time_to_write", base.time_to_write * ratio),
        )


@dataclass(frozen=True)
class RunResult:
    trace: tuple[TraceRecord, ...]
    summary: SatisfactionSummary
    command_log: list[EffectorCommand]


def build_simulation(config: ExperimentConfig) -> Simulation:
    props = config.properties
    state = ScenarioState(
        scenario=props.scenario,
        profile=config.scenario_profiles[props.scenario],
        window=props.disturbance_window,
    )
    return Simulation(config.network, config.ranges, state, props)


def run(manager, config: ExperimentConfig) -> RunResult:
    """Drive a full run with an in-process manager.

    The manager is invoked exactly once per timestep, before the step
    executes: ``manager.decide(probe)`` returns a ManagerDecision whose
    topology switch (if any) is executed through the effector.
    """
    sim = build_simulation(config)
    decide, probe, effector, step = manager.decide, sim.probe, sim.effector, sim.step
    for t in range(config.properties.timesteps):
        try:
            decision = decide(probe)
        except Exception as exc:
            raise ManagerError(t, str(exc)) from exc
        if decision is not None and decision.switch_to is not None:
            effector.set_current_topology(decision.switch_to)
        step()
    summary = evaluate_satisfaction(sim.trace, config.properties.thresholds)
    return RunResult(trace=tuple(sim.trace), summary=summary, command_log=sim.command_log)


def replay(log: Sequence[EffectorCommand], config: ExperimentConfig) -> RunResult:
    """Re-drive a fresh simulation from a command log.

    Commands are reissued at their recorded timesteps in their original
    order, so the resulting trace (and log) must match the source run.
    """
    by_step: dict[int, list[EffectorCommand]] = defaultdict(list)
    for command in log:
        by_step[command.issued_at].append(command)
    sim = build_simulation(config)
    for t in range(config.properties.timesteps):
        for command in by_step.get(t, ()):
            target = command.target_timestep  # set by set_network_topology only
            args = (command.payload,) if target is None else (target, command.payload)
            getattr(sim.effector, command.kind.value)(*args)
        sim.step()
    summary = evaluate_satisfaction(sim.trace, config.properties.thresholds)
    return RunResult(trace=tuple(sim.trace), summary=summary, command_log=sim.command_log)


# The one definition of a trace row: the CSV header and rows, the wire's
# ``record`` payload and the plot-data columns all follow this order.
TRACE_FIELDS = (
    "timestep", "topology", "active_links", "bandwidth_gbps", "time_to_write_ms",
    "active_links_pct", "bandwidth_pct", "write_time_pct", "adaptation",
)
TRACE_CSV_HEADER = ",".join(TRACE_FIELDS)
_CSV_ROW = "{},{},{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f},{}".format


def record_row(record: TraceRecord) -> tuple:
    """The record's values in ``TRACE_FIELDS`` order; topologies by name, no switch as None."""
    timestep, topology, monitorables, normalized, adaptation = record
    return (
        timestep, topology.value, *monitorables, *normalized,
        adaptation.value if adaptation is not None else None,
    )


def render_trace_csv(trace: Sequence[TraceRecord]) -> str:
    """Fixed-format CSV (6 decimal places) so equal traces render byte-equal."""
    lines = [TRACE_CSV_HEADER]
    for r in trace:
        *values, adaptation = record_row(r)
        lines.append(_CSV_ROW(*values, adaptation or ""))
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: Sequence[TraceRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(render_trace_csv(trace))
