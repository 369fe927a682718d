"""The timestep loop: stepping, trace recording, and satisfaction evaluation.

One :class:`Simulation` owns one run's state. ``run`` closes the loop with an
in-process manager; ``replay`` re-drives a fresh simulation from a command
log and must reproduce the original trace bit for bit.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain
from random import Random
from typing import NamedTuple, Optional

from .config import ExperimentConfig, SatisfactionThresholds
from .management import ColumnSequence, CommandLog, Effector, EffectorCommand, EffectorError, Probe
from .network import (
    MirrorNetwork, Monitorables, Topology, _MST, _int_text, _is_finite_number, _is_int,
    sample_base_monitorables,
)
from .scenarios import apply_disturbance, initial_topology


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
    inflation scenarios can push the load percentages above 100. A
    :class:`Trace` derives its ``*_pct`` fields with the same expression.
    """
    active_links, bandwidth, write_time = monitorables
    # NormalizedMetrics._make without its Python-level length check.
    return tuple.__new__(NormalizedMetrics, (
        100.0 * active_links / network.total_links,
        100.0 * bandwidth / network.bandwidth_basis,
        100.0 * write_time / network.write_time_basis,
    ))


# Apart from _mean_pct: a column built per decide to fold through it cost ~5% of steps/s.
def window_mean_pct(rows: Sequence[Sequence[float]], index: int, basis: float) -> float:
    """The mean of column ``index`` of ``rows`` as a percentage of ``basis``.

    Each term is ``normalize``'s expression, summed left to right from 0.0
    as the run summary's means are: the same bits on every Python, unlike
    ``sum()``, which is compensated from CPython 3.12 on.
    """
    total = 0.0
    for row in rows:
        total += 100.0 * row[index] / basis
    return total / len(rows)


class TraceRecord(NamedTuple):
    """One timestep's trace row: the topology in effect, the disturbed
    monitorables, their normalized percentages and the topology switch if one
    landed.

    A flat, immutable named tuple whose fields are the trace columns; derive
    a changed copy with ``_replace`` (``record._replace(active_links=...)``).
    """

    timestep: int
    topology: Topology
    active_links: int
    bandwidth_gbps: float
    time_to_write_ms: float
    active_links_pct: float
    bandwidth_pct: float
    write_time_pct: float
    adaptation: Optional[Topology] = None


# The one definition of a trace row: the CSV header and rows, the wire's
# ``record`` payload and the plot-data columns all follow this order.
TRACE_FIELDS = TraceRecord._fields

# A row's topology and adaptation share one byte: bit 0 is the topology
# (0 MST, 1 RT) and bit 1 is set when a switch landed, which is always a
# switch to that row's topology.
_TOPOLOGY_OF_CODE = (Topology.MST, Topology.RT, Topology.MST, Topology.RT)
_ADAPTATION_OF_CODE = (None, None, Topology.MST, Topology.RT)
# TraceRecord._make without its Python-level length check, for the trace,
# which always passes the nine fields.
_new_record = partial(tuple.__new__, TraceRecord)
_CHUNK = 1024  # rows a trace reader derives, and rows one CSV % call formats


class Trace(ColumnSequence):
    """A run's trace: a :class:`~mirrorsim.management.ColumnSequence` of
    :class:`TraceRecord`, row ``i`` being timestep ``i``.

    The trace holds only what each step drew, one typed column per field,
    about 25 bytes a step: one byte for the topology and adaptation, an
    ``array`` of the active-link counts and one ``array`` each for the
    bandwidth and the write time. Each record is built when it is read, its
    ``*_pct`` fields derived from the run's network as :func:`normalize`
    derives them, so the network counts in equality and pickling too. Only
    :meth:`Simulation.step` appends to it.
    """

    __slots__ = ("_network",)
    _noun = "records"

    def __init__(self, network: MirrorNetwork) -> None:
        self._network = network
        # Column i is TraceRecord field i + 1; timestep is the row index.
        self._columns = (
            bytearray(),  # topology and adaptation code
            array("q"),  # active_links
            array("d"),  # bandwidth_gbps
            array("d"),  # time_to_write_ms
        )

    def _row(self, timestep: int, values: list) -> TraceRecord:
        code, *drawn = values
        return _new_record((
            timestep, _TOPOLOGY_OF_CODE[code], *drawn, *normalize(drawn, self._network),
            _ADAPTATION_OF_CODE[code],
        ))

    def _chunks(self):
        """The rows ``_CHUNK`` at a time: each chunk's timesteps, its slice of
        each column and its three ``*_pct`` columns, each value derived as
        :func:`normalize` derives it, ``100.0 * value / basis``."""
        codes, *drawn = self._columns
        network = self._network
        bases = network.total_links, network.bandwidth_basis, network.write_time_basis
        for start in range(0, len(codes), _CHUNK):
            stop = start + _CHUNK
            values = [column[start:stop] for column in drawn]
            yield (range(start, stop), codes[start:stop], *values, *(
                [100.0 * value / basis for value in column]
                for column, basis in zip(values, bases)
            ))

    def __iter__(self):
        return chain.from_iterable(
            map(_new_record, zip(
                timesteps, map(_TOPOLOGY_OF_CODE.__getitem__, codes), *values,
                map(_ADAPTATION_OF_CODE.__getitem__, codes),
            ))
            for timesteps, codes, *values in self._chunks()
        )

    def __reduce__(self):
        return (Trace, (self._network,), self._columns)


@dataclass(frozen=True)
class SatisfactionSummary:
    """Run-level means and the three threshold verdicts (MC, MP, MR).

    Construction refuses, with ValueError, a mean that is not a finite number
    (an ``int``, or a finite ``float``) and a verdict that is not a ``bool``,
    in process and in the wire client, which decodes each ``run_complete``
    summary as ``SatisfactionSummary(**fields)``.
    """

    mean_bandwidth_pct: float
    mean_write_time_pct: float
    mean_active_links_pct: float
    mc_satisfied: bool
    mp_satisfied: bool
    mr_satisfied: bool

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if name.startswith("mean_") and not _is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {_int_text(value)}")
            if name.endswith("_satisfied") and type(value) is not bool:
                raise ValueError(f"{name} must be a bool, got {_int_text(value)}")

    def as_dict(self) -> dict:
        return asdict(self)


def _mean_pct(column, basis: float) -> float:
    """The mean of ``column`` as a percentage of ``basis``, each term
    ``normalize``'s expression, summed left to right from 0.0."""
    total = 0.0
    for value in column:
        total += 100.0 * value / basis
    return total / len(column)


def evaluate_satisfaction(trace: Trace, thresholds: SatisfactionThresholds) -> SatisfactionSummary:
    """Arithmetic means over the whole trace, compared inclusively.

    Each mean is folded straight from the trace's stored column, with no
    record built.
    """
    if not trace:
        raise ValueError("cannot evaluate an empty trace")
    network = trace._network
    _, links, bandwidth, write_time = trace._columns
    mean_active_links = _mean_pct(links, network.total_links)
    mean_bandwidth = _mean_pct(bandwidth, network.bandwidth_basis)
    mean_write_time = _mean_pct(write_time, network.write_time_basis)
    return SatisfactionSummary(
        mean_bandwidth_pct=mean_bandwidth,
        mean_write_time_pct=mean_write_time,
        mean_active_links_pct=mean_active_links,
        mc_satisfied=mean_bandwidth <= thresholds.max_bandwidth_pct,
        mp_satisfied=mean_write_time <= thresholds.max_write_time_pct,
        mr_satisfied=mean_active_links >= thresholds.min_active_links_pct,
    )


class Simulation:
    """One run's mutable state: topology, pending commands, timestep, rng.

    Built from one :class:`ExperimentConfig`, which checked every cross-field
    invariant of the run when it was built; the step checks none of them again.
    ``timesteps`` and ``disturbance_window`` are the config's, read once.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.network = config.network
        self.ranges = config.ranges
        properties = config.properties
        self.timesteps = properties.timesteps
        self.disturbance_window = properties.disturbance_window
        self.profile = config.scenario_profiles[properties.scenario]
        self.rng = Random(properties.seed)
        self.timestep = 0  # index of the next step to execute
        self.current_topology = initial_topology(properties.scenario, self.rng)
        self.trace = Trace(self.network)
        # One append per trace column, in TraceRecord field order.
        self._appends = tuple(column.append for column in self.trace._columns)
        self.latest_monitorables: Optional[Monitorables] = None  # set by each step
        self.command_log = CommandLog()  # the effector binds its column appends
        # Only the effector writes these, so every queued command is logged.
        self._topology_schedule: dict[int, Topology] = {}
        self._pending_overrides: dict[str, float] = {}
        self.probe = Probe(self)
        self.effector = Effector(self)

    @property
    def finished(self) -> bool:
        return self.timestep >= self.timesteps

    def step(self) -> None:
        """Execute one timestep; its record is then ``self.trace[-1]``.

        Fixed order: (1) apply due topology commands, (2) sample base
        monitorables and apply effector overrides, (3) apply the scenario
        disturbance, (4) record, (5) advance.
        """
        t = self.timestep
        if t >= self.timesteps:  # self.finished, without the property call
            raise SimulationError(f"run already finished after {self.timesteps} timesteps")

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

        window = self.disturbance_window  # inclusive [start, end]; None = whole run
        if window is None or window[0] <= t <= window[1]:
            profile = self.profile
            effects = profile.mst_effects if topology is _MST else profile.rt_effects
            disturbed = apply_disturbance(effects, base, rng, network)
        else:
            disturbed = base  # outside the window no factor is drawn

        self.latest_monitorables = disturbed
        active_links, bandwidth, write_time = disturbed
        code = 0 if topology is _MST else 1
        append_code, append_links, append_bandwidth, append_write_time = self._appends
        append_code(code if adaptation is None else code | 2)
        append_links(active_links)
        append_bandwidth(bandwidth)
        append_write_time(write_time)

        if overrides:
            overrides.clear()  # overrides live for exactly one step
        self.timestep = t + 1

    def _with_overrides(self, base: Monitorables) -> Monitorables:
        overrides = self._pending_overrides
        links = int(overrides.get("active_links", base.active_links))
        # Non-overridden loads follow the (possibly overridden) link count, as the
        # closed-form products do; a fresh sample's count is at least 1.
        ratio = links / base.active_links
        # Unchecked: the effector checked each override when it queued it.
        return tuple.__new__(Monitorables, (
            links,
            overrides.get("bandwidth_consumption", base.bandwidth_consumption * ratio),
            overrides.get("time_to_write", base.time_to_write * ratio),
        ))


@dataclass(frozen=True)
class RunResult:
    """What a run produced, in process or over the wire; ``summary`` is None
    only for a wire session that ended before its final step.

    ``trace`` is the simulation's own :class:`Trace` and ``command_log`` its
    own :class:`CommandLog`, both handed over without a copy.
    """

    trace: Trace
    summary: Optional[SatisfactionSummary]
    command_log: CommandLog

    @property
    def completed(self) -> bool:
        return self.summary is not None


def build_simulation(config: ExperimentConfig) -> Simulation:
    return Simulation(config)


def _drive(manager, probe, effector, step, timesteps: int) -> None:
    """The manager loop of ``run`` and ``wire.run_remote``; a raise in
    ``decide`` becomes ManagerError carrying the timestep."""
    decide = manager.decide
    for t in range(timesteps):
        try:
            decision = decide(probe)
        except Exception as exc:
            raise ManagerError(t, str(exc)) from exc
        if decision is not None and decision.switch_to is not None:
            effector.set_current_topology(decision.switch_to)
        step()


def run(manager, config: ExperimentConfig) -> RunResult:
    """Drive a full run with an in-process manager.

    The manager is invoked exactly once per timestep, before the step
    executes: ``manager.decide(probe)`` returns a ManagerDecision whose
    topology switch (if any) is executed through the effector.
    """
    sim = build_simulation(config)
    _drive(manager, sim.probe, sim.effector, sim.step, config.properties.timesteps)
    summary = evaluate_satisfaction(sim.trace, config.properties.thresholds)
    return RunResult(trace=sim.trace, summary=summary, command_log=sim.command_log)


def replay(log: Sequence[EffectorCommand], config: ExperimentConfig) -> RunResult:
    """Re-drive a fresh simulation from a command log.

    Commands are reissued at their recorded timesteps in their original
    order, so the resulting trace (and log) must match the source run. A
    command issued outside the run's timesteps raises EffectorError before
    the first step.
    """
    timesteps = config.properties.timesteps
    by_step: dict[int, list[EffectorCommand]] = defaultdict(list)
    for index, command in enumerate(log):
        if not (_is_int(command.issued_at) and 0 <= command.issued_at < timesteps):
            raise EffectorError(
                f"command {index} ({command.kind.value}) was issued at timestep"
                f" {_int_text(command.issued_at)}, outside the run's 0..{timesteps - 1}"
            )
        by_step[command.issued_at].append(command)
    sim = build_simulation(config)
    for t in range(timesteps):
        for command in by_step.get(t, ()):
            target = command.target_timestep  # set by set_network_topology only
            args = (command.payload,) if target is None else (target, command.payload)
            getattr(sim.effector, command.kind.value)(*args)
        sim.step()
    summary = evaluate_satisfaction(sim.trace, config.properties.thresholds)
    return RunResult(trace=sim.trace, summary=summary, command_log=sim.command_log)


TRACE_CSV_HEADER = ",".join(TRACE_FIELDS)
_CSV_ROW = "%s,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%s\n"
# The topology and adaptation cells of each code byte; no switch is an empty cell.
_TOPOLOGY_CELL = tuple(topology.value for topology in _TOPOLOGY_OF_CODE)
_ADAPTATION_CELL = tuple(getattr(switch, "value", "") for switch in _ADAPTATION_OF_CODE)


def trace_csv_chunks(trace: Trace) -> Iterator[str]:
    """The trace CSV a piece at a time: the header line, then the rows
    ``_CHUNK`` at a time.

    Each chunk is one ``%`` call over the trace's columns, with no record
    built, so a reader holds one chunk of text at a time, never the whole.
    """
    yield TRACE_CSV_HEADER + "\n"
    for timesteps, codes, *values in trace._chunks():
        rows = zip(timesteps, map(_TOPOLOGY_CELL.__getitem__, codes), *values,
                   map(_ADAPTATION_CELL.__getitem__, codes))
        yield (_CSV_ROW * len(codes)) % tuple(chain.from_iterable(rows))


def render_trace_csv(trace: Trace) -> str:
    """Fixed-format CSV (6 decimal places) so equal traces render byte-equal:
    the chunks of :func:`trace_csv_chunks`, joined."""
    return "".join(trace_csv_chunks(trace))


def write_trace_csv(trace: Trace, path) -> None:
    """Write the trace CSV to ``path`` chunk by chunk, as it is rendered; the
    file holds ``render_trace_csv(trace)``, but the whole text is never held."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(trace_csv_chunks(trace))
