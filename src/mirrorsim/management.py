"""Probe and effector boundary between a managing system and the simulator.

The probe is the read-only monitoring surface; the effector queues adaptation
commands. Both are bound to exactly one simulation instance and must be
called from a single loop between steps (no concurrent access to one
instance).
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Optional

from .config import DISTURBED_LOADS, largest_factor, step_overflow
from .network import Monitorables, Topology, _int_text, _is_int, _is_number, round_half_up


class ProbeError(RuntimeError):
    """Raised when a scalar metric is probed before any timestep completed."""


class EffectorError(ValueError):
    """Raised when an effector command violates the simulator's invariants."""


class CommandKind(enum.Enum):
    SET_NETWORK_TOPOLOGY = "set_network_topology"
    SET_ACTIVE_LINKS = "set_active_links"
    SET_TIME_TO_WRITE = "set_time_to_write"
    SET_BANDWIDTH_CONSUMPTION = "set_bandwidth_consumption"
    SET_CURRENT_TOPOLOGY = "set_current_topology"


# The members the effector logs, as module constants: on CPython 3.10 and 3.11
# a member read through its class costs several times a global read.
_SET_NETWORK_TOPOLOGY = CommandKind.SET_NETWORK_TOPOLOGY
_SET_ACTIVE_LINKS = CommandKind.SET_ACTIVE_LINKS
_SET_TIME_TO_WRITE = CommandKind.SET_TIME_TO_WRITE
_SET_BANDWIDTH_CONSUMPTION = CommandKind.SET_BANDWIDTH_CONSUMPTION
_SET_CURRENT_TOPOLOGY = CommandKind.SET_CURRENT_TOPOLOGY


class EffectorCommand(NamedTuple):
    """One adaptation command as issued, for auditing and replay: an immutable
    named tuple, since a long run logs one per switch. The effector builds each
    with ``tuple.__new__``, which skips ``_make``'s length check."""

    kind: CommandKind
    payload: object
    issued_at: int
    target_timestep: Optional[int] = None  # SET_NETWORK_TOPOLOGY only


# Every setter's refusal once the last step has run, but set_network_topology's,
# whose target check covers the end of the run.
_RUN_FINISHED = "the run has finished: no later step would apply the command"


def _parse_topology(topology: object) -> Topology:
    """``Topology.parse``, its ValueError an :class:`EffectorError`."""
    try:
        return Topology.parse(topology)
    except ValueError as exc:
        raise EffectorError(str(exc)) from None


class Probe:
    """Read-only view of the simulation state; never consumes randomness."""

    def __init__(self, sim) -> None:
        self._sim = sim

    def get_current_topology(self) -> Topology:
        """Topology in effect at the most recently completed timestep.

        Before the first step this is the scenario's initial topology.
        """
        return self._sim.current_topology

    def get_active_links(self) -> int:
        return self._latest().active_links

    def get_bandwidth_consumption(self) -> int:
        """Bandwidth consumption in GBps, rounded half-up at this interface."""
        return round_half_up(self._latest().bandwidth_consumption)

    def get_time_to_write(self) -> int:
        """Time to write in ms, rounded half-up at this interface."""
        return round_half_up(self._latest().time_to_write)

    def get_monitorables(self) -> Optional[Monitorables]:
        """The full unrounded record, or None before the first completed step."""
        return self._sim.latest_monitorables

    def _latest(self) -> Monitorables:
        latest = self._sim.latest_monitorables
        if latest is None:
            raise ProbeError("no completed timestep to observe yet")
        return latest


class Effector:
    """Write-only command surface; everything lands in the command log."""

    def __init__(self, sim) -> None:
        self._sim = sim
        # Load override -> (its factor's name, the run profile's largest
        # factor, its normalization basis), for the bound in _set_load.
        self._load_bounds = {
            load: (factor_name, largest_factor((sim.profile,), factor_name),
                   getattr(sim.network, basis))
            for load, (_, basis, factor_name) in DISTURBED_LOADS.items()
        }

    def set_network_topology(self, timestep: int, topology: object) -> None:
        """Switch topology when the simulation advances into ``timestep``.

        The change lands before that step's monitorables are sampled; a later
        command for the same target wins. A target at or past the end of the
        run would never land and is rejected.
        """
        sim = self._sim
        target = _parse_topology(topology)
        if not _is_int(timestep):
            raise EffectorError(f"timestep must be an integer, got {timestep!r}")
        if timestep < sim.timestep:
            raise EffectorError(
                f"cannot target past timestep {_int_text(timestep)}"
                f" (current is {sim.timestep})"
            )
        if timestep >= sim.timesteps:
            raise EffectorError(
                f"cannot target timestep {_int_text(timestep)}: the run ends after"
                f" {sim.timesteps} timesteps"
            )
        # Last command for a target wins; the log keeps every issue.
        sim._topology_schedule[timestep] = target
        sim.command_log.append(tuple.__new__(
            EffectorCommand, (_SET_NETWORK_TOPOLOGY, target, sim.timestep, timestep)
        ))

    def set_current_topology(self, topology: object) -> None:
        """Switch topology for the next executed step.

        It lands as :meth:`set_network_topology` for the current timestep
        would, but is logged as ``SET_CURRENT_TOPOLOGY`` with no target
        timestep, and once the last step has run it raises "the run has
        finished", as the override setters do.
        """
        sim = self._sim
        timestep = sim.timestep
        if timestep >= sim.timesteps:
            raise EffectorError(_RUN_FINISHED)
        if not isinstance(topology, Topology):  # a manager passes the member
            topology = _parse_topology(topology)
        sim._topology_schedule[timestep] = topology
        sim.command_log.append(
            tuple.__new__(EffectorCommand, (_SET_CURRENT_TOPOLOGY, topology, timestep, None))
        )

    def set_active_links(self, active_links: int) -> None:
        """Override the next step's sampled active-link count (one step only)."""
        sim = self._sim
        if sim.timestep >= sim.timesteps:
            raise EffectorError(_RUN_FINISHED)
        if not _is_int(active_links):
            raise EffectorError(f"active_links must be an integer, got {active_links!r}")
        if active_links < 0:
            raise EffectorError("active_links must be >= 0")
        total_links = sim.network.total_links
        if active_links > total_links:
            raise EffectorError(
                f"active_links {_int_text(active_links)} exceeds total links {total_links}"
            )
        sim._pending_overrides["active_links"] = active_links
        sim.command_log.append(
            tuple.__new__(EffectorCommand, (_SET_ACTIVE_LINKS, active_links, sim.timestep, None))
        )

    def set_time_to_write(self, time_to_write: float) -> None:
        """Override the next step's write time in ms (one step only)."""
        self._set_load(_SET_TIME_TO_WRITE, "time_to_write", time_to_write)

    def set_bandwidth_consumption(self, bandwidth_consumption: float) -> None:
        """Override the next step's bandwidth in GBps (one step only)."""
        self._set_load(_SET_BANDWIDTH_CONSUMPTION, "bandwidth_consumption", bandwidth_consumption)

    def _set_load(self, kind: CommandKind, name: str, value: object) -> None:
        sim = self._sim
        if sim.timestep >= sim.timesteps:
            raise EffectorError(_RUN_FINISHED)
        if not _is_number(value):
            raise EffectorError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise EffectorError(
                f"{name} must be a finite value >= 0, got an integer too large for a float"
            ) from None
        if not math.isfinite(value) or value < 0:
            raise EffectorError(f"{name} must be a finite value >= 0, got {value}")
        # The override replaces the step's base value; the disturbance then
        # rescales it by the link ratio (at most total_links) and a factor.
        factor_name, factor, basis = self._load_bounds[name]
        total_links = sim.network.total_links
        overflow = step_overflow(value * total_links * factor, basis, sim.timesteps)
        if overflow is not None:
            raise EffectorError(
                f"{name} {value} with {total_links} links and a {factor_name} up to"
                f" {factor} lets {overflow} overflow to a non-finite number"
            )
        sim._pending_overrides[name] = value
        sim.command_log.append(tuple.__new__(EffectorCommand, (kind, value, sim.timestep, None)))
