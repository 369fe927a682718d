"""Probe and effector boundary between a managing system and the simulator.

The probe is the read-only monitoring surface; the effector queues adaptation
commands. Both are bound to exactly one simulation instance and must be
called from a single loop between steps (no concurrent access to one
instance).
"""

from __future__ import annotations

import enum
import math
from functools import partial
from typing import NamedTuple, Optional

from .config import DISTURBED_LOADS, largest_factor, step_overflow
from .network import Monitorables, Topology, round_half_up


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


class EffectorCommand(NamedTuple):
    """One adaptation command as issued, for auditing and replay: an immutable
    named tuple, since a long run logs one per switch."""

    kind: CommandKind
    payload: object
    issued_at: int
    target_timestep: Optional[int] = None  # SET_NETWORK_TOPOLOGY only


# EffectorCommand._make without its Python-level length check, for the
# effector, which always passes the four fields.
_new_command = partial(tuple.__new__, EffectorCommand)


def _int_text(value: int) -> str:
    """``str(value)``, or its digit count past the interpreter's limit on
    integer-to-text conversion, where ``str`` raises ValueError."""
    try:
        return str(value)
    except ValueError:
        magnitude = abs(value)
        digits = int(magnitude.bit_length() * math.log10(2))  # the count or one short
        if magnitude >= 10**digits:
            digits += 1
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {digits} digits"


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
        # factor, its normalization basis), for the bound in _checked_load.
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
        target = self._parse_topology(topology)
        if not isinstance(timestep, int) or isinstance(timestep, bool):
            raise EffectorError(f"timestep must be an integer, got {timestep!r}")
        if timestep < self._sim.timestep:
            raise EffectorError(
                f"cannot target past timestep {_int_text(timestep)}"
                f" (current is {self._sim.timestep})"
            )
        if timestep >= self._sim.properties.timesteps:
            raise EffectorError(
                f"cannot target timestep {_int_text(timestep)}: the run ends after"
                f" {self._sim.properties.timesteps} timesteps"
            )
        # Last command for a target wins; the log keeps every issue.
        self._sim._topology_schedule[timestep] = target
        self._log(CommandKind.SET_NETWORK_TOPOLOGY, target, target_timestep=timestep)

    def set_current_topology(self, topology: object) -> None:
        """Switch topology for the next executed step.

        Sugar for :meth:`set_network_topology` targeting the current timestep.
        """
        self._check_running()
        target = self._parse_topology(topology)
        self._sim._topology_schedule[self._sim.timestep] = target
        self._log(CommandKind.SET_CURRENT_TOPOLOGY, target)

    def set_active_links(self, active_links: int) -> None:
        """Override the next step's sampled active-link count (one step only)."""
        self._check_running()
        if not isinstance(active_links, int) or isinstance(active_links, bool):
            raise EffectorError(f"active_links must be an integer, got {active_links!r}")
        if active_links < 0:
            raise EffectorError("active_links must be >= 0")
        if active_links > self._sim.network.total_links:
            raise EffectorError(
                f"active_links {_int_text(active_links)} exceeds total links"
                f" {self._sim.network.total_links}"
            )
        self._sim._pending_overrides["active_links"] = active_links
        self._log(CommandKind.SET_ACTIVE_LINKS, active_links)

    def set_time_to_write(self, time_to_write: float) -> None:
        """Override the next step's write time in ms (one step only)."""
        self._check_running()
        value = self._checked_load("time_to_write", time_to_write)
        self._sim._pending_overrides["time_to_write"] = value
        self._log(CommandKind.SET_TIME_TO_WRITE, value)

    def set_bandwidth_consumption(self, bandwidth_consumption: float) -> None:
        """Override the next step's bandwidth in GBps (one step only)."""
        self._check_running()
        value = self._checked_load("bandwidth_consumption", bandwidth_consumption)
        self._sim._pending_overrides["bandwidth_consumption"] = value
        self._log(CommandKind.SET_BANDWIDTH_CONSUMPTION, value)

    def _check_running(self) -> None:
        if self._sim.finished:
            raise EffectorError("the run has finished: no later step would apply the command")

    @staticmethod
    def _parse_topology(topology: object) -> Topology:
        try:
            return Topology.parse(topology)
        except ValueError as exc:
            raise EffectorError(str(exc)) from None

    def _checked_load(self, name: str, value: object) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise EffectorError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise EffectorError(
                f"{name} must be a finite value >= 0, got an integer too large for a float"
            ) from None
        if math.isnan(value) or math.isinf(value) or value < 0:
            raise EffectorError(f"{name} must be a finite value >= 0, got {value}")
        # The override replaces the step's base value; the disturbance then
        # rescales it by the link ratio (at most total_links) and a factor.
        factor_name, factor, basis = self._load_bounds[name]
        total_links = self._sim.network.total_links
        overflow = step_overflow(
            value * total_links * factor, basis, self._sim.properties.timesteps
        )
        if overflow is not None:
            raise EffectorError(
                f"{name} {value} with {total_links} links and a {factor_name} up to"
                f" {factor} lets {overflow} overflow to a non-finite number"
            )
        return value

    def _log(self, kind: CommandKind, payload: object, target_timestep: Optional[int] = None) -> None:
        self._sim.command_log.append(
            _new_command((kind, payload, self._sim.timestep, target_timestep))
        )
