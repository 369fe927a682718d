"""Probe and effector boundary between a managing system and the simulator.

The probe is the read-only monitoring surface; the effector queues adaptation
commands. Both are bound to exactly one simulation instance and must be
called from a single loop between steps (no concurrent access to one
instance).
"""

from __future__ import annotations

import enum
import math
from array import array
from collections.abc import Sequence
from functools import partial
from operator import eq
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


class EffectorCommand(NamedTuple):
    """One adaptation command as issued, for auditing and replay: an immutable
    named tuple. A :class:`CommandLog` stores its fields in columns and builds
    it when it is read."""

    kind: CommandKind
    payload: object
    issued_at: int
    target_timestep: Optional[int] = None  # SET_NETWORK_TOPOLOGY only


# A logged command's kind is stored as its index in CommandKind; the effector
# appends these module constants, a global read each.
_KINDS = tuple(CommandKind)
(
    _SET_NETWORK_TOPOLOGY,
    _SET_ACTIVE_LINKS,
    _SET_TIME_TO_WRITE,
    _SET_BANDWIDTH_CONSUMPTION,
    _SET_CURRENT_TOPOLOGY,
) = range(len(_KINDS))


# EffectorCommand._make without its Python-level length check, for the log,
# which always passes the four fields.
_new_command = partial(tuple.__new__, EffectorCommand)


class ColumnSequence(Sequence):
    """A read-only sequence of rows stored one typed column per field.

    A subclass sets ``_columns``, a tuple of equally long columns, builds row
    ``i`` from its values in ``_row(i, values)`` and names its rows in
    ``_noun``, for the repr. Indexing (negative indexes too), slicing (a
    tuple of rows), ``len`` and pickling behave like a tuple of rows. A
    sequence equals another of its own type whose ``__reduce__`` is equal,
    and a tuple or list of equal rows.
    """

    __slots__ = ("_columns",)
    __hash__ = None

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        try:
            row = range(len(self))[index]
        except IndexError:
            raise IndexError(f"{type(self).__name__} index out of range") from None
        return self._row(row, [column[row] for column in self._columns])

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.__reduce__() == other.__reduce__()
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __reduce__(self):
        return (type(self), (), self._columns)

    def __setstate__(self, columns) -> None:
        self._columns = columns

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} {self._noun}>"


class CommandLog(ColumnSequence):
    """A run's command log: a :class:`ColumnSequence` of
    :class:`EffectorCommand` in issue order.

    The log holds one column per field, about 25 bytes a command: a byte for
    the kind, an ``array`` of the issue timesteps, and two lists, one of the
    payloads as the caller passed them (a shared ``Topology`` member, an
    ``int`` link count or a ``float`` load, every type and bit kept) and one of
    the target timesteps (None but for ``SET_NETWORK_TOPOLOGY``). Each command
    is built when it is read. Only the simulation's :class:`Effector` appends
    to it.
    """

    __slots__ = ()
    _noun = "commands"

    def __init__(self) -> None:
        # In EffectorCommand field order.
        self._columns = (
            bytearray(),  # kind, as its index in CommandKind
            [],  # payload
            array("q"),  # issued_at
            [],  # target_timestep
        )

    def _row(self, index: int, values: list) -> EffectorCommand:
        kind, *fields = values
        return _new_command((_KINDS[kind], *fields))

    def __iter__(self):
        kinds, *fields = self._columns
        return map(_new_command, zip(map(_KINDS.__getitem__, kinds), *fields))

    def _append(self, kind: int, payload: object, issued_at: int, target=None) -> None:
        kinds, payloads, issues, targets = self._columns
        kinds.append(kind)
        payloads.append(payload)
        issues.append(issued_at)
        targets.append(target)


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
        self._log = sim.command_log._append
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
            raise EffectorError(f"timestep must be an integer, got {_int_text(timestep)}")
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
        self._log(_SET_NETWORK_TOPOLOGY, target, sim.timestep, timestep)

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
        self._log(_SET_CURRENT_TOPOLOGY, topology, timestep)

    def set_active_links(self, active_links: int) -> None:
        """Override the next step's sampled active-link count (one step only)."""
        sim = self._sim
        if sim.timestep >= sim.timesteps:
            raise EffectorError(_RUN_FINISHED)
        if not _is_int(active_links):
            raise EffectorError(f"active_links must be an integer, got {_int_text(active_links)}")
        if active_links < 0:
            raise EffectorError("active_links must be >= 0")
        total_links = sim.network.total_links
        if active_links > total_links:
            raise EffectorError(
                f"active_links {_int_text(active_links)} exceeds total links {total_links}"
            )
        sim._pending_overrides["active_links"] = active_links
        self._log(_SET_ACTIVE_LINKS, active_links, sim.timestep)

    def set_time_to_write(self, time_to_write: float) -> None:
        """Override the next step's write time in ms (one step only)."""
        self._set_load(_SET_TIME_TO_WRITE, "time_to_write", time_to_write)

    def set_bandwidth_consumption(self, bandwidth_consumption: float) -> None:
        """Override the next step's bandwidth in GBps (one step only)."""
        self._set_load(_SET_BANDWIDTH_CONSUMPTION, "bandwidth_consumption", bandwidth_consumption)

    def _set_load(self, kind: int, name: str, value: object) -> None:
        sim = self._sim
        if sim.timestep >= sim.timesteps:
            raise EffectorError(_RUN_FINISHED)
        if not _is_number(value):
            raise EffectorError(f"{name} must be a number, got {_int_text(value)}")
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
        self._log(kind, value, sim.timestep)
