"""Static model of the mirror network and its observable metrics.

The network is a fully connected graph of data mirrors described only by
aggregate facts: how many mirrors, how many links, and the per-link parameter
ranges. Each timestep the simulator draws an active-link count for the
selected topology plus one write-time unit and one per-link bandwidth, then
derives each load metric as alpha * active_links * its drawn unit.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from random import Random
from typing import NamedTuple

DEFAULT_BANDWIDTH_PER_LINK_RANGE = (20.0, 30.0)  # GigaBytes/second
DEFAULT_UNIT_WRITE_TIME_RANGE = (10.0, 20.0)  # milliseconds
DEFAULT_ALPHA = 1.0
DEFAULT_MST_ACTIVE_LINKS_RANGE_PCT = (35.0, 50.0)
DEFAULT_RT_ACTIVE_LINKS_RANGE_PCT = (60.0, 90.0)
MAX_TOTAL_LINKS = 2**63 - 1  # 2**32 mirrors is the most that fit
_FLOAT_MAX = sys.float_info.max


def round_half_up(value: float) -> int:
    """Round to the nearest integer with ties going up (values are >= 0)."""
    return math.floor(value + 0.5)


class Topology(enum.Enum):
    """Realization strategy for connecting the mirrors.

    MST transmits over a minimal set of links; RT keeps redundant link paths
    active, trading bandwidth cost for reliability.
    """

    MST = "mst"
    RT = "rt"

    def other(self) -> "Topology":
        return _RT if self is _MST else _MST

    @classmethod
    def parse(cls, name: object) -> "Topology":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise ValueError(f"unknown topology name: {name!r}") from None


# The members as module constants for the per-step paths: on CPython 3.10 and
# 3.11 a member read through its class costs several times a global read.
_MST = Topology.MST
_RT = Topology.RT


def _is_int(value: object) -> bool:
    """The integer rule of every boundary: an ``int``, not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    """The number rule of every boundary: an ``int`` or a ``float``, not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int_text(value: object) -> str:
    """The one rule for printing a value in a boundary message: ``repr(value)``
    (``str(value)`` for an ``int`` or a ``float``), or an int's digit count
    past the interpreter's limit on integer-to-text conversion, where
    ``repr`` raises ValueError."""
    try:
        return repr(value)
    except ValueError:
        magnitude = abs(value)
        digits = int(magnitude.bit_length() * math.log10(2))  # the count or one short
        if magnitude >= 10**digits:
            digits += 1
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {digits} digits"


def check_positive_range(name: str, bounds: tuple[float, float]) -> None:
    lower, upper = bounds
    if not (_is_number(lower) and _is_number(upper)):
        raise ValueError(f"{name} bounds must be numbers, got {bounds!r}")
    # The step path trusts these bounds, so NaN, infinity and ints past the
    # float range stop here (an int compares with a float exactly; NaN fails).
    if not (abs(lower) <= _FLOAT_MAX and abs(upper) <= _FLOAT_MAX):
        raise ValueError(
            f"{name} bounds must be finite, got [{_int_text(lower)}, {_int_text(upper)}]"
        )
    if not lower > 0:
        raise ValueError(f"{name} lower bound must be > 0, got {lower}")
    if lower > upper:
        raise ValueError(f"{name} is inverted: [{lower}, {upper}]")


@dataclass(frozen=True)
class MirrorNetwork:
    """Static facts about a fully connected network of data mirrors.

    ``total_links`` (m(m-1)/2 for m mirrors), the normalization bases
    ``bandwidth_basis`` and ``write_time_basis`` (total_links times the upper
    bound of the per-link bandwidth and unit write time ranges) and
    ``unit_draws`` (the step's two unit draws as ``(lower, upper - lower)``,
    write time first) are derived at construction and are not fields, so
    equality, hashing and repr ignore them and ``dataclasses.replace``
    derives them again.
    """

    num_mirrors: int
    bandwidth_per_link_range: tuple[float, float]  # GBps
    unit_write_time_range: tuple[float, float]  # ms
    alpha: float

    def __post_init__(self) -> None:
        if not _is_int(self.num_mirrors):
            raise ValueError(f"num_mirrors must be an integer, got {self.num_mirrors!r}")
        if self.num_mirrors < 2:
            raise ValueError(f"need at least 2 mirrors, got {_int_text(self.num_mirrors)}")
        total_links = self.num_mirrors * (self.num_mirrors - 1) // 2
        # The trace stores link counts as int64s (total_links may be too long to print).
        if total_links > MAX_TOTAL_LINKS:
            raise ValueError(
                f"{_int_text(self.num_mirrors)} mirrors give more links than the trace's"
                f" link column holds ({MAX_TOTAL_LINKS})"
            )
        if not _is_number(self.alpha):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {_int_text(self.alpha)}")
        check_positive_range("bandwidth_per_link_range", self.bandwidth_per_link_range)
        check_positive_range("unit_write_time_range", self.unit_write_time_range)
        object.__setattr__(self, "total_links", total_links)
        object.__setattr__(
            self, "bandwidth_basis", total_links * self.bandwidth_per_link_range[1]
        )
        object.__setattr__(
            self, "write_time_basis", total_links * self.unit_write_time_range[1]
        )
        object.__setattr__(self, "unit_draws", tuple(
            (lower, upper - lower)
            for lower, upper in (self.unit_write_time_range, self.bandwidth_per_link_range)
        ))


@dataclass(frozen=True)
class TopologyRanges:
    """Per-topology sampling ranges for the active-link count.

    RT keeps more links active than MST, so the RT range must sit entirely at
    or above the MST range. Each topology's link draw, ``mst_links_draw`` and
    ``rt_links_draw``, is derived at construction as ``(lower, width,
    width.bit_length())`` with ``width = upper - lower + 1``; like
    ``MirrorNetwork``'s derived values, they are not fields.
    """

    mst_active_links_range: tuple[int, int]
    rt_active_links_range: tuple[int, int]

    def __post_init__(self) -> None:
        for name, draw_name, (lower, upper) in (
            ("mst_active_links_range", "mst_links_draw", self.mst_active_links_range),
            ("rt_active_links_range", "rt_links_draw", self.rt_active_links_range),
        ):
            if not (_is_int(lower) and _is_int(upper)):
                raise ValueError(f"{name} must be a pair of integers, got {(lower, upper)!r}")
            if lower < 1:
                raise ValueError(f"{name} lower bound must be >= 1, got {_int_text(lower)}")
            if lower > upper:
                raise ValueError(
                    f"{name} is inverted: [{_int_text(lower)}, {_int_text(upper)}]"
                )
            width = upper - lower + 1
            object.__setattr__(self, draw_name, (lower, width, width.bit_length()))
        if self.rt_active_links_range[0] < self.mst_active_links_range[1]:
            raise ValueError(
                "RT active-link range must not start below the MST range's upper bound"
            )


class _MonitorablesFields(NamedTuple):
    active_links: int
    bandwidth_consumption: float  # GBps
    time_to_write: float  # ms


class Monitorables(_MonitorablesFields):
    """The three observed metrics at one timestep (an immutable named tuple).

    Every public construction path, ``_make`` and ``_replace`` included, goes
    through the non-negativity check in ``__new__``. Only the step kernels skip
    it, with ``tuple.__new__(Monitorables, values)``: their inputs (link ranges
    >= 1, positive finite unit ranges and factors, alpha in (0, 1], the
    config's worst-step bound and effector-checked overrides) were checked when
    the config and the effector accepted them, so every value they build is
    finite and >= 0.
    """

    __slots__ = ()

    def __new__(cls, active_links: int, bandwidth_consumption: float, time_to_write: float):
        if active_links < 0:
            raise ValueError("active_links must be >= 0")
        if bandwidth_consumption < 0 or time_to_write < 0:
            raise ValueError("derived monitorables must be >= 0")
        return tuple.__new__(cls, (active_links, bandwidth_consumption, time_to_write))

    @classmethod
    def _make(cls, iterable) -> "Monitorables":
        return cls(*iterable)


def build_network(
    num_mirrors: int,
    *,
    bandwidth_per_link_range: tuple[float, float] = DEFAULT_BANDWIDTH_PER_LINK_RANGE,
    unit_write_time_range: tuple[float, float] = DEFAULT_UNIT_WRITE_TIME_RANGE,
    alpha: float = DEFAULT_ALPHA,
) -> MirrorNetwork:
    """Build the network description for ``num_mirrors`` fully connected mirrors.

    The link count is m(m-1)/2; for the default 25 mirrors that is 300 links.
    """
    return MirrorNetwork(
        num_mirrors=num_mirrors,
        bandwidth_per_link_range=tuple(bandwidth_per_link_range),
        unit_write_time_range=tuple(unit_write_time_range),
        alpha=alpha,
    )


def topology_ranges_from_pct(
    network: MirrorNetwork,
    mst_range_pct: tuple[float, float] = DEFAULT_MST_ACTIVE_LINKS_RANGE_PCT,
    rt_range_pct: tuple[float, float] = DEFAULT_RT_ACTIVE_LINKS_RANGE_PCT,
) -> TopologyRanges:
    """Resolve percentage ranges into absolute link-count ranges.

    Bounds are rounded half-up and clamped into [1, total_links].
    """
    for name, (lower, upper) in (("mst", mst_range_pct), ("rt", rt_range_pct)):
        if not (_is_number(lower) and _is_number(upper) and 0 < lower <= upper <= 100):
            raise ValueError(
                f"{name} active-link percentage range must satisfy"
                f" 0 < lower <= upper <= 100, got [{_int_text(lower)}, {_int_text(upper)}]"
            )

    def resolve(pct: float) -> int:
        links = round_half_up(pct / 100.0 * network.total_links)
        return min(max(links, 1), network.total_links)

    return TopologyRanges(
        mst_active_links_range=(resolve(mst_range_pct[0]), resolve(mst_range_pct[1])),
        rt_active_links_range=(resolve(rt_range_pct[0]), resolve(rt_range_pct[1])),
    )


def sample_base_monitorables(
    topology: Topology,
    network: MirrorNetwork,
    ranges: TopologyRanges,
    rng: Random,
) -> Monitorables:
    """Sample one timestep's undisturbed monitorables.

    Draw order is part of the replay contract: active links first, then the
    unit write time, then the per-link bandwidth. The inputs were checked at
    construction, so the products ``alpha * links * unit`` are taken, and the
    record built, unchecked.
    The draws are ``rng.randint`` and ``rng.uniform`` written out over the
    draw constants derived at construction, so they consume the same random
    stream and give the same values.
    """
    # rng.randint(lower, upper) as CPython 3.10-3.13 computes it: draw
    # width.bit_length() random bits and redraw while they reach past width.
    lower, width, bits = ranges.mst_links_draw if topology is _MST else ranges.rt_links_draw
    offset = rng.getrandbits(bits)
    while offset >= width:
        offset = rng.getrandbits(bits)
    links = lower + offset
    # Each unit is rng.uniform(lower, upper), written out as its documented
    # expression lower + (upper - lower) * random().
    random = rng.random
    (write_lower, write_width), (bandwidth_lower, bandwidth_width) = network.unit_draws
    unit_write_time = write_lower + write_width * random()
    bandwidth_per_link = bandwidth_lower + bandwidth_width * random()
    scale = network.alpha * links
    return tuple.__new__(
        Monitorables, (links, scale * bandwidth_per_link, scale * unit_write_time)
    )
