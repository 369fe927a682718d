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
        return Topology.RT if self is Topology.MST else Topology.MST

    @classmethod
    def parse(cls, name: object) -> "Topology":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise ValueError(f"unknown topology name: {name!r}") from None


def check_positive_range(name: str, bounds: tuple[float, float]) -> None:
    lower, upper = bounds
    # The step path trusts these bounds, so NaN and infinity stop here.
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(f"{name} bounds must be finite, got [{lower}, {upper}]")
    if not lower > 0:
        raise ValueError(f"{name} lower bound must be > 0, got {lower}")
    if lower > upper:
        raise ValueError(f"{name} is inverted: [{lower}, {upper}]")


@dataclass(frozen=True)
class MirrorNetwork:
    """Static facts about a fully connected network of data mirrors.

    ``total_links`` (m(m-1)/2 for m mirrors) and the normalization bases
    ``bandwidth_basis`` and ``write_time_basis`` (total_links times the upper
    bound of the per-link bandwidth and unit write time ranges) are derived at
    construction and are not fields, so equality, hashing, repr and
    ``dataclasses.replace`` ignore them.
    """

    num_mirrors: int
    bandwidth_per_link_range: tuple[float, float]  # GBps
    unit_write_time_range: tuple[float, float]  # ms
    alpha: float

    def __post_init__(self) -> None:
        if self.num_mirrors < 2:
            raise ValueError(f"need at least 2 mirrors, got {self.num_mirrors}")
        total_links = self.num_mirrors * (self.num_mirrors - 1) // 2
        # Compared exactly: a link count past the float range cannot be
        # converted into the float bases at all.
        if total_links > sys.float_info.max:
            raise ValueError(
                f"{self.num_mirrors} mirrors give more links than a float holds,"
                " so the normalization bases would be non-finite"
            )
        # The trace stores link counts as signed 64-bit integers.
        if total_links > MAX_TOTAL_LINKS:
            raise ValueError(
                f"{self.num_mirrors} mirrors give {total_links} links, more than"
                f" the trace's link column holds ({MAX_TOTAL_LINKS})"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        check_positive_range("bandwidth_per_link_range", self.bandwidth_per_link_range)
        check_positive_range("unit_write_time_range", self.unit_write_time_range)
        object.__setattr__(self, "total_links", total_links)
        object.__setattr__(
            self, "bandwidth_basis", total_links * self.bandwidth_per_link_range[1]
        )
        object.__setattr__(
            self, "write_time_basis", total_links * self.unit_write_time_range[1]
        )


@dataclass(frozen=True)
class TopologyRanges:
    """Per-topology sampling ranges for the active-link count.

    RT keeps more links active than MST, so the RT range must sit entirely at
    or above the MST range.
    """

    mst_active_links_range: tuple[int, int]
    rt_active_links_range: tuple[int, int]

    def __post_init__(self) -> None:
        for name, (lower, upper) in (
            ("mst_active_links_range", self.mst_active_links_range),
            ("rt_active_links_range", self.rt_active_links_range),
        ):
            if lower < 1:
                raise ValueError(f"{name} lower bound must be >= 1, got {lower}")
            if lower > upper:
                raise ValueError(f"{name} is inverted: [{lower}, {upper}]")
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

    Every construction path, ``_make`` and ``_replace`` included, goes through
    the non-negativity check in ``__new__``.
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
        if not 0 < lower <= upper <= 100:
            raise ValueError(
                f"{name} active-link percentage range must satisfy"
                f" 0 < lower <= upper <= 100, got [{lower}, {upper}]"
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
    construction, so the products ``alpha * links * unit`` are taken unchecked.
    The draws are ``rng.randint`` and ``rng.uniform`` written out, so they
    consume the same random stream and give the same values.
    """
    if topology is Topology.MST:
        lower, upper = ranges.mst_active_links_range
    else:
        lower, upper = ranges.rt_active_links_range
    # rng.randint(lower, upper) as CPython 3.10-3.13 computes it: draw
    # width.bit_length() random bits and redraw while they reach past width.
    width = upper - lower + 1
    bits = width.bit_length()
    offset = rng.getrandbits(bits)
    while offset >= width:
        offset = rng.getrandbits(bits)
    links = lower + offset
    # Each unit is rng.uniform(lower, upper), written out as its documented
    # expression.
    random = rng.random
    lower, upper = network.unit_write_time_range
    unit_write_time = lower + (upper - lower) * random()
    lower, upper = network.bandwidth_per_link_range
    bandwidth_per_link = lower + (upper - lower) * random()
    scale = network.alpha * links
    return Monitorables(links, scale * bandwidth_per_link, scale * unit_write_time)
