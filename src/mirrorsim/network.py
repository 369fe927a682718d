"""Static model of the mirror network and its observable metrics.

The network is a fully connected graph of data mirrors described only by
aggregate facts: how many mirrors, how many links, and the per-link parameter
ranges. Each timestep the simulator draws an active-link count for the
selected topology plus one write-time unit and one per-link bandwidth, then
derives the two load metrics from the closed-form products below.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from random import Random
from typing import NamedTuple

DEFAULT_BANDWIDTH_PER_LINK_RANGE = (20.0, 30.0)  # GigaBytes/second
DEFAULT_UNIT_WRITE_TIME_RANGE = (10.0, 20.0)  # milliseconds
DEFAULT_ALPHA = 1.0
DEFAULT_MST_ACTIVE_LINKS_RANGE_PCT = (35.0, 50.0)
DEFAULT_RT_ACTIVE_LINKS_RANGE_PCT = (60.0, 90.0)


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


def _check_positive_range(name: str, bounds: tuple[float, float]) -> None:
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

    ``bandwidth_basis`` and ``write_time_basis`` (total_links times the upper
    bound of the per-link bandwidth and unit write time ranges) are the
    normalization bases. They are derived at construction and are not
    fields, so equality, hashing, repr and ``dataclasses.replace`` ignore them.
    """

    num_mirrors: int
    total_links: int
    bandwidth_per_link_range: tuple[float, float]  # GBps
    unit_write_time_range: tuple[float, float]  # ms
    alpha: float

    def __post_init__(self) -> None:
        if self.num_mirrors < 2:
            raise ValueError(f"need at least 2 mirrors, got {self.num_mirrors}")
        expected = self.num_mirrors * (self.num_mirrors - 1) // 2
        if self.total_links != expected:
            raise ValueError(
                f"total_links must be {expected} for {self.num_mirrors} mirrors,"
                f" got {self.total_links}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        _check_positive_range("bandwidth_per_link_range", self.bandwidth_per_link_range)
        _check_positive_range("unit_write_time_range", self.unit_write_time_range)
        object.__setattr__(
            self, "bandwidth_basis", self.total_links * self.bandwidth_per_link_range[1]
        )
        object.__setattr__(
            self, "write_time_basis", self.total_links * self.unit_write_time_range[1]
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

    def range_for(self, topology: Topology) -> tuple[int, int]:
        if topology is Topology.MST:
            return self.mst_active_links_range
        return self.rt_active_links_range


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
    if num_mirrors < 2:
        raise ValueError(f"need at least 2 mirrors, got {num_mirrors}")
    return MirrorNetwork(
        num_mirrors=num_mirrors,
        total_links=num_mirrors * (num_mirrors - 1) // 2,
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


def sample_active_links(topology: Topology, ranges: TopologyRanges, rng: Random) -> int:
    """Draw an active-link count uniformly from the range of ``topology``."""
    lower, upper = ranges.range_for(topology)
    return rng.randint(lower, upper)


def compute_writing_time(active_links: int, alpha: float, unit_write_time: float) -> float:
    """Total write time in ms: alpha * active_links * unit_write_time.

    Writes are acknowledged per active link on the communication path, so the
    total scales linearly with the link count.
    """
    if active_links < 0:
        raise ValueError("active_links must be >= 0")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if unit_write_time <= 0:
        raise ValueError("unit_write_time must be > 0")
    return alpha * active_links * unit_write_time


def compute_bandwidth(active_links: int, alpha: float, bandwidth_per_link: float) -> float:
    """Total bandwidth in GBps: alpha * active_links * bandwidth_per_link."""
    if active_links < 0:
        raise ValueError("active_links must be >= 0")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if bandwidth_per_link <= 0:
        raise ValueError("bandwidth_per_link must be > 0")
    return alpha * active_links * bandwidth_per_link


def sample_base_monitorables(
    topology: Topology,
    network: MirrorNetwork,
    ranges: TopologyRanges,
    rng: Random,
) -> Monitorables:
    """Sample one timestep's undisturbed monitorables.

    Draw order is part of the replay contract: active links first, then the
    unit write time, then the per-link bandwidth.
    """
    if topology is Topology.MST:
        lower, upper = ranges.mst_active_links_range
    else:
        lower, upper = ranges.rt_active_links_range
    links = rng.randint(lower, upper)
    lower, upper = network.unit_write_time_range
    unit_write_time = rng.uniform(lower, upper)
    lower, upper = network.bandwidth_per_link_range
    bandwidth_per_link = rng.uniform(lower, upper)
    alpha = network.alpha
    return Monitorables(
        links,
        compute_bandwidth(links, alpha, bandwidth_per_link),
        compute_writing_time(links, alpha, unit_write_time),
    )
