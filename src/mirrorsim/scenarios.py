"""Environmental scenarios applied on top of the sampled monitorables.

A scenario is a pair of effect sets, one per topology, each holding three
multiplier intervals. Every active timestep one factor is drawn per interval
and applied to the base monitorables. S0 is the stable baseline (all
intervals [1, 1]); S1-S6 degrade specific objectives while a specific
topology is selected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from random import Random

from .network import (
    MirrorNetwork,
    Monitorables,
    Topology,
    check_positive_range,
    round_half_up,
)

Interval = tuple[float, float]

IDENTITY_INTERVAL: Interval = (1.0, 1.0)
DEFAULT_LINK_REDUCTION: Interval = (0.4, 0.7)
DEFAULT_LOAD_INFLATION: Interval = (1.3, 1.6)


class ScenarioId(enum.Enum):
    S0 = "S0"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"
    S5 = "S5"
    S6 = "S6"

    @classmethod
    def parse(cls, name: object) -> "ScenarioId":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().upper())
        except ValueError:
            raise ValueError(f"unknown scenario id: {name!r}") from None


@dataclass(frozen=True)
class EffectSet:
    """Multiplier intervals applied to one topology's monitorables."""

    active_links_factor: Interval = IDENTITY_INTERVAL
    bandwidth_factor: Interval = IDENTITY_INTERVAL
    write_time_factor: Interval = IDENTITY_INTERVAL

    def __post_init__(self) -> None:
        for name in FACTOR_NAMES:
            check_positive_range(name, getattr(self, name))

    def compose(self, other: "EffectSet") -> "EffectSet":
        """Per-field interval product: both effects applied in sequence."""
        products = {}
        for name in FACTOR_NAMES:
            (lower, upper), (other_lower, other_upper) = getattr(self, name), getattr(other, name)
            products[name] = (lower * other_lower, upper * other_upper)
        return EffectSet(**products)


# One name per EffectSet field, in field order.
FACTOR_NAMES = tuple(field.name for field in fields(EffectSet))
IDENTITY_EFFECTS = EffectSet()


@dataclass(frozen=True)
class DisturbanceProfile:
    """Topology-conditional disturbance for one scenario."""

    mst_effects: EffectSet = IDENTITY_EFFECTS
    rt_effects: EffectSet = IDENTITY_EFFECTS


_REDUCE_LINKS = EffectSet(active_links_factor=DEFAULT_LINK_REDUCTION)
_INFLATE_LOAD = EffectSet(
    bandwidth_factor=DEFAULT_LOAD_INFLATION,
    write_time_factor=DEFAULT_LOAD_INFLATION,
)
_BOTH = _REDUCE_LINKS.compose(_INFLATE_LOAD)
# The scenario catalogue: each scenario's default disturbance profile and its
# initial topology, None for a fair coin. Checked once at import;
# ``scenario_profile`` returns these shared profile instances.
CATALOGUE = {
    ScenarioId.S0: (DisturbanceProfile(), Topology.MST),
    # Reliability drop while MST is selected; RT untouched.
    ScenarioId.S1: (DisturbanceProfile(mst_effects=_REDUCE_LINKS), Topology.MST),
    # Cost and write-time inflation while RT is selected; MST untouched.
    ScenarioId.S2: (DisturbanceProfile(rt_effects=_INFLATE_LOAD), Topology.RT),
    # S1 and S2 at once.
    ScenarioId.S3: (
        DisturbanceProfile(mst_effects=_REDUCE_LINKS, rt_effects=_INFLATE_LOAD), None
    ),
    # S1 plus load inflation, all while MST is selected.
    ScenarioId.S4: (DisturbanceProfile(mst_effects=_BOTH), Topology.MST),
    # S2 plus a reliability drop, all while RT is selected.
    ScenarioId.S5: (DisturbanceProfile(rt_effects=_BOTH), Topology.RT),
    # S4 and S5 at once: every objective degraded under either topology.
    ScenarioId.S6: (DisturbanceProfile(mst_effects=_BOTH, rt_effects=_BOTH), None),
}


def scenario_profile(scenario: ScenarioId) -> DisturbanceProfile:
    """Return the scenario's default disturbance profile (one shared instance).

    A configuration's ``disturbances`` overrides are built into its
    ``scenario_profiles`` at load time.
    """
    return CATALOGUE[ScenarioId.parse(scenario)][0]


def initial_topology(scenario: ScenarioId, rng: Random) -> Topology:
    """Starting topology for a run: fixed per scenario, a fair coin for S3/S6."""
    fixed = CATALOGUE[ScenarioId.parse(scenario)][1]
    if fixed is not None:
        return fixed
    return Topology.MST if rng.random() < 0.5 else Topology.RT


def apply_disturbance(
    effects: EffectSet, base: Monitorables, rng: Random, network: MirrorNetwork
) -> Monitorables:
    """Disturb one timestep's base monitorables with one topology's effect set.

    One factor per interval is drawn, identity intervals included, so the rng
    stream stays aligned across scenarios. The link factor is applied first
    (clamped to total_links, then rounded half-up); the derived metrics are
    rescaled to the disturbed link count before their own factors apply,
    keeping them consistent with the closed-form products. The step decides
    whether the disturbance window is open and which topology's set applies.
    """
    # Each factor is rng.uniform(lower, upper), written out as its documented
    # expression: the same draw and the same value.
    random = rng.random
    lower, upper = effects.active_links_factor
    links_factor = lower + (upper - lower) * random()
    lower, upper = effects.bandwidth_factor
    bandwidth_factor = lower + (upper - lower) * random()
    lower, upper = effects.write_time_factor
    write_time_factor = lower + (upper - lower) * random()

    active_links, bandwidth, write_time = base
    # Compared before rounding: a product past the float range is infinite
    # and cannot be rounded, but is clamped like any other.
    links = active_links * links_factor
    links = round_half_up(links) if links < network.total_links else network.total_links
    ratio = links / active_links if active_links else 1.0
    return Monitorables(
        links, bandwidth * ratio * bandwidth_factor, write_time * ratio * write_time_factor
    )
