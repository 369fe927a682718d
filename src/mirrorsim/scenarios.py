"""Environmental scenarios applied on top of the sampled monitorables.

A scenario is a pair of effect sets, one per topology, each holding three
multiplier intervals. Every active timestep one factor is drawn per interval
and applied to the base monitorables. S0 is the stable baseline (all
intervals [1, 1]); S1-S6 degrade specific objectives while a specific
topology is selected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random
from typing import Optional

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

FACTOR_NAMES = ("active_links_factor", "bandwidth_factor", "write_time_factor")


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

        def mul(a: Interval, b: Interval) -> Interval:
            return (a[0] * b[0], a[1] * b[1])

        return EffectSet(
            active_links_factor=mul(self.active_links_factor, other.active_links_factor),
            bandwidth_factor=mul(self.bandwidth_factor, other.bandwidth_factor),
            write_time_factor=mul(self.write_time_factor, other.write_time_factor),
        )


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
# Checked once at import; ``scenario_profile`` returns these shared instances.
_DEFAULT_PROFILES = {
    ScenarioId.S0: DisturbanceProfile(),
    # Reliability drop while MST is selected; RT untouched.
    ScenarioId.S1: DisturbanceProfile(mst_effects=_REDUCE_LINKS),
    # Cost and write-time inflation while RT is selected; MST untouched.
    ScenarioId.S2: DisturbanceProfile(rt_effects=_INFLATE_LOAD),
    # S1 and S2 at once.
    ScenarioId.S3: DisturbanceProfile(mst_effects=_REDUCE_LINKS, rt_effects=_INFLATE_LOAD),
    # S1 plus load inflation, all while MST is selected.
    ScenarioId.S4: DisturbanceProfile(mst_effects=_BOTH),
    # S2 plus a reliability drop, all while RT is selected.
    ScenarioId.S5: DisturbanceProfile(rt_effects=_BOTH),
    # S4 and S5 at once: every objective degraded under either topology.
    ScenarioId.S6: DisturbanceProfile(mst_effects=_BOTH, rt_effects=_BOTH),
}


def scenario_profile(scenario: ScenarioId) -> DisturbanceProfile:
    """Return the scenario's default disturbance profile (one shared instance).

    A configuration's ``disturbances`` overrides are built into its
    ``scenario_profiles`` at load time.
    """
    return _DEFAULT_PROFILES[ScenarioId.parse(scenario)]


@dataclass(frozen=True)
class ScenarioState:
    """A scenario plus the timestep window during which it disturbs the run."""

    scenario: ScenarioId
    profile: DisturbanceProfile
    window: Optional[tuple[int, int]] = None  # inclusive [start, end]; None = whole run

    def __post_init__(self) -> None:
        if self.window is not None:
            start, end = self.window
            if start < 0 or start > end:
                raise ValueError(f"invalid disturbance window: [{start}, {end}]")

    def active_at(self, timestep: int) -> bool:
        if self.window is None:
            return True
        start, end = self.window
        return start <= timestep <= end


_FIXED_INITIAL_TOPOLOGY = {
    ScenarioId.S0: Topology.MST,
    ScenarioId.S1: Topology.MST,
    ScenarioId.S4: Topology.MST,
    ScenarioId.S2: Topology.RT,
    ScenarioId.S5: Topology.RT,
}


def initial_topology(scenario: ScenarioId, rng: Random) -> Topology:
    """Starting topology for a run: fixed per scenario, a fair coin for S3/S6."""
    fixed = _FIXED_INITIAL_TOPOLOGY.get(ScenarioId.parse(scenario))
    if fixed is not None:
        return fixed
    return Topology.MST if rng.random() < 0.5 else Topology.RT


def apply_disturbance(
    state: ScenarioState,
    current_topology: Topology,
    base: Monitorables,
    timestep: int,
    rng: Random,
    network: MirrorNetwork,
) -> Monitorables:
    """Disturb one timestep's base monitorables.

    Outside the window the base passes through untouched (and the rng is not
    consumed). Inside it, one factor per interval is drawn, identity effect
    sets included, so the rng stream stays aligned across scenarios. The link
    factor is applied first (rounded half-up, clamped to [0, total_links]);
    the derived metrics are rescaled to the disturbed link count before their
    own factors apply, keeping them consistent with the closed-form products.
    """
    if timestep < 0:
        raise ValueError("timestep must be >= 0")
    window = state.window  # state.active_at(timestep), without the method call
    if window is not None and not window[0] <= timestep <= window[1]:
        return base
    profile = state.profile
    effects = profile.mst_effects if current_topology is Topology.MST else profile.rt_effects
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
    links = round_half_up(active_links * links_factor)
    if links < 0:
        links = 0
    elif links > network.total_links:
        links = network.total_links
    ratio = links / active_links if active_links else 1.0
    return Monitorables(
        links, bandwidth * ratio * bandwidth_factor, write_time * ratio * write_time_factor
    )
