"""Baseline managing systems.

A manager is any object with ``decide(probe) -> ManagerDecision``; the runner
invokes it once per timestep before the step executes and carries out the
returned topology switch (if any) through the effector. These baselines keep
the benchmark runnable and comparable out of the box; real decision
techniques attach in their place, or remotely via the wire adapter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Optional

from .config import SatisfactionThresholds
from .network import MirrorNetwork, Topology
from .runner import NormalizedMetrics, normalize

DEFAULT_WINDOW_LENGTH = 5
DEFAULT_COOLDOWN = 3
DEFAULT_SWITCH_PROBABILITY = 0.1

MANAGER_NAMES = ("null", "random", "threshold")


@dataclass(frozen=True)
class ManagerDecision:
    """Outcome of one decision tick: switch to a topology, or do nothing."""

    switch_to: Optional[Topology]
    rationale: str = ""

    @property
    def is_switch(self) -> bool:
        return self.switch_to is not None

    @classmethod
    def no_op(cls, rationale: str = "no-op") -> "ManagerDecision":
        return cls(switch_to=None, rationale=rationale)

    @classmethod
    def switch(cls, topology: Topology, rationale: str) -> "ManagerDecision":
        return cls(switch_to=topology, rationale=rationale)


# Decisions are immutable, so the baselines hand out shared instances rather
# than allocating one per tick.
_NO_OP = ManagerDecision.no_op()
_NO_OBSERVATIONS = ManagerDecision.no_op("no observations yet")
_COOLDOWN = ManagerDecision.no_op("cooldown")
_WITHIN_THRESHOLDS = ManagerDecision.no_op("within thresholds")
_SWITCH_FOR_RELIABILITY = ManagerDecision.switch(Topology.RT, "reliability")
_SWITCH_FOR_COST = ManagerDecision.switch(Topology.MST, "cost")
_SWITCH_FOR_PERFORMANCE = ManagerDecision.switch(Topology.MST, "performance")


class NullManager:
    """Control baseline: observes nothing, never adapts."""

    def decide(self, probe) -> ManagerDecision:
        return _NO_OP


class RandomManager:
    """Noise baseline: switches topology with a fixed per-step probability.

    Draws come from the manager's own rng stream, independent of the
    environment stream, so p=0 leaves the trace identical to the null
    manager's.
    """

    def __init__(self, switch_probability: float, rng: Random) -> None:
        if not 0.0 <= switch_probability <= 1.0:
            raise ValueError(f"switch_probability must be in [0, 1], got {switch_probability}")
        self.switch_probability = switch_probability
        self.rng = rng

    def decide(self, probe) -> ManagerDecision:
        if self.rng.random() < self.switch_probability:
            return ManagerDecision.switch(probe.get_current_topology().other(), "random")
        return _NO_OP


class KnowledgeBase:
    """Sliding window of recent normalized monitorables plus switch history."""

    def __init__(self, window_length: int = DEFAULT_WINDOW_LENGTH) -> None:
        if window_length < 1:
            raise ValueError("window_length must be >= 1")
        self.window: deque[NormalizedMetrics] = deque(maxlen=window_length)
        self.last_adaptation_timestep: Optional[int] = None

    def observe(self, metrics: NormalizedMetrics) -> None:
        self.window.append(metrics)

    def window_means(self) -> NormalizedMetrics:
        count = len(self.window)
        active_links, bandwidth, write_time = zip(*self.window)
        return NormalizedMetrics(
            sum(active_links) / count, sum(bandwidth) / count, sum(write_time) / count
        )


class ThresholdRuleManager:
    """Rule-based MAPE loop over a sliding-window knowledge base.

    Analyze compares window means against the thresholds. Plan follows the
    topology trade-off: a reliability violation under MST switches to RT
    (reliability outranks the other objectives); a cost or performance
    violation under RT switches to MST. A cooldown suppresses switches for
    ``cooldown`` timesteps after each one. Under scenarios where both
    topologies violate some objective this manager oscillates by design.
    """

    def __init__(
        self,
        network: MirrorNetwork,
        thresholds: SatisfactionThresholds,
        window_length: int = DEFAULT_WINDOW_LENGTH,
        cooldown: int = DEFAULT_COOLDOWN,
    ) -> None:
        self.network = network
        self.thresholds = thresholds
        self.cooldown = cooldown
        self.knowledge = KnowledgeBase(window_length)
        self._tick = 0  # one decide() per timestep, so ticks count timesteps

    def decide(self, probe) -> ManagerDecision:
        tick = self._tick
        self._tick = tick + 1
        knowledge = self.knowledge

        monitorables = probe.get_monitorables()
        if monitorables is not None:
            knowledge.observe(normalize(monitorables, self.network))
        if not knowledge.window:
            return _NO_OBSERVATIONS

        last_switch = knowledge.last_adaptation_timestep
        if last_switch is not None and tick - last_switch <= self.cooldown:
            return _COOLDOWN

        means = knowledge.window_means()
        current = probe.get_current_topology()
        thresholds = self.thresholds
        if means.active_links_pct < thresholds.min_active_links_pct and current is Topology.MST:
            knowledge.last_adaptation_timestep = tick
            return _SWITCH_FOR_RELIABILITY
        if current is Topology.RT:
            if means.bandwidth_pct > thresholds.max_bandwidth_pct:
                knowledge.last_adaptation_timestep = tick
                return _SWITCH_FOR_COST
            if means.write_time_pct > thresholds.max_write_time_pct:
                knowledge.last_adaptation_timestep = tick
                return _SWITCH_FOR_PERFORMANCE
        return _WITHIN_THRESHOLDS


def create_manager(
    name: str,
    *,
    network: MirrorNetwork,
    thresholds: SatisfactionThresholds,
    seed: int,
    switch_probability: float = DEFAULT_SWITCH_PROBABILITY,
    window_length: int = DEFAULT_WINDOW_LENGTH,
    cooldown: int = DEFAULT_COOLDOWN,
):
    """Instantiate a reference manager by name ("null", "random", "threshold")."""
    if name == "null":
        return NullManager()
    if name == "random":
        # String seeding hashes with sha512, so the stream is process-stable
        # and disjoint from the environment stream Random(seed).
        return RandomManager(switch_probability, Random(f"manager:{seed}"))
    if name == "threshold":
        return ThresholdRuleManager(network, thresholds, window_length, cooldown)
    raise ValueError(f"unknown manager name: {name!r} (expected one of {MANAGER_NAMES})")
