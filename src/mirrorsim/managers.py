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
from .network import MirrorNetwork, Monitorables, Topology, _MST, _RT, _int_text
from .runner import window_mean_pct
from .runner import normalize  # noqa: F401 -- unused; perfbench's tracer patches managers.normalize

WINDOW_LENGTH = 5
COOLDOWN = 3
SWITCH_PROBABILITY = 0.1
# Monitorables field positions: the columns the threshold rules fold.
_LINKS, _BANDWIDTH, _WRITE_TIME = 0, 1, 2

MANAGER_NAMES = ("null", "random", "threshold")


@dataclass(frozen=True)
class ManagerDecision:
    """Outcome of one decision tick: switch to a topology, or do nothing."""

    switch_to: Optional[Topology]
    rationale: str = ""

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
    """Noise baseline: switches topology with probability ``SWITCH_PROBABILITY``
    per step.

    Draws come from the manager's own rng stream, independent of the
    environment stream, so a probability of 0 would leave the trace identical
    to the null manager's.
    """

    def __init__(self, rng: Random) -> None:
        self.rng = rng

    def decide(self, probe) -> ManagerDecision:
        if self.rng.random() < SWITCH_PROBABILITY:
            return ManagerDecision.switch(probe.get_current_topology().other(), "random")
        return _NO_OP


class ThresholdRuleManager:
    """Rule-based MAPE-K loop over a sliding window of probed monitorables.

    The loop's knowledge is two attributes: ``window``, the last
    ``WINDOW_LENGTH`` probed ``Monitorables`` (the probe's own objects, oldest
    first), and ``last_adaptation_timestep``, the tick of the last switch (None
    before the first). Analyze compares window means, as percentages of the
    network's normalization bases, against the thresholds, and folds only the
    columns the current topology's rules read. Plan follows the topology
    trade-off: a reliability violation under MST switches to RT (reliability
    outranks the other objectives); a cost or performance violation under RT
    switches to MST. A cooldown suppresses switches for ``COOLDOWN`` timesteps
    after each one. Under scenarios where both topologies violate some
    objective this manager oscillates by design.
    """

    def __init__(self, network: MirrorNetwork, thresholds: SatisfactionThresholds) -> None:
        self.network = network
        self.thresholds = thresholds
        self.window: deque[Monitorables] = deque(maxlen=WINDOW_LENGTH)
        self.last_adaptation_timestep: Optional[int] = None
        self._tick = 0  # one decide() per timestep, so ticks count timesteps

    def decide(self, probe) -> ManagerDecision:
        tick = self._tick
        self._tick = tick + 1
        window = self.window

        monitorables = probe.get_monitorables()
        if monitorables is not None:
            window.append(monitorables)
        if not window:
            return _NO_OBSERVATIONS

        last_switch = self.last_adaptation_timestep
        if last_switch is not None and tick - last_switch <= COOLDOWN:
            return _COOLDOWN

        current = probe.get_current_topology()
        network = self.network
        thresholds = self.thresholds
        if current is _MST:
            links_pct = window_mean_pct(window, _LINKS, network.total_links)
            if links_pct < thresholds.min_active_links_pct:
                self.last_adaptation_timestep = tick
                return _SWITCH_FOR_RELIABILITY
        elif current is _RT:
            bandwidth_pct = window_mean_pct(window, _BANDWIDTH, network.bandwidth_basis)
            if bandwidth_pct > thresholds.max_bandwidth_pct:
                self.last_adaptation_timestep = tick
                return _SWITCH_FOR_COST
            write_time_pct = window_mean_pct(window, _WRITE_TIME, network.write_time_basis)
            if write_time_pct > thresholds.max_write_time_pct:
                self.last_adaptation_timestep = tick
                return _SWITCH_FOR_PERFORMANCE
        return _WITHIN_THRESHOLDS


def create_manager(
    name: str,
    *,
    network: MirrorNetwork,
    thresholds: SatisfactionThresholds,
    seed: int,
):
    """Instantiate a reference manager by name ("null", "random", "threshold")."""
    if name == "null":
        return NullManager()
    if name == "random":
        # String seeding hashes with sha512, so the stream is process-stable
        # and disjoint from the environment stream Random(seed).
        return RandomManager(Random(f"manager:{seed}"))
    if name == "threshold":
        return ThresholdRuleManager(network, thresholds)
    raise ValueError(f"unknown manager name: {_int_text(name)} (expected one of {MANAGER_NAMES})")
