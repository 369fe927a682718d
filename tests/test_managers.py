from __future__ import annotations

from random import Random

import pytest

from mirrorsim.config import SatisfactionThresholds
from mirrorsim.managers import (
    COOLDOWN,
    WINDOW_LENGTH,
    ManagerDecision,
    NullManager,
    RandomManager,
    ThresholdRuleManager,
    create_manager,
)
from mirrorsim.network import Monitorables, Topology, build_network
from mirrorsim.runner import render_trace_csv, run

NETWORK = build_network(25)
THRESHOLDS = SatisfactionThresholds()


class StubProbe:
    def __init__(self, topology: Topology, monitorables):
        self.topology = topology
        self.monitorables = monitorables

    def get_current_topology(self) -> Topology:
        return self.topology

    def get_monitorables(self):
        return self.monitorables


def threshold_manager() -> ThresholdRuleManager:
    return ThresholdRuleManager(NETWORK, THRESHOLDS)


def test_null_manager_never_acts(make_config):
    manager = NullManager()
    decision = manager.decide(StubProbe(Topology.MST, None))
    assert decision.switch_to is None

    result = run(NullManager(), make_config(seed=4, timesteps=30))
    assert len(result.command_log) == 0
    assert all(record.adaptation is None for record in result.trace)


def test_random_manager_with_zero_probability_matches_null(make_config):
    random_result = run(
        RandomManager(0.0, Random("manager:4")), make_config(seed=4, timesteps=40)
    )
    null_result = run(NullManager(), make_config(seed=4, timesteps=40))
    assert render_trace_csv(random_result.trace) == render_trace_csv(null_result.trace)
    assert len(random_result.command_log) == 0


def test_random_manager_with_probability_one_alternates(make_config):
    result = run(RandomManager(1.0, Random(0)), make_config(seed=4, timesteps=6))
    topologies = [record.topology for record in result.trace]
    assert topologies == [
        Topology.RT,
        Topology.MST,
        Topology.RT,
        Topology.MST,
        Topology.RT,
        Topology.MST,
    ]
    assert all(record.adaptation is not None for record in result.trace)


def test_random_manager_is_seed_deterministic(make_config):
    first = run(RandomManager(0.5, Random(77)), make_config(seed=4))
    second = run(RandomManager(0.5, Random(77)), make_config(seed=4))
    assert first.command_log == second.command_log
    assert first.trace == second.trace


def test_random_manager_validates_probability():
    with pytest.raises(ValueError):
        RandomManager(1.5, Random(0))
    with pytest.raises(ValueError):
        RandomManager(-0.1, Random(0))


def test_threshold_switches_to_rt_on_reliability_violation():
    manager = threshold_manager()
    # 60/300 links = 20% < 35%: reliability violated while on MST.
    probe = StubProbe(Topology.MST, Monitorables(60, 2000.0, 1500.0))
    decision = manager.decide(probe)
    assert decision.switch_to is Topology.RT
    assert decision.rationale == "reliability"


def test_threshold_switches_to_mst_on_cost_violation():
    manager = threshold_manager()
    # 5000/9000 = 55.6% bandwidth > 40%: cost violated while on RT.
    probe = StubProbe(Topology.RT, Monitorables(225, 5000.0, 2000.0))
    decision = manager.decide(probe)
    assert decision.switch_to is Topology.MST
    assert decision.rationale == "cost"


def test_threshold_switches_to_mst_on_performance_violation():
    manager = threshold_manager()
    # 3000/6000 = 50% write time > 45% while bandwidth stays low.
    probe = StubProbe(Topology.RT, Monitorables(225, 3000.0, 3000.0))
    decision = manager.decide(probe)
    assert decision.switch_to is Topology.MST
    assert decision.rationale == "performance"


def test_threshold_noop_within_thresholds():
    manager = threshold_manager()
    probe = StubProbe(Topology.MST, Monitorables(120, 3000.0, 2000.0))
    assert manager.decide(probe).switch_to is None


def test_threshold_noop_without_observations():
    manager = threshold_manager()
    assert manager.decide(StubProbe(Topology.MST, None)).switch_to is None


def test_threshold_rule_gating_by_topology():
    # A cost violation while on MST is not this manager's trigger...
    manager = threshold_manager()
    probe = StubProbe(Topology.MST, Monitorables(150, 5000.0, 2000.0))
    assert manager.decide(probe).switch_to is None
    # ...and a reliability violation while on RT is not either.
    manager = threshold_manager()
    probe = StubProbe(Topology.RT, Monitorables(60, 2000.0, 1500.0))
    assert manager.decide(probe).switch_to is None


def test_threshold_cooldown_suppresses_switches():
    manager = threshold_manager()
    violating = StubProbe(Topology.MST, Monitorables(60, 2000.0, 1500.0))
    first = manager.decide(violating)
    assert first.switch_to is not None
    for _ in range(COOLDOWN):  # ticks 1..COOLDOWN sit inside the cooldown
        assert manager.decide(violating).rationale == "cooldown"
    assert manager.decide(violating).switch_to is not None


def test_threshold_switch_gaps_exceed_cooldown(make_config):
    config = make_config(scenario="S3", seed=12)
    manager = ThresholdRuleManager(config.network, config.properties.thresholds)
    result = run(manager, config)
    switch_steps = [record.timestep for record in result.trace if record.adaptation]
    assert switch_steps, "S3 should force at least one switch"
    gaps = [b - a for a, b in zip(switch_steps, switch_steps[1:])]
    assert all(gap > COOLDOWN for gap in gaps)


def test_threshold_reacts_to_s1_quickly(make_config):
    config = make_config(scenario="S1", seed=0)
    manager = ThresholdRuleManager(config.network, config.properties.thresholds)
    result = run(manager, config)
    switches = [record for record in result.trace if record.adaptation is Topology.RT]
    assert switches and switches[0].timestep <= 8


def test_threshold_quiet_under_s0(make_config):
    for seed in range(5):
        config = make_config(seed=seed)
        manager = ThresholdRuleManager(config.network, config.properties.thresholds)
        result = run(manager, config)
        assert len(result.command_log) == 0


def test_knowledge_base_window_caps():
    manager = threshold_manager()
    probe = StubProbe(Topology.MST, None)
    for links in range(150, 157):  # 50% .. 52% of 300 links, all within thresholds
        probe.monitorables = Monitorables(links, 2000.0, 1500.0)
        assert manager.decide(probe).rationale == "within thresholds"
    assert len(manager.window) == WINDOW_LENGTH
    # The window holds the newest observations, oldest first.
    assert [metrics.active_links_pct for metrics in manager.window] == [
        100.0 * links / NETWORK.total_links for links in range(152, 157)
    ]


def test_create_manager_registry():
    assert isinstance(
        create_manager("null", network=NETWORK, thresholds=THRESHOLDS, seed=1), NullManager
    )
    random_manager = create_manager("random", network=NETWORK, thresholds=THRESHOLDS, seed=1)
    assert isinstance(random_manager, RandomManager)
    threshold = create_manager("threshold", network=NETWORK, thresholds=THRESHOLDS, seed=1)
    assert isinstance(threshold, ThresholdRuleManager)
    with pytest.raises(ValueError):
        create_manager("oracle", network=NETWORK, thresholds=THRESHOLDS, seed=1)


def test_decision_constructors():
    assert ManagerDecision.no_op().switch_to is None
    switch = ManagerDecision.switch(Topology.RT, "test")
    assert switch.switch_to is Topology.RT
