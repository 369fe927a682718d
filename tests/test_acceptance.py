"""Acceptance suite: one test per release criterion, printed as a pass line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion. Statistical checks use fixed seed sets, so outcomes are
reproducible, and each test asserts its own wall-clock budget.
"""

from __future__ import annotations

import math
import time
from random import Random

from mirrorsim.config import config_from_mapping
from mirrorsim.managers import ManagerDecision, NullManager, ThresholdRuleManager
from mirrorsim.network import (
    Topology,
    build_network,
    sample_base_monitorables,
    topology_ranges_from_pct,
)
from mirrorsim.runner import build_simulation, render_trace_csv, replay, run

from wire_helpers import WireHarness, drive_threshold_policy

SEEDS = range(30)


def make_config(**mapping):
    return config_from_mapping(mapping)


def report(criterion: str, elapsed: float, limit: float, detail: str) -> None:
    assert elapsed < limit, f"{criterion} exceeded its {limit}s budget ({elapsed:.2f}s)"
    print(f"[{criterion}] PASS in {elapsed:.2f}s: {detail}")


class PinTopologyManager:
    """Issues one switch at t=0 and then holds the topology."""

    def __init__(self, target: Topology) -> None:
        self.target = target

    def decide(self, probe) -> ManagerDecision:
        if probe.get_current_topology() is not self.target:
            return ManagerDecision.switch(self.target, "pin")
        return ManagerDecision.no_op()


def test_a01_network_law():
    start = time.monotonic()
    expected = {2: 1, 3: 3, 10: 45, 25: 300, 50: 1225}
    for mirrors, links in expected.items():
        assert build_network(mirrors).total_links == links
    report("A1", time.monotonic() - start, 1.0, "total_links = m(m-1)/2 for m in {2,3,10,25,50}")


def test_a02_formula_conformance():
    start = time.monotonic()
    # Sampled monitorables must match the formulas applied to the drawn units
    # (recovered through a cloned rng, relying on the documented draw order).
    checked = 0
    for seed in range(2_500):
        alpha = Random(seed).uniform(0.05, 1.0)
        network = build_network(5 + seed % 30, alpha=alpha)
        ranges = topology_ranges_from_pct(network)
        for topology in (Topology.MST, Topology.RT):
            sample_rng, clone = Random(seed), Random(seed)
            sampled = sample_base_monitorables(topology, network, ranges, sample_rng)
            links = clone.randint(*(ranges.mst_active_links_range if topology is Topology.MST
                                    else ranges.rt_active_links_range))
            unit_write_time = clone.uniform(*network.unit_write_time_range)
            unit_bandwidth = clone.uniform(*network.bandwidth_per_link_range)
            assert sampled.active_links == links
            assert math.isclose(sampled.time_to_write, alpha * links * unit_write_time,
                                rel_tol=1e-9)
            assert math.isclose(sampled.bandwidth_consumption, alpha * links * unit_bandwidth,
                                rel_tol=1e-9)
            checked += 1
    report("A2", time.monotonic() - start, 5.0,
           f"{checked} sampled monitorables within 1e-9")


def test_a03_s0_satisfaction():
    start = time.monotonic()
    summaries = [run(NullManager(), make_config(scenario="S0", seed=seed)).summary
                 for seed in SEEDS]
    all_satisfied = sum(
        1 for s in summaries if s.mc_satisfied and s.mp_satisfied and s.mr_satisfied
    )
    assert all_satisfied >= 27  # >= 90% of 30 seeds
    mean_bandwidth = sum(s.mean_bandwidth_pct for s in summaries) / len(summaries)
    mean_write_time = sum(s.mean_write_time_pct for s in summaries) / len(summaries)
    mean_links = sum(s.mean_active_links_pct for s in summaries) / len(summaries)
    assert mean_bandwidth <= 40.0 and mean_write_time <= 45.0 and mean_links >= 35.0
    report("A3", time.monotonic() - start, 10.0,
           f"S0 satisfied in {all_satisfied}/30 seeds; means bw={mean_bandwidth:.1f}% "
           f"wt={mean_write_time:.1f}% links={mean_links:.1f}%")


def test_a04_s1_degradation():
    start = time.monotonic()
    summaries = [run(NullManager(), make_config(scenario="S1", seed=seed)).summary
                 for seed in SEEDS]
    mr_failed = sum(1 for s in summaries if not s.mr_satisfied)
    mc_held = sum(1 for s in summaries if s.mc_satisfied)
    mp_held = sum(1 for s in summaries if s.mp_satisfied)
    assert mr_failed >= 27 and mc_held >= 27 and mp_held >= 27
    report("A4", time.monotonic() - start, 10.0,
           f"S1/MST: mr failed {mr_failed}/30, mc held {mc_held}/30, mp held {mp_held}/30")


def test_a05_s2_degradation():
    start = time.monotonic()
    summaries = [run(NullManager(), make_config(scenario="S2", seed=seed)).summary
                 for seed in SEEDS]
    mc_failed = sum(1 for s in summaries if not s.mc_satisfied)
    assert mc_failed >= 27
    report("A5", time.monotonic() - start, 10.0, f"S2/RT: mc failed {mc_failed}/30")


def test_a06_topology_gating():
    start = time.monotonic()
    for seed in (11, 12, 13):
        s0 = run(PinTopologyManager(Topology.RT), make_config(scenario="S0", seed=seed))
        s1 = run(PinTopologyManager(Topology.RT), make_config(scenario="S1", seed=seed))
        assert all(record.topology is Topology.RT for record in s1.trace)
        assert render_trace_csv(s0.trace) == render_trace_csv(s1.trace)
    report("A6", time.monotonic() - start, 5.0,
           "S1 forced to RT is trace-identical to S0 (3 seeds, byte equality)")


def test_a07_adaptation_efficacy():
    start = time.monotonic()
    window_start, reaction_budget = 10, 8  # W + C = 5 + 3
    latencies = []
    for seed in SEEDS:
        config = make_config(scenario="S1", seed=seed, disturbance_window=[10, 99])
        manager = ThresholdRuleManager(config.network, config.properties.thresholds)
        result = run(manager, config)
        switches = [r for r in result.trace if r.adaptation is not None]
        assert switches, f"seed {seed}: no switch issued"
        first = switches[0]
        assert first.adaptation is Topology.RT
        assert window_start < first.timestep <= window_start + reaction_budget
        post = [r.active_links_pct for r in result.trace if r.timestep >= first.timestep]
        assert sum(post) / len(post) >= 35.0
        latencies.append(first.timestep - window_start)
    report("A7", time.monotonic() - start, 10.0,
           f"threshold manager switched MST->RT within {max(latencies)} steps of window start "
           f"(budget {reaction_budget}) in 30/30 seeds, post-switch reliability held")


def test_a08_determinism_and_replay():
    start = time.monotonic()

    def fresh_run():
        config = make_config(scenario="S1", seed=5)
        manager = ThresholdRuleManager(config.network, config.properties.thresholds)
        return config, run(manager, config)

    config, first = fresh_run()
    _, second = fresh_run()
    assert render_trace_csv(first.trace) == render_trace_csv(second.trace)
    replayed = replay(first.command_log, config)
    assert render_trace_csv(replayed.trace) == render_trace_csv(first.trace)
    assert replayed.command_log == first.command_log
    report("A8", time.monotonic() - start, 5.0,
           "byte-identical traces across executions and command-log replay")


def test_a09_effector_contract():
    start = time.monotonic()
    sim = build_simulation(make_config(scenario="S2", seed=1, timesteps=12))
    sim.effector.set_network_topology(10, "mst")  # issued at step 0
    while not sim.finished:
        sim.step()
    records = sim.trace
    assert all(record.topology is Topology.RT for record in records[:10])
    assert records[10].topology is Topology.MST
    assert records[10].adaptation is Topology.MST
    assert records[11].topology is Topology.MST
    report("A9", time.monotonic() - start, 1.0,
           "set_network_topology(10, mst) switched exactly at timestep 10")


def test_a10_wire_equivalence():
    start = time.monotonic()
    for seed in range(5):
        config = make_config(scenario="S1", seed=seed)
        manager = ThresholdRuleManager(config.network, config.properties.thresholds)
        in_process = run(manager, config)
        with WireHarness(make_config(scenario="S1", seed=seed)) as harness:
            drive_threshold_policy(harness)
        assert harness.result is not None and harness.result.completed
        assert render_trace_csv(harness.result.trace) == render_trace_csv(in_process.trace)
        assert harness.result.summary == in_process.summary
    report("A10", time.monotonic() - start, 10.0,
           "remote threshold client is byte-identical to in-process for 5 shared seeds")


def test_a11_table_coverage():
    start = time.monotonic()
    sim = build_simulation(make_config())
    probes = {
        "get_current_topology",
        "get_bandwidth_consumption",
        "get_active_links",
        "get_time_to_write",
        "get_monitorables",
    }
    effectors = {
        "set_network_topology",
        "set_active_links",
        "set_time_to_write",
        "set_bandwidth_consumption",
        "set_current_topology",
    }
    probe_surface = {name for name in dir(sim.probe) if name.startswith(("get_", "set_"))}
    effector_surface = {name for name in dir(sim.effector) if name.startswith(("get_", "set_"))}
    assert probe_surface == probes
    assert effector_surface == effectors
    for name in probes:
        assert callable(getattr(sim.probe, name))
    for name in effectors:
        assert callable(getattr(sim.effector, name))
    report("A11", time.monotonic() - start, 1.0,
           "exactly one operation per published probe/effector row (5 + 5)")
