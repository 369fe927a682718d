from __future__ import annotations

import dataclasses
import gc
import math
import pickle
import tracemalloc
from copy import deepcopy

import pytest

import mirrorsim.runner
from mirrorsim.config import SatisfactionThresholds
from mirrorsim.management import CommandKind, CommandLog, EffectorCommand, EffectorError
from mirrorsim.managers import WINDOW_LENGTH, ManagerDecision, NullManager, ThresholdRuleManager
from mirrorsim.network import Monitorables, Topology, build_network
from mirrorsim.runner import (
    TRACE_CSV_HEADER,
    TRACE_FIELDS,
    ManagerError,
    SimulationError,
    Trace,
    TraceRecord,
    build_simulation,
    evaluate_satisfaction,
    normalize,
    render_trace_csv,
    replay,
    run,
)
from mirrorsim.scenarios import ScenarioId, apply_disturbance
from test_kernels import forbidden, reference_summary
from test_managers import StubProbe

NETWORK = build_network(25)


def overridden_trace(make_config, steps) -> Trace:
    """The S0 trace of one step per (links, bandwidth, write time) in
    ``steps``, each value set through the effector (300 links, bases 9,000 GBps
    and 6,000 ms)."""
    sim = build_simulation(make_config(timesteps=len(steps)))
    for links, bandwidth, write_time in steps:
        sim.effector.set_active_links(links)
        sim.effector.set_bandwidth_consumption(bandwidth)
        sim.effector.set_time_to_write(write_time)
        sim.step()
    return sim.trace


def test_normalize_examples():
    assert normalize(Monitorables(105, 0.0, 0.0), NETWORK).active_links_pct == 35.0
    bandwidth_pct = normalize(Monitorables(0, 2100.0, 0.0), NETWORK).bandwidth_pct
    assert math.isclose(bandwidth_pct, 100.0 * 2100.0 / 9000.0, rel_tol=1e-12)
    assert round(bandwidth_pct, 2) == 23.33
    assert normalize(Monitorables(0, 0.0, 6000.0), NETWORK).write_time_pct == 100.0


def test_trace_has_consecutive_timesteps(make_config):
    result = run(NullManager(), make_config(timesteps=50, seed=13))
    assert len(result.trace) == 50
    assert [r.timestep for r in result.trace] == list(range(50))
    assert all(0.0 <= r.active_links_pct <= 100.0 for r in result.trace)


def test_step_past_end_rejected(make_config):
    sim = build_simulation(make_config(timesteps=1))
    sim.step()
    with pytest.raises(SimulationError):
        sim.step()


def test_golden_trace_csv(make_config):
    config = make_config(
        number_of_mirrors=2,
        timesteps=2,
        seed=123,
        bandwidth_per_link_range=[30.0, 30.0],
        unit_write_time_range=[20.0, 20.0],
    )
    result = run(NullManager(), config)
    expected = (
        "timestep,topology,active_links,bandwidth_gbps,time_to_write_ms,"
        "active_links_pct,bandwidth_pct,write_time_pct,adaptation\n"
        "0,mst,1,30.000000,20.000000,100.000000,100.000000,100.000000,\n"
        "1,mst,1,30.000000,20.000000,100.000000,100.000000,100.000000,\n"
    )
    assert render_trace_csv(result.trace) == expected


def test_evaluate_satisfaction_boundaries(make_config):
    thresholds = SatisfactionThresholds()
    at_limits = overridden_trace(make_config, [(105, 3600.0, 2700.0)] * 4)
    assert [record[5:8] for record in at_limits] == [(35.0, 40.0, 45.0)] * 4
    summary = evaluate_satisfaction(at_limits, thresholds)
    assert summary.mc_satisfied and summary.mp_satisfied and summary.mr_satisfied

    over_cost = overridden_trace(make_config, [(105, 3600.9, 2700.0)])
    summary = evaluate_satisfaction(over_cost, thresholds)
    assert summary.mean_bandwidth_pct > thresholds.max_bandwidth_pct
    assert not summary.mc_satisfied
    assert summary.mp_satisfied and summary.mr_satisfied

    single = overridden_trace(make_config, [(150, 900.0, 1200.0)])
    summary = evaluate_satisfaction(single, thresholds)
    assert summary.mean_active_links_pct == 50.0
    assert summary.mean_bandwidth_pct == 10.0
    assert summary.mean_write_time_pct == 20.0


def test_evaluate_rejects_empty_trace():
    with pytest.raises(ValueError):
        evaluate_satisfaction(Trace(NETWORK), SatisfactionThresholds())


# Ten tenths folded left to right from 0.0 sum to 0.9999999999999999; the
# compensated ``sum()`` of CPython 3.12+ gives 1.0, so a mean of exactly 0.1
# means the summation changed.
TENTHS_MEAN = 0.9999999999999999 / 10


def test_summary_and_window_means_use_the_left_fold(make_config):
    assert TENTHS_MEAN != 0.1
    # 9 GBps and 6 ms are 0.1% of their bases.
    tenths = overridden_trace(make_config, [(300, 9.0, 6.0)] * 10)
    assert [record[6:8] for record in tenths] == [(0.1, 0.1)] * 10
    summary = evaluate_satisfaction(tenths, SatisfactionThresholds())
    assert summary.mean_bandwidth_pct == TENTHS_MEAN
    assert summary.mean_write_time_pct == TENTHS_MEAN

    # 100, 100, 149, 100 and 100 of 300 links fold left to right to a mean of
    # 36.60000000000001; the correctly rounded sum gives 36.6.
    links = (100, 100, 149, 100, 100)
    assert len(links) == WINDOW_LENGTH
    left_fold_mean = 36.60000000000001
    assert math.fsum(100.0 * count / NETWORK.total_links for count in links) / len(links) == 36.6
    linked = overridden_trace(make_config, [(count, 9.0, 6.0) for count in links])
    summary = evaluate_satisfaction(linked, SatisfactionThresholds())
    assert summary.mean_active_links_pct == left_fold_mean

    def decide_on_mst(min_active_links_pct: float) -> ManagerDecision:
        thresholds = SatisfactionThresholds(min_active_links_pct=min_active_links_pct)
        manager = ThresholdRuleManager(NETWORK, thresholds)
        # Under RT the reliability rule does not apply, and low loads keep the
        # cost and performance rules quiet while the window fills.
        probe = StubProbe(Topology.RT, None)
        for count in links:
            probe.monitorables = Monitorables(count, 1.0, 1.0)
            assert manager.decide(probe).rationale == "within thresholds"
        # On MST with no new observation, the rule reads the full window.
        probe.topology, probe.monitorables = Topology.MST, None
        return manager.decide(probe)

    # The left-fold mean equals the bound, so the manager stays quiet; a
    # compensated sum would put the mean below it and switch to RT.
    assert decide_on_mst(left_fold_mean).switch_to is None
    assert decide_on_mst(math.nextafter(left_fold_mean, math.inf)).switch_to is Topology.RT


def test_summary_dict_shape(make_config):
    result = run(NullManager(), make_config(timesteps=5))
    payload = result.summary.as_dict()
    assert list(payload) == [
        "mean_bandwidth_pct",
        "mean_write_time_pct",
        "mean_active_links_pct",
        "mc_satisfied",
        "mp_satisfied",
        "mr_satisfied",
    ]


def test_run_is_deterministic(make_config):
    def fresh():
        config = make_config(scenario="S1", seed=17)
        manager = ThresholdRuleManager(config.network, config.properties.thresholds)
        return run(manager, config)

    first, second = fresh(), fresh()
    assert first.trace == second.trace
    assert first.summary == second.summary
    assert first.command_log == second.command_log
    assert render_trace_csv(first.trace) == render_trace_csv(second.trace)


def test_lockstep_states_match(make_config):
    sim_a = build_simulation(make_config(seed=31))
    sim_b = build_simulation(make_config(seed=31))
    for _ in range(20):
        sim_a.step()
        sim_b.step()
        assert sim_a.trace[-1] == sim_b.trace[-1]


def test_replay_reproduces_mixed_commands(make_config):
    config = make_config(seed=8, timesteps=10)
    sim = build_simulation(config)
    sim.effector.set_active_links(290)
    sim.effector.set_time_to_write(123.0)
    sim.step()
    sim.effector.set_network_topology(3, "rt")
    sim.step()
    sim.effector.set_bandwidth_consumption(50.5)
    for _ in range(8):
        sim.step()

    replayed = replay(sim.command_log, config)
    assert replayed.trace == tuple(sim.trace)
    assert replayed.command_log == sim.command_log


@pytest.mark.parametrize("issued_at", [5, 7, -1, 2.0, "3", None, True])
def test_replay_refuses_a_command_issued_outside_the_run(make_config, monkeypatch, issued_at):
    config = make_config(timesteps=5)
    links = CommandKind.SET_ACTIVE_LINKS
    log = [EffectorCommand(links, 120, 4), EffectorCommand(links, 130, issued_at),
           EffectorCommand(links, 140, 9)]
    assert replay(log[:1], config).command_log == log[:1]  # the last timestep replays
    monkeypatch.setattr(mirrorsim.runner, "build_simulation", forbidden("build_simulation"))
    message = (f"^command 1 \\(set_active_links\\) was issued at timestep {issued_at!r},"
               " outside the run's 0..4$")
    with pytest.raises(EffectorError, match=message):
        replay(log, config)


def test_runs_share_the_configured_override_profile(make_config):
    config = make_config(
        scenario="S1", disturbances={"S1": {"mst": {"active_links_factor": [0.5, 0.6]}}}
    )
    profile = config.scenario_profiles[ScenarioId.S1]
    assert profile.mst_effects.active_links_factor == (0.5, 0.6)
    assert build_simulation(config).profile is profile
    assert build_simulation(config).profile is profile


def test_replay_reproduces_manager_run(make_config):
    config = make_config(scenario="S1", seed=5)
    manager = ThresholdRuleManager(config.network, config.properties.thresholds)
    original = run(manager, config)
    replayed = replay(original.command_log, config)
    assert render_trace_csv(replayed.trace) == render_trace_csv(original.trace)
    assert replayed.summary == original.summary
    assert replayed.command_log == original.command_log


def test_manager_error_carries_timestep(make_config):
    class Exploding:
        def __init__(self):
            self.calls = 0

        def decide(self, probe):
            if self.calls == 3:
                raise RuntimeError("boom")
            self.calls += 1
            return ManagerDecision.no_op()

    with pytest.raises(ManagerError) as excinfo:
        run(Exploding(), make_config(timesteps=10))
    assert excinfo.value.timestep == 3
    assert "timestep 3" in str(excinfo.value)


def test_s0_defaults_stay_in_expected_bands(make_config):
    result = run(NullManager(), make_config(seed=2))
    for record in result.trace:
        assert 35.0 <= record.active_links_pct <= 50.0
        assert record.topology is Topology.MST
        assert record.adaptation is None
    assert result.summary.mc_satisfied
    assert result.summary.mp_satisfied
    assert result.summary.mr_satisfied


def test_trace_csv_header_contract():
    assert TRACE_CSV_HEADER == (
        "timestep,topology,active_links,bandwidth_gbps,time_to_write_ms,"
        "active_links_pct,bandwidth_pct,write_time_pct,adaptation"
    )


def test_summary_recomputable_from_emitted_csv(make_config):
    # The verdicts are a pure fold over the trace: an independent pass over
    # the CSV text must agree with the summary object.
    config = make_config(scenario="S2", seed=6)
    result = run(NullManager(), config)
    rows = [line.split(",") for line in render_trace_csv(result.trace).splitlines()[1:]]
    links_mean = sum(float(row[5]) for row in rows) / len(rows)
    bandwidth_mean = sum(float(row[6]) for row in rows) / len(rows)
    write_time_mean = sum(float(row[7]) for row in rows) / len(rows)
    thresholds = config.properties.thresholds
    assert math.isclose(links_mean, result.summary.mean_active_links_pct, abs_tol=1e-4)
    assert math.isclose(bandwidth_mean, result.summary.mean_bandwidth_pct, abs_tol=1e-4)
    assert math.isclose(write_time_mean, result.summary.mean_write_time_pct, abs_tol=1e-4)
    assert (bandwidth_mean <= thresholds.max_bandwidth_pct) == result.summary.mc_satisfied
    assert (write_time_mean <= thresholds.max_write_time_pct) == result.summary.mp_satisfied
    assert (links_mean >= thresholds.min_active_links_pct) == result.summary.mr_satisfied


def test_ranges_must_fit_the_network():
    from mirrorsim.config import ExperimentConfig, SimulationProperties
    from mirrorsim.network import TopologyRanges

    with pytest.raises(ValueError, match="rt_active_links_range upper bound 400 exceeds"):
        ExperimentConfig(
            NETWORK,
            TopologyRanges((105, 150), (180, 400)),  # 400 > 300 links
            SimulationProperties(),
        )


def test_trace_record_fields_are_the_trace_columns():
    assert TraceRecord._fields == TRACE_FIELDS


def test_a_long_run_retains_one_tracked_object_per_step(make_config):
    # A record is one flat tuple of numbers and enum members, none of which
    # the garbage collector tracks, so each retained step costs it one object.
    steps = 2000
    config = make_config(timesteps=steps, seed=3)
    run(NullManager(), make_config(timesteps=10, seed=3))  # warm any lazy caches
    gc.collect()
    before = len(gc.get_objects())
    result = run(NullManager(), config)
    gc.collect()
    retained = len(gc.get_objects()) - before
    assert len(result.trace) == steps
    assert retained / steps <= 1.05


def test_probe_and_record_views_come_from_the_step_monitorables(make_config, monkeypatch):
    disturbed = []

    def recording_disturbance(*args):
        disturbed.append(apply_disturbance(*args))
        return disturbed[-1]

    monkeypatch.setattr(mirrorsim.runner, "apply_disturbance", recording_disturbance)
    sim = build_simulation(make_config(scenario="S2", seed=8, timesteps=20))
    while not sim.finished:
        assert sim.step() is None
        record = sim.trace[-1]
        own = disturbed[-1]
        assert sim.probe.get_monitorables() is own
        assert (record.active_links, record.bandwidth_gbps, record.time_to_write_ms) == own
        assert record[5:8] == normalize(own, sim.network)
    assert len(disturbed) == 20


def test_the_step_calls_each_kernel_through_the_runner_globals(make_config, monkeypatch):
    # Tests and the benchmark's tracer replace the kernels here; a step that
    # inlined one would silently bypass them.
    calls = {}

    def counting(name):
        kernel = getattr(mirrorsim.runner, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args)

        return wrapper

    kernels = ("sample_base_monitorables", "apply_disturbance", "normalize")
    for name in kernels:
        monkeypatch.setattr(mirrorsim.runner, name, counting(name))
    sim = build_simulation(make_config(scenario="S3", seed=5, timesteps=30))
    for steps in range(1, 31):
        if steps % 4 == 0:
            sim.effector.set_current_topology(sim.current_topology.other())
        sim.step()
        # The step stores what it drew; normalize runs only when a row is read.
        assert calls == dict.fromkeys(kernels[:2], steps)
    sim.trace[-1]
    assert calls["normalize"] == 1


def retained_bytes_per_step(manager, config) -> float:
    """What ``run(manager, config)`` leaves held, per step, by ``tracemalloc``."""
    steps = config.properties.timesteps
    gc.collect()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        result = run(manager, config)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.trace) == steps
    return retained / steps


def test_a_long_run_retains_at_most_32_bytes_per_step(make_config):
    # The trace holds only what the step drew, as typed columns: 2 doubles,
    # one int64 and one code byte a step, plus the arrays' spare capacity.
    run(NullManager(), make_config(timesteps=10, seed=3))  # warm any lazy caches
    assert retained_bytes_per_step(NullManager(), make_config(timesteps=20_000, seed=3)) <= 32


def test_a_long_threshold_run_retains_at_most_40_bytes_per_step(make_config):
    # The command log is columns too, about 25 bytes a command: a kind byte,
    # an int64 issue step and two list slots holding shared objects (here the
    # Topology member and None). This run logs a switch every fourth step or
    # so; as a list of command tuples the log would raise this to about 55.
    config = make_config(scenario="S3", seed=7, timesteps=20_000)

    def manager():
        return ThresholdRuleManager(config.network, config.properties.thresholds)

    run(manager(), make_config(scenario="S3", seed=7, timesteps=10))  # warm any lazy caches
    assert retained_bytes_per_step(manager(), config) <= 40


def stepped_records(make_config):
    """A simulation with two switches and its last record read after each step."""
    sim = build_simulation(make_config(scenario="S3", seed=6, timesteps=12))
    start = sim.current_topology
    sim.effector.set_network_topology(3, start.other())
    sim.effector.set_network_topology(8, start)
    records = []
    for _ in range(12):
        sim.step()
        records.append(sim.trace[-1])
    return sim, records


def test_trace_rows_are_the_rows_read_after_each_step(make_config):
    sim, records = stepped_records(make_config)
    trace = sim.trace
    assert isinstance(trace, Trace)
    assert len(trace) == 12
    assert list(trace) == records
    assert [trace[i] for i in range(12)] == records
    assert all(type(record) is TraceRecord for record in trace)
    assert [r.timestep for r in trace if r.adaptation is not None] == [3, 8]
    assert trace[3].adaptation is trace[3].topology is records[3].topology
    assert trace[-1] == records[-1]
    assert trace[-12] == records[0]
    for index in (12, -13, 10**9):
        with pytest.raises(IndexError):
            trace[index]
    assert trace[2:5] == tuple(records[2:5])
    assert trace[::-3] == tuple(records[::-3])
    assert trace[20:] == ()
    assert repr(trace) == "<Trace of 12 records>"


def test_trace_equality_and_pickling(make_config):
    sim, records = stepped_records(make_config)
    trace = sim.trace
    twin, _ = stepped_records(make_config)
    assert trace == twin.trace
    assert trace == tuple(records) and trace == records
    assert trace != tuple(records[:-1])
    assert trace != records[:-1] + [records[-1]._replace(active_links=1)]
    assert trace != "not a trace"
    empty = Trace(sim.network)
    assert empty == () and empty == [] and empty != trace
    # A trace and a command log are never equal, not even when both are empty.
    assert empty != CommandLog() and CommandLog() != empty and trace != sim.command_log
    for sequence in (empty, CommandLog()):
        with pytest.raises(IndexError):
            sequence[0]
    other = build_simulation(make_config(scenario="S3", seed=7, timesteps=12))
    for _ in range(12):
        other.step()
    assert trace != other.trace
    with pytest.raises(TypeError):
        hash(trace)
    for restored in (pickle.loads(pickle.dumps(trace)), deepcopy(trace)):
        assert type(restored) is Trace
        assert restored == trace
        assert list(restored) == records


def test_a_trace_derives_its_percentages_from_its_own_network(make_config):
    sim, records = stepped_records(make_config)
    wider = dataclasses.replace(sim.network, num_mirrors=26)
    moved = Trace(wider)
    moved.__setstate__(sim.trace.__reduce__()[2])  # the same drawn columns
    assert moved != sim.trace
    assert [record[:5] for record in moved] == [record[:5] for record in records]
    assert [record[5:8] for record in moved] == [
        normalize(record[2:5], wider) for record in records
    ]


def test_evaluate_satisfaction_folds_a_trace_like_its_records(make_config):
    config = make_config(scenario="S6", seed=2, timesteps=300)
    manager = ThresholdRuleManager(config.network, config.properties.thresholds)
    result = run(manager, config)
    thresholds = config.properties.thresholds
    assert reference_summary(list(result.trace), thresholds) == result.summary
    assert evaluate_satisfaction(result.trace, thresholds) == result.summary


def test_a_trace_keeps_growing_after_a_mid_run_evaluation(make_config):
    config = make_config(scenario="S2", seed=3, timesteps=40)
    sim = build_simulation(config)
    thresholds = config.properties.thresholds
    for _ in range(20):
        sim.step()
    halfway = evaluate_satisfaction(sim.trace, thresholds)
    assert halfway == reference_summary(list(sim.trace), thresholds)
    for _ in range(20):
        sim.step()
    assert len(sim.trace) == 40
    assert evaluate_satisfaction(sim.trace, thresholds) != halfway
    assert evaluate_satisfaction(sim.trace, thresholds) == reference_summary(
        list(sim.trace), thresholds
    )
