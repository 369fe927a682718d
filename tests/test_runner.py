from __future__ import annotations

import gc
import math
import pickle
import tracemalloc

import pytest

import mirrorsim.runner
from mirrorsim.config import SatisfactionThresholds
from mirrorsim.managers import WINDOW_LENGTH, ManagerDecision, NullManager, ThresholdRuleManager
from mirrorsim.network import Monitorables, Topology, build_network
from mirrorsim.runner import (
    TRACE_CSV_HEADER,
    TRACE_FIELDS,
    ManagerError,
    NormalizedMetrics,
    SimulationError,
    Trace,
    TraceRecord,
    build_simulation,
    column_means,
    evaluate_satisfaction,
    normalize,
    render_trace_csv,
    replay,
    run,
)
from mirrorsim.scenarios import ScenarioId, apply_disturbance
from test_managers import StubProbe

NETWORK = build_network(25)


def record_with(normalized: NormalizedMetrics, timestep: int = 0) -> TraceRecord:
    return TraceRecord(timestep, Topology.MST, *Monitorables(1, 1.0, 1.0), *normalized)


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


def test_evaluate_satisfaction_boundaries():
    thresholds = SatisfactionThresholds()
    at_limits = [record_with(NormalizedMetrics(35.0, 40.0, 45.0), t) for t in range(4)]
    summary = evaluate_satisfaction(at_limits, thresholds)
    assert summary.mc_satisfied and summary.mp_satisfied and summary.mr_satisfied

    over_cost = [record_with(NormalizedMetrics(35.0, 40.01, 45.0))]
    summary = evaluate_satisfaction(over_cost, thresholds)
    assert not summary.mc_satisfied
    assert summary.mp_satisfied and summary.mr_satisfied

    single = [record_with(NormalizedMetrics(50.0, 10.0, 20.0))]
    summary = evaluate_satisfaction(single, thresholds)
    assert summary.mean_active_links_pct == 50.0
    assert summary.mean_bandwidth_pct == 10.0
    assert summary.mean_write_time_pct == 20.0


def test_evaluate_rejects_empty_trace():
    with pytest.raises(ValueError):
        evaluate_satisfaction([], SatisfactionThresholds())


# Ten tenths folded left to right from 0.0 sum to 0.9999999999999999; the
# compensated ``sum()`` of CPython 3.12+ gives 1.0, so a mean of exactly 0.1
# means the summation changed.
TENTHS = [NormalizedMetrics(0.1, 0.1, 0.1)] * 10
TENTHS_MEAN = 0.9999999999999999 / 10


def test_column_means_fold_left_to_right():
    assert TENTHS_MEAN != 0.1
    assert column_means(TENTHS) == NormalizedMetrics(TENTHS_MEAN, TENTHS_MEAN, TENTHS_MEAN)


def test_summary_and_window_means_use_the_left_fold():
    trace = [record_with(metrics, t) for t, metrics in enumerate(TENTHS)]
    summary = evaluate_satisfaction(trace, SatisfactionThresholds())
    assert summary.mean_active_links_pct == TENTHS_MEAN
    assert summary.mean_bandwidth_pct == TENTHS_MEAN
    assert summary.mean_write_time_pct == TENTHS_MEAN

    # 100, 100, 149, 100 and 100 of 300 links fold left to right to a mean of
    # 36.60000000000001; the correctly rounded sum gives 36.6.
    links = (100, 100, 149, 100, 100)
    assert len(links) == WINDOW_LENGTH
    left_fold_mean = 36.60000000000001
    assert math.fsum(100.0 * count / NETWORK.total_links for count in links) / len(links) == 36.6

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


def test_a_long_run_retains_at_most_64_bytes_per_step(make_config):
    # The trace is held as typed columns: 5 doubles, one int64 and one code
    # byte a step, plus the arrays' spare capacity.
    steps = 20_000
    config = make_config(timesteps=steps, seed=3)
    run(NullManager(), make_config(timesteps=10, seed=3))  # warm any lazy caches
    gc.collect()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        result = run(NullManager(), config)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.trace) == steps
    assert retained / steps <= 64


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
    assert Trace() == () and Trace() == [] and Trace() != trace
    other = build_simulation(make_config(scenario="S3", seed=7, timesteps=12))
    for _ in range(12):
        other.step()
    assert trace != other.trace
    with pytest.raises(TypeError):
        hash(trace)
    restored = pickle.loads(pickle.dumps(trace))
    assert type(restored) is Trace
    assert restored == trace
    assert list(restored) == records


def test_evaluate_satisfaction_folds_a_trace_like_its_records(make_config):
    config = make_config(scenario="S6", seed=2, timesteps=300)
    manager = ThresholdRuleManager(config.network, config.properties.thresholds)
    result = run(manager, config)
    thresholds = config.properties.thresholds
    assert evaluate_satisfaction(list(result.trace), thresholds) == result.summary
    assert evaluate_satisfaction(result.trace, thresholds) == result.summary


def test_a_trace_keeps_growing_after_a_mid_run_evaluation(make_config):
    config = make_config(scenario="S2", seed=3, timesteps=40)
    sim = build_simulation(config)
    thresholds = config.properties.thresholds
    for _ in range(20):
        sim.step()
    halfway = evaluate_satisfaction(sim.trace, thresholds)
    assert halfway == evaluate_satisfaction(list(sim.trace), thresholds)
    for _ in range(20):
        sim.step()
    assert len(sim.trace) == 40
    assert evaluate_satisfaction(sim.trace, thresholds) != halfway
    assert evaluate_satisfaction(sim.trace, thresholds) == evaluate_satisfaction(
        list(sim.trace), thresholds
    )
