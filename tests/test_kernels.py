"""The step kernels against their straightforward reference formulations.

The references below are the plain versions of the per-step kernels: the
topology's range picked by a conditional expression, bounds
splatted into ``rng.uniform(*...)``, each derived metric as
``network.alpha * links * unit``, the link clamp as ``min``/``max`` and the
normalization bases recomputed per call, the trace CSV formatted one row
at a time, the threshold manager's tick normalizing every observation
and folding all three window columns, and the run summary folded from the
records' percentages. The library's kernels must return
equal values and leave the random stream in the same state; the CSV
renderer must write the same bytes, and the manager must return the same
decisions from the same probe calls. The contract tests pin what the step
path relies on: the records are immutable, ``Monitorables`` is checked on
every public construction, and the step kernels, which build theirs
unchecked, only ever build values that pass that check.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import pickle
from collections import deque
from copy import deepcopy
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorsim import managers, runner
from mirrorsim.config import THRESHOLD_FIELDS, config_from_mapping
from mirrorsim.management import CommandKind, CommandLog, EffectorCommand, EffectorError
from mirrorsim.managers import COOLDOWN, WINDOW_LENGTH, create_manager
from mirrorsim.network import (
    Monitorables,
    Topology,
    TopologyRanges,
    build_network,
    round_half_up,
    sample_base_monitorables,
)
from mirrorsim.runner import (
    NormalizedMetrics,
    SatisfactionSummary,
    Trace,
    TraceRecord,
    build_simulation,
    evaluate_satisfaction,
    normalize,
    render_trace_csv,
    replay,
    run,
    window_mean_pct,
)
from mirrorsim.scenarios import FACTOR_NAMES, EffectSet, ScenarioId, apply_disturbance
from mirrorsim.wire import _encode

from wire_helpers import monitorables_line, monitorables_payload, record_line, record_payload


def reference_sample_base_monitorables(topology, network, ranges, rng):
    links = rng.randint(
        *(ranges.mst_active_links_range if topology is Topology.MST
          else ranges.rt_active_links_range)
    )
    unit_write_time = rng.uniform(*network.unit_write_time_range)
    bandwidth_per_link = rng.uniform(*network.bandwidth_per_link_range)
    return Monitorables(
        active_links=links,
        bandwidth_consumption=network.alpha * links * bandwidth_per_link,
        time_to_write=network.alpha * links * unit_write_time,
    )


def reference_apply_disturbance(effects, base, rng, network):
    links_factor = rng.uniform(*effects.active_links_factor)
    bandwidth_factor = rng.uniform(*effects.bandwidth_factor)
    write_time_factor = rng.uniform(*effects.write_time_factor)

    links = round_half_up(base.active_links * links_factor)
    links = min(max(links, 0), network.total_links)
    ratio = links / base.active_links if base.active_links else 1.0
    return Monitorables(
        active_links=links,
        bandwidth_consumption=base.bandwidth_consumption * ratio * bandwidth_factor,
        time_to_write=base.time_to_write * ratio * write_time_factor,
    )


def reference_normalize(monitorables, network):
    return NormalizedMetrics(
        active_links_pct=100.0 * monitorables.active_links / network.total_links,
        bandwidth_pct=100.0
        * monitorables.bandwidth_consumption
        / (network.total_links * network.bandwidth_per_link_range[1]),
        write_time_pct=100.0
        * monitorables.time_to_write
        / (network.total_links * network.unit_write_time_range[1]),
    )


def reference_column_means(rows):
    """Per-column means of ``rows``, each column summed left to right from 0.0."""
    rows = list(rows)
    return NormalizedMetrics(*(
        functools.reduce(operator.add, column, 0.0) / len(rows) for column in zip(*rows)
    ))


def reference_summary(records, thresholds):
    """The run summary of a list of records, from the means of their
    ``*_pct`` fields."""
    links, bandwidth, write_time = reference_column_means(
        (record.active_links_pct, record.bandwidth_pct, record.write_time_pct)
        for record in records
    )
    return SatisfactionSummary(
        mean_bandwidth_pct=bandwidth,
        mean_write_time_pct=write_time,
        mean_active_links_pct=links,
        mc_satisfied=bandwidth <= thresholds.max_bandwidth_pct,
        mp_satisfied=write_time <= thresholds.max_write_time_pct,
        mr_satisfied=links >= thresholds.min_active_links_pct,
    )


def reference_knowledge(network, thresholds):
    """The threshold manager's knowledge for ``reference_decide``."""
    return SimpleNamespace(
        network=network, thresholds=thresholds, window=deque(maxlen=WINDOW_LENGTH),
        last_adaptation_timestep=None, tick=0,
    )


def reference_decide(knowledge, probe):
    """The threshold manager's tick over a window of normalized observations,
    with all three column means folded before any rule reads one."""
    tick = knowledge.tick
    knowledge.tick += 1
    monitorables = probe.get_monitorables()
    if monitorables is not None:
        knowledge.window.append(normalize(monitorables, knowledge.network))
    if not knowledge.window:
        return managers._NO_OBSERVATIONS
    last_switch = knowledge.last_adaptation_timestep
    if last_switch is not None and tick - last_switch <= COOLDOWN:
        return managers._COOLDOWN
    means = reference_column_means(knowledge.window)
    current = probe.get_current_topology()
    thresholds = knowledge.thresholds
    if means.active_links_pct < thresholds.min_active_links_pct and current is Topology.MST:
        knowledge.last_adaptation_timestep = tick
        return managers._SWITCH_FOR_RELIABILITY
    if current is Topology.RT:
        if means.bandwidth_pct > thresholds.max_bandwidth_pct:
            knowledge.last_adaptation_timestep = tick
            return managers._SWITCH_FOR_COST
        if means.write_time_pct > thresholds.max_write_time_pct:
            knowledge.last_adaptation_timestep = tick
            return managers._SWITCH_FOR_PERFORMANCE
    return managers._WITHIN_THRESHOLDS


def reference_render_trace_csv(trace):
    rows = [
        "timestep,topology,active_links,bandwidth_gbps,time_to_write_ms,"
        "active_links_pct,bandwidth_pct,write_time_pct,adaptation\n"
    ]
    for (timestep, topology, links, bandwidth, write_time,
         links_pct, bandwidth_pct, write_time_pct, adaptation) in trace:
        rows.append("%s,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%s\n" % (
            timestep, topology.value, links, bandwidth, write_time,
            links_pct, bandwidth_pct, write_time_pct,
            adaptation.value if adaptation is not None else "",
        ))
    return "".join(rows)


def bounds(low, high):
    """A (lower, upper) pair drawn from [low, high], degenerate pairs included."""
    return st.tuples(
        st.floats(min_value=low, max_value=high), st.floats(min_value=0.0, max_value=high)
    ).map(lambda pair: (pair[0], pair[0] + pair[1]))


@st.composite
def networks(draw):
    # Integer bounds exercise the int arithmetic paths of uniform and the bases.
    range_pair = st.one_of(
        bounds(0.1, 100.0),
        st.tuples(st.integers(1, 50), st.integers(0, 50)).map(lambda p: (p[0], p[0] + p[1])),
    )
    return build_network(
        draw(st.integers(min_value=2, max_value=60)),
        bandwidth_per_link_range=draw(range_pair),
        unit_write_time_range=draw(range_pair),
        alpha=draw(st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0))),
    )


@st.composite
def topology_ranges(draw, network):
    points = sorted(
        draw(st.lists(st.integers(1, network.total_links), min_size=4, max_size=4))
    )
    return TopologyRanges((points[0], points[1]), (points[2], points[3]))


@st.composite
def effect_sets(draw):
    """One side of a scenario's profile, the defaults or drawn overrides."""
    scenario = draw(st.sampled_from(list(ScenarioId)))
    factor = bounds(0.05, 4.0)
    overrides = draw(
        st.one_of(
            st.none(),
            st.dictionaries(
                st.sampled_from(["mst", "rt"]),
                st.dictionaries(st.sampled_from(FACTOR_NAMES), factor, max_size=3),
                max_size=2,
            ),
        )
    )
    disturbances = {scenario.value: overrides or {}}
    profile = config_from_mapping({"disturbances": disturbances}).scenario_profiles[scenario]
    return draw(st.sampled_from([profile.mst_effects, profile.rt_effects]))


topologies = st.sampled_from([Topology.MST, Topology.RT])
seeds = st.integers(min_value=0, max_value=2**64 - 1)


@given(data=st.data(), network=networks(), topology=topologies, seed=seeds)
def test_sample_base_monitorables_matches_reference(data, network, topology, seed):
    ranges = data.draw(topology_ranges(network))
    rng, reference_rng = Random(seed), Random(seed)
    sampled = sample_base_monitorables(topology, network, ranges, rng)
    expected = reference_sample_base_monitorables(topology, network, ranges, reference_rng)
    assert type(sampled) is Monitorables
    assert sampled == expected
    assert rng.getstate() == reference_rng.getstate()


@given(data=st.data(), network=networks(), effects=effect_sets(), seed=seeds)
def test_apply_disturbance_matches_reference(data, network, effects, seed):
    base = Monitorables(
        data.draw(st.integers(0, network.total_links)),
        data.draw(st.floats(min_value=0.0, max_value=1e6)),
        data.draw(st.floats(min_value=0.0, max_value=1e6)),
    )
    rng, reference_rng = Random(seed), Random(seed)
    disturbed = apply_disturbance(effects, base, rng, network)
    expected = reference_apply_disturbance(effects, base, reference_rng, network)
    assert type(disturbed) is Monitorables
    assert disturbed == expected
    assert rng.getstate() == reference_rng.getstate()


@given(data=st.data(), network=networks(), topology=topologies, seed=seeds)
def test_normalize_matches_reference(data, network, topology, seed):
    ranges = data.draw(topology_ranges(network))
    monitorables = sample_base_monitorables(topology, network, ranges, Random(seed))
    assert normalize(monitorables, network) == reference_normalize(monitorables, network)


def test_normalize_computes_each_call_from_its_two_arguments():
    network = build_network(25)
    twin = build_network(25)  # equal, but another object
    widened = dataclasses.replace(network, bandwidth_per_link_range=(20.0, 40.0))
    first, second = Monitorables(100, 2500.0, 4000.0), Monitorables(200, 5000.0, 1000.0)
    copy = Monitorables(*first)
    calls = [
        (first, network), (first, network), (second, network), (first, network),
        (first, twin), (copy, twin), (first, widened), (first, widened), (second, widened),
        (second, network), (second, twin), (copy, widened), (first, network),
    ]
    for monitorables, net in calls:
        assert normalize(monitorables, net) == reference_normalize(monitorables, net)
    assert normalize(first, widened).bandwidth_pct != normalize(first, network).bandwidth_pct


def test_each_threshold_observation_is_the_observed_row_percentages():
    config = config_from_mapping({"scenario": "S3", "seed": 6, "timesteps": 200})
    manager = create_manager(
        "threshold", network=config.network, thresholds=config.properties.thresholds, seed=6
    )
    sim = build_simulation(config)
    window = manager.window
    while not sim.finished:
        observed = sim.trace[-1] if sim.trace else None
        before = list(window)
        decision = manager.decide(sim.probe)
        if observed is None:
            assert not window
        else:
            # One observation gained: the probed monitorables of the row just stepped.
            assert list(window)[:-1] == before[-len(window) + 1:]
            assert window[-1] is sim.probe.get_monitorables()
            assert window[-1] == observed[2:5]
        if decision.switch_to is not None:
            sim.effector.set_current_topology(decision.switch_to)
        sim.step()
    assert len(sim.command_log) > 0


class RecordingProbe:
    """Forwards to a probe and logs the name of each call."""

    def __init__(self, probe):
        self._probe = probe
        self.calls = []

    def get_monitorables(self):
        self.calls.append("get_monitorables")
        return self._probe.get_monitorables()

    def get_current_topology(self):
        self.calls.append("get_current_topology")
        return self._probe.get_current_topology()


@st.composite
def threshold_runs(draw, scenario):
    """A config mapping for ``scenario`` with drawn thresholds and disturbances."""
    sides = st.dictionaries(st.sampled_from(FACTOR_NAMES), bounds(0.05, 4.0), max_size=3)
    percentage = st.floats(min_value=0.0, max_value=100.0, exclude_min=True)
    return {
        "scenario": scenario.value,
        "seed": draw(seeds),
        "timesteps": draw(st.integers(min_value=1, max_value=60)),
        "thresholds": {key: draw(percentage) for key in THRESHOLD_FIELDS},
        "disturbances": draw(st.dictionaries(
            st.sampled_from([s.value for s in ScenarioId]),
            st.dictionaries(st.sampled_from(["mst", "rt"]), sides, max_size=2),
            max_size=3,
        )),
    }


@pytest.mark.parametrize("scenario", list(ScenarioId), ids=lambda s: s.value)
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_threshold_decisions_match_the_reference_analysis(scenario, data):
    # The manager folds only the columns its rules read, straight from the
    # probed rows; every tick must return the decision object the reference
    # returns and make the same probe calls in the same order. Each window
    # mean must have the bits of the reference's mean over normalized rows.
    config = config_from_mapping(data.draw(threshold_runs(scenario)))
    network, thresholds = config.network, config.properties.thresholds
    bases = (network.total_links, network.bandwidth_basis, network.write_time_basis)
    manager = create_manager("threshold", network=network, thresholds=thresholds, seed=0)
    knowledge = reference_knowledge(network, thresholds)
    sim = build_simulation(config)
    while not sim.finished:
        probe, reference_probe = RecordingProbe(sim.probe), RecordingProbe(sim.probe)
        decision = manager.decide(probe)
        assert decision is reference_decide(knowledge, reference_probe)
        assert probe.calls == reference_probe.calls
        if manager.window:
            means = [window_mean_pct(manager.window, index, basis)
                     for index, basis in enumerate(bases)]
            assert means == list(reference_column_means(knowledge.window))
        if decision.switch_to is not None:
            sim.effector.set_current_topology(decision.switch_to)
        sim.step()


def test_normalization_bases_are_not_fields():
    network = build_network(25)
    assert (network.bandwidth_basis, network.write_time_basis) == (300 * 30.0, 300 * 20.0)
    assert network.total_links == 300
    assert "basis" not in repr(network) and "total_links" not in repr(network)
    assert [f.name for f in dataclasses.fields(network)] == [
        "num_mirrors",
        "bandwidth_per_link_range",
        "unit_write_time_range",
        "alpha",
    ]
    widened = dataclasses.replace(network, bandwidth_per_link_range=(20.0, 40.0))
    assert widened.bandwidth_basis == 300 * 40.0
    assert dataclasses.replace(network, num_mirrors=4).total_links == 6
    assert widened != network
    assert build_network(25) == network and hash(build_network(25)) == hash(network)
    # The step's draw constants are derived the same way, on three classes.
    ranges = TopologyRanges((105, 150), (180, 270))
    effects = EffectSet(active_links_factor=(0.4, 0.7), bandwidth_factor=(1.3, 1.6))
    assert network.unit_draws == ((10.0, 10.0), (20.0, 10.0))
    assert (ranges.mst_links_draw, ranges.rt_links_draw) == ((105, 46, 6), (180, 91, 7))
    assert effects.factor_draws == ((0.4, 0.7 - 0.4), (1.3, 1.6 - 1.3), (1.0, 0.0))
    derived = [
        (network, ("total_links", "bandwidth_basis", "write_time_basis", "unit_draws")),
        (ranges, ("mst_links_draw", "rt_links_draw")),
        (effects, ("factor_draws",)),
    ]
    for obj, names in derived:
        values = [getattr(obj, name) for name in names]
        assert not set(names) & {field.name for field in dataclasses.fields(obj)}
        assert not [name for name in names if name in repr(obj)]
        # Equality and the hash ignore them: a copy with every one blanked
        # still equals the original and hashes alike.
        blanked = dataclasses.replace(obj)
        for name in names:
            object.__setattr__(blanked, name, None)
        assert blanked == obj and hash(blanked) == hash(obj)
        for restored in (pickle.loads(pickle.dumps(obj)), deepcopy(obj)):
            assert restored == obj
            assert [getattr(restored, name) for name in names] == values
    # dataclasses.replace derives them again from the new fields.
    assert dataclasses.replace(network, unit_write_time_range=(5.0, 8.0)).unit_draws == (
        (5.0, 3.0), (20.0, 10.0)
    )
    assert dataclasses.replace(ranges, mst_active_links_range=(1, 1)).mst_links_draw == (1, 1, 1)
    assert dataclasses.replace(effects, write_time_factor=(2.0, 3.0)).factor_draws[2] == (2.0, 1.0)


def test_records_reject_attribute_assignment():
    monitorables = Monitorables(1, 2.0, 3.0)
    normalized = NormalizedMetrics(1.0, 2.0, 3.0)
    record = TraceRecord(0, Topology.MST, *monitorables, *normalized)
    for obj, name in (
        (monitorables, "active_links"),
        (normalized, "bandwidth_pct"),
        (record, "timestep"),
        (record, "adaptation"),
    ):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            obj.extra = 0


@pytest.mark.parametrize("fields", [(-1, 0.0, 0.0), (0, -0.5, 0.0), (0, 0.0, -0.5)])
def test_negative_monitorables_raise(fields):
    with pytest.raises(ValueError):
        Monitorables(*fields)
    with pytest.raises(ValueError):
        Monitorables._make(fields)
    with pytest.raises(ValueError):
        Monitorables(0, 0.0, 0.0)._replace(**dict(zip(Monitorables._fields, fields)))


# Unit ranges up to 1e290 still load for runs this short: the worst step stays
# finite, so the config accepts them and the step must keep them finite.
unit_ranges = st.one_of(bounds(0.1, 100.0), bounds(1.0, 1e290))
# Load overrides, within the effector's bound or past it (then refused): a
# negative zero and integers too, which the effector logs as floats.
loads = st.one_of(
    st.just(-0.0), st.integers(0, 10**6),
    st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0),
)


@st.composite
def config_mappings(draw, scenario):
    """A valid config mapping for ``scenario`` with a short run."""
    timesteps = draw(st.integers(min_value=1, max_value=12))
    # Four sorted percentages: the RT range sits at or above the MST range.
    pct = sorted(draw(st.lists(st.floats(0.5, 100.0), min_size=4, max_size=4)))
    sides = st.dictionaries(st.sampled_from(FACTOR_NAMES), bounds(0.05, 4.0), max_size=3)
    return {
        "number_of_mirrors": draw(st.integers(min_value=2, max_value=60)),
        "timesteps": timesteps,
        "scenario": scenario.value,
        "seed": draw(seeds),
        "alpha": draw(st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0))),
        "bandwidth_per_link_range": list(draw(unit_ranges)),
        "unit_write_time_range": list(draw(unit_ranges)),
        "mst_active_links_range_pct": pct[:2],
        "rt_active_links_range_pct": pct[2:],
        "disturbances": draw(st.dictionaries(
            st.sampled_from([s.value for s in ScenarioId]),
            st.dictionaries(st.sampled_from(["mst", "rt"]), sides, max_size=2),
            max_size=3,
        )),
        "disturbance_window": draw(st.one_of(
            st.none(),
            st.lists(st.integers(0, timesteps - 1), min_size=2, max_size=2).map(sorted),
        )),
    }


def effector_calls(total_links):
    """One effector call between two steps: (method name, its arguments)."""
    return st.one_of(
        st.tuples(st.just("set_active_links"), st.tuples(st.integers(0, total_links))),
        st.tuples(st.just("set_time_to_write"), st.tuples(loads)),
        st.tuples(st.just("set_bandwidth_consumption"), st.tuples(loads)),
        st.tuples(st.just("set_current_topology"), st.tuples(topologies)),
        st.tuples(st.just("set_network_topology"),
                  st.tuples(st.integers(0, 3), topologies)),  # steps ahead
    )


@pytest.mark.parametrize("scenario", list(ScenarioId), ids=lambda s: s.value)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_step_of_a_loaded_config_passes_the_monitorables_check(scenario, data):
    # The step builds its Monitorables unchecked, trusting the config and the
    # effector; the checked constructor must accept every one it builds. Every
    # step's record and monitorables go out whole from the wire templates with
    # the generic encoder's bytes, and the run's means are finite.
    config = config_from_mapping(data.draw(config_mappings(scenario)))
    sim = build_simulation(config)
    calls = effector_calls(config.network.total_links)
    logged = []  # the command each accepted call should log
    while not sim.finished:
        for name, args in data.draw(st.lists(calls, max_size=3)):
            target = None
            if name == "set_network_topology":
                target = sim.timestep + args[0]
                args = (target, args[1])
                if target >= config.properties.timesteps:
                    continue
            try:
                getattr(sim.effector, name)(*args)
            except EffectorError:
                assert name in ("set_time_to_write", "set_bandwidth_consumption")
                continue
            payload = args[-1]
            if name in ("set_time_to_write", "set_bandwidth_consumption"):
                payload = float(payload)  # a load is logged as the float it checked
            logged.append(EffectorCommand(CommandKind(name), payload, sim.timestep, target))
        sim.step()
        monitorables = sim.latest_monitorables
        assert Monitorables(*monitorables) == monitorables
        assert type(monitorables.active_links) is int
        record = sim.trace[-1]
        assert all(map(math.isfinite, record[3:8])), record
        step_complete = {
            "seq": 1, "re": 1, "kind": "step_complete", "timestep": record.timestep,
            "record": record_payload(record),
        }
        assert record_line(1, 1, record) == (_encode(step_complete) + "\n").encode()
        probed = sim.probe.get_monitorables()
        reply = {
            "seq": 2, "re": 2, "kind": "monitorables",
            "monitorables": monitorables_payload(probed),
        }
        assert monitorables_line(2, 2, probed) == (_encode(reply) + "\n").encode()
    summary = evaluate_satisfaction(sim.trace, config.properties.thresholds)
    means = (summary.mean_bandwidth_pct, summary.mean_write_time_pct,
             summary.mean_active_links_pct)
    assert all(map(math.isfinite, means)), summary
    # The chunk reader derives the same rows as the one-row path, and the
    # column fold the same means as a fold over those rows.
    assert list(sim.trace) == [sim.trace[i] for i in range(len(sim.trace))]
    assert summary == reference_summary(list(sim.trace), config.properties.thresholds)
    # The column renderer writes the record-based reference's bytes.
    assert render_trace_csv(sim.trace) == reference_render_trace_csv(sim.trace)
    # The command log's columns give back each accepted command, every payload
    # with its type and bits: the shared Topology member, the int link count,
    # the float load (a negative zero included).
    commands = list(sim.command_log)
    assert commands == logged
    for command, expected in zip(commands, logged):
        assert type(command) is EffectorCommand
        assert type(command.payload) is type(expected.payload)
        if isinstance(expected.payload, float):
            assert command.payload.hex() == expected.payload.hex()
        elif isinstance(expected.payload, Topology):
            assert command.payload is expected.payload
    replayed = replay(sim.command_log, config)
    assert replayed.trace == sim.trace
    assert replayed.command_log == sim.command_log


def test_run_result_pickles_equal():
    config = config_from_mapping({"scenario": "S3", "seed": 4, "timesteps": 200})
    manager = create_manager(
        "threshold", network=config.network, thresholds=config.properties.thresholds, seed=4
    )
    result = run(manager, config)
    assert len(result.command_log) > 0
    restored = pickle.loads(pickle.dumps(result))
    assert restored == result
    assert type(restored.trace[0]) is TraceRecord


def test_a_command_log_reads_slices_compares_and_pickles_like_a_tuple():
    config = config_from_mapping({"scenario": "S3", "seed": 4, "timesteps": 200})
    sim = build_simulation(config)
    effector = sim.effector
    effector.set_network_topology(3, "rt")
    effector.set_active_links(120)
    sim.step()
    effector.set_time_to_write(-0.0)
    effector.set_bandwidth_consumption(7)
    effector.set_current_topology(Topology.MST)
    log = sim.command_log
    assert isinstance(log, CommandLog)
    commands = [
        EffectorCommand(CommandKind.SET_NETWORK_TOPOLOGY, Topology.RT, 0, 3),
        EffectorCommand(CommandKind.SET_ACTIVE_LINKS, 120, 0),
        EffectorCommand(CommandKind.SET_TIME_TO_WRITE, -0.0, 1),
        EffectorCommand(CommandKind.SET_BANDWIDTH_CONSUMPTION, 7.0, 1),
        EffectorCommand(CommandKind.SET_CURRENT_TOPOLOGY, Topology.MST, 1),
    ]
    assert len(log) == 5
    assert log == commands and commands == log and log == tuple(commands)
    assert log != commands[:-1] and log != [*commands[:-1], commands[0]]
    assert log[-1] == commands[-1] and log[-5] == commands[0]
    assert log[1:4] == tuple(commands[1:4]) and log[::-2] == tuple(commands[::-2])
    assert type(log[1:4]) is tuple and type(log[0]) is EffectorCommand
    for index in (5, -6):
        with pytest.raises(IndexError):
            log[index]
    for restored in (pickle.loads(pickle.dumps(log)), deepcopy(log)):
        assert type(restored) is CommandLog and restored == log
        assert restored[0].payload is Topology.RT  # members unpickle to themselves
        assert restored[2].payload.hex() == (-0.0).hex()
        assert type(restored[3].payload) is float
    with pytest.raises(TypeError):
        hash(log)
    assert repr(log) == "<CommandLog of 5 commands>"


def forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return call


# Lengths around the renderer's 1,024-row chunks: none, one, one short of
# a chunk, a whole chunk, one over, and two chunks and one row.
RENDER_LENGTHS = (0, 1, 1023, 1024, 1025, 2049)


def test_render_trace_csv_matches_reference_across_chunk_edges(monkeypatch):
    config = config_from_mapping(
        {"scenario": "S3", "seed": 9, "timesteps": max(RENDER_LENGTHS)}
    )
    manager = create_manager(
        "threshold", network=config.network, thresholds=config.properties.thresholds, seed=9
    )
    sim = build_simulation(config)
    for length in RENDER_LENGTHS:
        while len(sim.trace) < length:
            decision = manager.decide(sim.probe)
            if decision.switch_to is not None:
                sim.effector.set_current_topology(decision.switch_to)
            sim.step()
        assert isinstance(sim.trace, Trace) and len(sim.trace) == length
        expected = reference_render_trace_csv(sim.trace)
        # Rendering reads the columns: it builds no record and calls no normalize.
        with monkeypatch.context() as patched:
            for name in ("_new_record", "normalize"):
                patched.setattr(runner, name, forbidden(name))
            assert render_trace_csv(sim.trace) == expected
        if length:
            # The chunk reader and the one-row path agree on every row, and
            # the column fold and a fold over those rows on every mean.
            assert list(sim.trace) == [sim.trace[i] for i in range(length)]
            thresholds = config.properties.thresholds
            assert (evaluate_satisfaction(sim.trace, thresholds)
                    == reference_summary(list(sim.trace), thresholds))
    # Both topologies and both kinds of adaptation cell were rendered.
    assert {record.topology for record in sim.trace} == set(Topology)
    assert {record.adaptation for record in sim.trace} == {None, *Topology}
