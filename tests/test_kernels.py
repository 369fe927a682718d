"""The step kernels against their straightforward reference formulations.

The references below are the plain versions of the per-step kernels: the
topology's range picked by a conditional expression, bounds
splatted into ``rng.uniform(*...)``, each derived metric as
``network.alpha * links * unit``, the link clamp as ``min``/``max`` and the
normalization bases recomputed per call, and the trace CSV formatted one
row at a time. The
library's kernels must return equal values and leave the random stream in
the same state; the CSV renderer must write the same bytes. The contract tests pin what the step path relies on: the
records are immutable, ``Monitorables`` is checked on every public
construction, and the step kernels, which build theirs unchecked, only ever
build values that pass that check.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
from copy import deepcopy
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorsim import runner
from mirrorsim.config import config_from_mapping
from mirrorsim.management import EffectorError
from mirrorsim.managers import create_manager
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
    Trace,
    TraceRecord,
    build_simulation,
    evaluate_satisfaction,
    normalize,
    render_trace_csv,
    run,
)
from mirrorsim.scenarios import FACTOR_NAMES, EffectSet, ScenarioId, apply_disturbance
from mirrorsim.wire import _encode, _monitorables_line, _step_line

from wire_helpers import monitorables_payload, record_payload


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
            # One observation gained: the percentages of the row just stepped.
            assert list(window)[:-1] == before[-len(window) + 1:]
            assert type(window[-1]) is NormalizedMetrics
            assert window[-1] == observed[5:8]
        if decision.switch_to is not None:
            sim.effector.set_current_topology(decision.switch_to)
        sim.step()
    assert len(sim.command_log) > 0


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
# Load overrides, within the effector's bound or past it (then refused).
loads = st.one_of(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0))


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
    while not sim.finished:
        for name, args in data.draw(st.lists(calls, max_size=3)):
            if name == "set_network_topology":
                args = (sim.timestep + args[0], args[1])
                if args[0] >= config.properties.timesteps:
                    continue
            try:
                getattr(sim.effector, name)(*args)
            except EffectorError:
                assert name in ("set_time_to_write", "set_bandwidth_consumption")
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
        assert _step_line(1, 1, record) == _encode(step_complete) + "\n"
        probed = sim.probe.get_monitorables()
        reply = {
            "seq": 2, "re": 2, "kind": "monitorables",
            "monitorables": monitorables_payload(probed),
        }
        assert _monitorables_line(2, 2, probed) == _encode(reply) + "\n"
    summary = evaluate_satisfaction(sim.trace, config.properties.thresholds)
    means = (summary.mean_bandwidth_pct, summary.mean_write_time_pct,
             summary.mean_active_links_pct)
    assert all(map(math.isfinite, means)), summary
    # The chunk reader derives the same rows, and the same means, as the one-row path.
    assert list(sim.trace) == [sim.trace[i] for i in range(len(sim.trace))]
    assert summary == evaluate_satisfaction(list(sim.trace), config.properties.thresholds)
    # The column renderer writes the record-based reference's bytes.
    assert render_trace_csv(sim.trace) == reference_render_trace_csv(sim.trace)


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


def forbidden(name):
    def call(*args):
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
            # The chunk reader and the one-row path agree on every row and mean.
            assert list(sim.trace) == [sim.trace[i] for i in range(length)]
            thresholds = config.properties.thresholds
            assert (evaluate_satisfaction(sim.trace, thresholds)
                    == evaluate_satisfaction(list(sim.trace), thresholds))
    # Both topologies and both kinds of adaptation cell were rendered.
    assert {record.topology for record in sim.trace} == set(Topology)
    assert {record.adaptation for record in sim.trace} == {None, *Topology}
