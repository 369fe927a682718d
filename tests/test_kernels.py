"""The step kernels against their straightforward reference formulations.

The references below are the plain versions of the per-step kernels: the
topology's range picked by a conditional expression, bounds
splatted into ``rng.uniform(*...)``, each derived metric as
``network.alpha * links * unit``, the link clamp as ``min``/``max`` and the
normalization bases recomputed per call, and the trace CSV formatted one
row at a time. The
library's kernels must return equal values and leave the random stream in
the same state; the CSV renderer must write the same bytes. The contract tests pin what the step path relies on: the
records are immutable and ``Monitorables`` is checked on every construction.
"""

from __future__ import annotations

import dataclasses
import pickle
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirrorsim.config import config_from_mapping
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
    normalize,
    render_trace_csv,
    run,
)
from mirrorsim.scenarios import FACTOR_NAMES, ScenarioId, apply_disturbance


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


# Lengths around the renderer's 1,024-record chunks: none, one, one short of
# a chunk, a whole chunk, one over, and two chunks and one row.
RENDER_LENGTHS = (0, 1, 1023, 1024, 1025, 2049)


def test_render_trace_csv_matches_reference_across_chunk_edges():
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
        assert render_trace_csv(sim.trace) == expected
        assert render_trace_csv(list(sim.trace)) == expected
    # Both topologies and both kinds of adaptation cell were rendered.
    assert {record.topology for record in sim.trace} == set(Topology)
    assert {record.adaptation for record in sim.trace} == {None, *Topology}
