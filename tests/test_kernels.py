"""The step kernels against their straightforward reference formulations.

The references below are the plain versions of the per-step kernels: the
topology's range through ``range_for``, bounds splatted into
``rng.uniform(*...)``, the effect set through ``effects_for``, the link clamp
as ``min``/``max`` and the normalization bases recomputed per call. The
library's kernels must return equal values and leave the random stream in
the same state. The contract tests pin what the step path relies on: the
records are immutable and ``Monitorables`` is checked on every construction.
"""

from __future__ import annotations

import dataclasses
import pickle
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirrorsim import (
    Monitorables,
    NormalizedMetrics,
    ScenarioId,
    ScenarioState,
    Topology,
    TopologyRanges,
    TraceRecord,
    apply_disturbance,
    build_network,
    config_from_mapping,
    create_manager,
    normalize,
    run,
    sample_base_monitorables,
    scenario_profile,
)
from mirrorsim.network import compute_bandwidth, compute_writing_time, round_half_up
from mirrorsim.scenarios import FACTOR_NAMES


def reference_sample_base_monitorables(topology, network, ranges, rng):
    links = rng.randint(*ranges.range_for(topology))
    unit_write_time = rng.uniform(*network.unit_write_time_range)
    bandwidth_per_link = rng.uniform(*network.bandwidth_per_link_range)
    return Monitorables(
        active_links=links,
        bandwidth_consumption=compute_bandwidth(links, network.alpha, bandwidth_per_link),
        time_to_write=compute_writing_time(links, network.alpha, unit_write_time),
    )


def reference_apply_disturbance(state, current_topology, base, timestep, rng, network):
    if not state.active_at(timestep):
        return base
    effects = state.profile.effects_for(current_topology)
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
def scenario_states(draw):
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
    window = draw(
        st.one_of(
            st.none(),
            st.tuples(st.integers(0, 20), st.integers(0, 20)).map(lambda w: (w[0], w[0] + w[1])),
        )
    )
    return ScenarioState(scenario, scenario_profile(scenario, overrides), window)


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


@given(
    data=st.data(),
    network=networks(),
    state=scenario_states(),
    topology=topologies,
    timestep=st.integers(min_value=0, max_value=50),
    seed=seeds,
)
def test_apply_disturbance_matches_reference(data, network, state, topology, timestep, seed):
    base = Monitorables(
        data.draw(st.integers(0, network.total_links)),
        data.draw(st.floats(min_value=0.0, max_value=1e6)),
        data.draw(st.floats(min_value=0.0, max_value=1e6)),
    )
    rng, reference_rng = Random(seed), Random(seed)
    disturbed = apply_disturbance(state, topology, base, timestep, rng, network)
    expected = reference_apply_disturbance(state, topology, base, timestep, reference_rng, network)
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
    assert "basis" not in repr(network)
    assert [f.name for f in dataclasses.fields(network)] == [
        "num_mirrors",
        "total_links",
        "bandwidth_per_link_range",
        "unit_write_time_range",
        "alpha",
    ]
    widened = dataclasses.replace(network, bandwidth_per_link_range=(20.0, 40.0))
    assert widened.bandwidth_basis == 300 * 40.0
    assert widened != network
    assert build_network(25) == network and hash(build_network(25)) == hash(network)


def test_records_reject_attribute_assignment():
    monitorables = Monitorables(1, 2.0, 3.0)
    normalized = NormalizedMetrics(1.0, 2.0, 3.0)
    record = TraceRecord(0, Topology.MST, monitorables, normalized)
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
    assert type(restored.trace[0].monitorables) is Monitorables
