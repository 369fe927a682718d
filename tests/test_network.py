from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirrorsim.network import (
    Topology,
    TopologyRanges,
    build_network,
    compute_bandwidth,
    compute_writing_time,
    round_half_up,
    sample_active_links,
    sample_base_monitorables,
    topology_ranges_from_pct,
)


@pytest.mark.parametrize(
    "mirrors,links", [(2, 1), (3, 3), (10, 45), (25, 300), (50, 1225)]
)
def test_total_links_law(mirrors, links):
    assert build_network(mirrors).total_links == links


def test_rejects_fewer_than_two_mirrors():
    with pytest.raises(ValueError):
        build_network(1)
    with pytest.raises(ValueError):
        build_network(0)


def test_rejects_bad_parameter_ranges():
    with pytest.raises(ValueError):
        build_network(5, bandwidth_per_link_range=(30.0, 20.0))
    with pytest.raises(ValueError):
        build_network(5, unit_write_time_range=(0.0, 20.0))
    with pytest.raises(ValueError):
        build_network(5, unit_write_time_range=(-1.0, 20.0))


@pytest.mark.parametrize(
    "field", ["bandwidth_per_link_range", "unit_write_time_range"]
)
@pytest.mark.parametrize(
    "bounds", [(20.0, math.nan), (math.nan, 30.0), (10.0, math.inf), (-math.inf, 30.0)]
)
def test_rejects_non_finite_parameter_ranges(field, bounds):
    with pytest.raises(ValueError):
        build_network(25, **{field: bounds})


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
def test_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError):
        build_network(5, alpha=alpha)


def test_default_pct_ranges_resolve_for_25_mirrors():
    ranges = topology_ranges_from_pct(build_network(25))
    assert ranges.mst_active_links_range == (105, 150)
    assert ranges.rt_active_links_range == (180, 270)


def test_pct_ranges_clamp_for_tiny_networks():
    ranges = topology_ranges_from_pct(build_network(2))
    assert ranges.mst_active_links_range == (1, 1)
    assert ranges.rt_active_links_range == (1, 1)


def test_topology_ranges_ordering_invariant():
    with pytest.raises(ValueError):
        TopologyRanges(mst_active_links_range=(100, 160), rt_active_links_range=(150, 200))
    with pytest.raises(ValueError):
        TopologyRanges(mst_active_links_range=(0, 10), rt_active_links_range=(10, 20))
    with pytest.raises(ValueError):
        TopologyRanges(mst_active_links_range=(20, 10), rt_active_links_range=(20, 30))


def test_topology_parse():
    assert Topology.parse("mst") is Topology.MST
    assert Topology.parse("RT") is Topology.RT
    assert Topology.parse(Topology.MST) is Topology.MST
    assert Topology.MST.other() is Topology.RT
    with pytest.raises(ValueError):
        Topology.parse("ring")


@pytest.mark.parametrize(
    "value,expected", [(0.5, 1), (1.5, 2), (2.4, 2), (2.5, 3), (2.6, 3), (2100.6, 2101)]
)
def test_round_half_up(value, expected):
    assert round_half_up(value) == expected


def test_writing_time_examples():
    assert compute_writing_time(24, 1.0, 15.0) == 360.0
    assert compute_writing_time(0, 1.0, 15.0) == 0.0
    assert compute_writing_time(100, 0.5, 10.0) == 500.0


def test_bandwidth_examples():
    assert compute_bandwidth(105, 1.0, 20.0) == 2100.0
    assert compute_bandwidth(0, 1.0, 25.0) == 0.0
    assert compute_bandwidth(300, 1.0, 30.0) == 9000.0


def test_formula_preconditions():
    with pytest.raises(ValueError):
        compute_writing_time(10, 1.2, 15.0)
    with pytest.raises(ValueError):
        compute_bandwidth(10, 0.0, 15.0)
    with pytest.raises(ValueError):
        compute_writing_time(-1, 1.0, 15.0)
    with pytest.raises(ValueError):
        compute_writing_time(10, 1.0, 0.0)


def test_sample_active_links_respects_ranges():
    ranges = TopologyRanges((105, 150), (180, 270))
    rng = Random(7)
    for _ in range(500):
        assert 105 <= sample_active_links(Topology.MST, ranges, rng) <= 150
        assert 180 <= sample_active_links(Topology.RT, ranges, rng) <= 270


def test_sample_active_links_degenerate_range():
    ranges = TopologyRanges((120, 120), (150, 150))
    assert sample_active_links(Topology.MST, ranges, Random(0)) == 120


def test_degenerate_ranges_force_exact_monitorables():
    network = build_network(
        25, bandwidth_per_link_range=(30.0, 30.0), unit_write_time_range=(20.0, 20.0)
    )
    ranges = TopologyRanges((150, 150), (300, 300))
    sampled = sample_base_monitorables(Topology.RT, network, ranges, Random(1))
    assert sampled.active_links == 300
    assert sampled.bandwidth_consumption == 9000.0
    assert sampled.time_to_write == 6000.0


def test_seed_42_bounds_brute_force():
    # Interval arithmetic on the defaults: links in [105, 150],
    # write time in [1050, 3000] ms, bandwidth in [2100, 4500] GBps.
    network = build_network(25)
    ranges = topology_ranges_from_pct(network)
    rng = Random(42)
    for _ in range(10_000):
        sampled = sample_base_monitorables(Topology.MST, network, ranges, rng)
        assert 105 <= sampled.active_links <= 150
        assert 1050.0 <= sampled.time_to_write <= 3000.0
        assert 2100.0 <= sampled.bandwidth_consumption <= 4500.0


def test_sampling_is_deterministic():
    network = build_network(25)
    ranges = topology_ranges_from_pct(network)
    first = [sample_base_monitorables(Topology.MST, network, ranges, Random(42)) for _ in range(1)]
    second = [sample_base_monitorables(Topology.MST, network, ranges, Random(42)) for _ in range(1)]
    assert first == second
    rng_a, rng_b = Random(9), Random(9)
    for _ in range(100):
        assert sample_base_monitorables(Topology.RT, network, ranges, rng_a) == (
            sample_base_monitorables(Topology.RT, network, ranges, rng_b)
        )


def test_documented_draw_order():
    # Active links first, then the write-time unit, then the bandwidth unit.
    network = build_network(25)
    ranges = topology_ranges_from_pct(network)
    rng, clone = Random(5), Random(5)
    sampled = sample_base_monitorables(Topology.MST, network, ranges, rng)
    links = clone.randint(105, 150)
    unit_write_time = clone.uniform(10.0, 20.0)
    unit_bandwidth = clone.uniform(20.0, 30.0)
    assert sampled.active_links == links
    assert sampled.time_to_write == 1.0 * links * unit_write_time
    assert sampled.bandwidth_consumption == 1.0 * links * unit_bandwidth


@given(
    mirrors=st.integers(min_value=2, max_value=30),
    alpha=st.floats(min_value=0.01, max_value=1.0),
    write_low=st.floats(min_value=0.5, max_value=50.0),
    write_span=st.floats(min_value=0.0, max_value=50.0),
    bandwidth_low=st.floats(min_value=0.5, max_value=50.0),
    bandwidth_span=st.floats(min_value=0.0, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**32),
    use_rt=st.booleans(),
)
def test_sampled_monitorables_match_formulas(
    mirrors, alpha, write_low, write_span, bandwidth_low, bandwidth_span, seed, use_rt
):
    network = build_network(
        mirrors,
        bandwidth_per_link_range=(bandwidth_low, bandwidth_low + bandwidth_span),
        unit_write_time_range=(write_low, write_low + write_span),
        alpha=alpha,
    )
    ranges = topology_ranges_from_pct(network)
    topology = Topology.RT if use_rt else Topology.MST
    rng, clone = Random(seed), Random(seed)
    sampled = sample_base_monitorables(topology, network, ranges, rng)
    links = clone.randint(*ranges.range_for(topology))
    unit_write_time = clone.uniform(*network.unit_write_time_range)
    unit_bandwidth = clone.uniform(*network.bandwidth_per_link_range)
    assert sampled.active_links == links
    assert math.isclose(sampled.time_to_write, alpha * links * unit_write_time, rel_tol=1e-9)
    assert math.isclose(
        sampled.bandwidth_consumption, alpha * links * unit_bandwidth, rel_tol=1e-9
    )


@given(
    links=st.integers(min_value=0, max_value=1000),
    extra=st.integers(min_value=1, max_value=1000),
    alpha=st.floats(min_value=0.01, max_value=1.0),
    unit=st.floats(min_value=0.5, max_value=100.0),
)
def test_derived_metrics_strictly_increase_with_links(links, extra, alpha, unit):
    assert compute_writing_time(links + extra, alpha, unit) > compute_writing_time(
        links, alpha, unit
    )
    assert compute_bandwidth(links + extra, alpha, unit) > compute_bandwidth(links, alpha, unit)


@given(
    mst_low=st.integers(min_value=1, max_value=100),
    mst_span=st.integers(min_value=0, max_value=50),
    rt_gap=st.integers(min_value=0, max_value=50),
    rt_span=st.integers(min_value=0, max_value=50),
)
def test_expected_rt_links_dominate_mst(mst_low, mst_span, rt_gap, rt_span):
    mst = (mst_low, mst_low + mst_span)
    rt = (mst[1] + rt_gap, mst[1] + rt_gap + rt_span)
    ranges = TopologyRanges(mst, rt)
    mst_expected = sum(ranges.mst_active_links_range) / 2
    rt_expected = sum(ranges.rt_active_links_range) / 2
    assert rt_expected >= mst_expected
    if mst != rt:
        # rt_mean >= rt_lo >= mst_hi >= mst_mean, with equality only if the
        # ranges collapse to the same point.
        assert rt_expected > mst_expected
