from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirrorsim.network import (
    MirrorNetwork,
    Topology,
    TopologyRanges,
    build_network,
    round_half_up,
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


@pytest.mark.parametrize("num_mirrors", [25.5, True, "25"])
def test_rejects_a_mirror_count_that_is_not_an_integer(num_mirrors):
    # build_network passes the count through, so build the network by hand.
    with pytest.raises(ValueError, match="^num_mirrors must be an integer"):
        MirrorNetwork(num_mirrors, (20.0, 30.0), (10.0, 20.0), 1.0)


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
    "bounds",
    [
        (20.0, math.nan), (math.nan, 30.0), (10.0, math.inf), (-math.inf, 30.0),
        # Not numbers at all: a bool and strings are refused before any comparison.
        (True, 30.0), ("20", "30"),
        # Ints past the float range, either side.
        (1, 10**400), (-(10**400), 30.0),
    ],
)
def test_rejects_non_finite_parameter_ranges(field, bounds):
    with pytest.raises(ValueError, match=f"^{field} bounds must be"):
        build_network(25, **{field: bounds})


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, True, "1"])
def test_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="^alpha must be"):
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
    with pytest.raises(ValueError, match="^RT active-link range must not start below"):
        TopologyRanges(mst_active_links_range=(100, 160), rt_active_links_range=(150, 200))
    with pytest.raises(ValueError, match="^mst_active_links_range lower bound must be >= 1"):
        TopologyRanges(mst_active_links_range=(0, 10), rt_active_links_range=(10, 20))
    with pytest.raises(ValueError, match=r"^mst_active_links_range is inverted: \[20, 10\]$"):
        TopologyRanges(mst_active_links_range=(20, 10), rt_active_links_range=(20, 30))
    # Each range is checked, MST first, before the RT range is compared with the MST one.
    with pytest.raises(ValueError, match=r"^mst_active_links_range is inverted: \[20, 10\]$"):
        TopologyRanges(mst_active_links_range=(20, 10), rt_active_links_range=(0, 30))
    with pytest.raises(ValueError, match="^rt_active_links_range lower bound must be >= 1"):
        TopologyRanges(mst_active_links_range=(100, 160), rt_active_links_range=(0, 200))
    with pytest.raises(ValueError, match=r"^rt_active_links_range is inverted: \[150, 140\]$"):
        TopologyRanges(mst_active_links_range=(100, 160), rt_active_links_range=(150, 140))
    # Each bound must be an int (a bool is not), before any comparison.
    with pytest.raises(ValueError, match=r"^mst_active_links_range must be a pair of integers"):
        TopologyRanges(mst_active_links_range=(1.5, 3), rt_active_links_range=(4, 5))
    with pytest.raises(ValueError, match=r"^mst_active_links_range must be a pair of integers"):
        TopologyRanges(mst_active_links_range=(1, True), rt_active_links_range=(4, 5))
    with pytest.raises(ValueError, match=r"^rt_active_links_range must be a pair of integers"):
        TopologyRanges(mst_active_links_range=(1, 3), rt_active_links_range=("4", "5"))
    with pytest.raises(ValueError, match=r"^rt_active_links_range must be a pair of integers"):
        TopologyRanges(mst_active_links_range=(1, 3), rt_active_links_range=(4, 5.0))
    # Each percentage bound must be a number (a bool is not), before any comparison.
    network = build_network(25)
    with pytest.raises(ValueError, match=r"^mst active-link percentage range .*\['35', '50'\]$"):
        topology_ranges_from_pct(network, ("35", "50"))
    with pytest.raises(ValueError, match=r"^rt active-link percentage range .*\[True, 50\]$"):
        topology_ranges_from_pct(network, (35, 50), (True, 50))


def test_topology_parse():
    assert Topology.parse("mst") is Topology.MST
    assert Topology.parse("RT") is Topology.RT
    assert Topology.parse(Topology.MST) is Topology.MST
    assert Topology.MST.other() is Topology.RT
    with pytest.raises(ValueError):
        Topology.parse("ring")


def _parse_through_the_enum(name):
    """``Topology.parse`` as it was written over ``Enum.__call__``."""
    if isinstance(name, Topology):
        return name
    try:
        return Topology(str(name).strip().lower())
    except ValueError:
        raise ValueError(f"unknown topology name: {name!r}") from None


@pytest.mark.parametrize("name", [Topology.RT, "MST", " rt\n", "Rt", "", "x", 5, None])
def test_topology_parse_answers_as_the_enum_lookup_did(name):
    try:
        expected = _parse_through_the_enum(name)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            Topology.parse(name)
        assert str(refused.value) == str(exc)
    else:
        assert Topology.parse(name) is expected


@pytest.mark.parametrize(
    "value,expected", [(0.5, 1), (1.5, 2), (2.4, 2), (2.5, 3), (2.6, 3), (2100.6, 2101)]
)
def test_round_half_up(value, expected):
    assert round_half_up(value) == expected


def exact_monitorables(links, alpha, unit_write_time=15.0, bandwidth_per_link=25.0):
    """Sample once from single-point ranges, so every value is exact."""
    network = build_network(
        25,
        bandwidth_per_link_range=(bandwidth_per_link, bandwidth_per_link),
        unit_write_time_range=(unit_write_time, unit_write_time),
        alpha=alpha,
    )
    ranges = TopologyRanges((links, links), (links, links))
    return sample_base_monitorables(Topology.MST, network, ranges, Random(0))


def test_writing_time_examples():
    assert exact_monitorables(24, 1.0, unit_write_time=15.0).time_to_write == 360.0
    assert exact_monitorables(100, 0.5, unit_write_time=10.0).time_to_write == 500.0


def test_bandwidth_examples():
    assert exact_monitorables(105, 1.0, bandwidth_per_link=20.0).bandwidth_consumption == 2100.0
    assert exact_monitorables(300, 1.0, bandwidth_per_link=30.0).bandwidth_consumption == 9000.0


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
    links = clone.randint(
        *(ranges.rt_active_links_range if use_rt else ranges.mst_active_links_range)
    )
    unit_write_time = clone.uniform(*network.unit_write_time_range)
    unit_bandwidth = clone.uniform(*network.bandwidth_per_link_range)
    assert sampled.active_links == links
    assert math.isclose(sampled.time_to_write, alpha * links * unit_write_time, rel_tol=1e-9)
    assert math.isclose(
        sampled.bandwidth_consumption, alpha * links * unit_bandwidth, rel_tol=1e-9
    )


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
