from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirrorsim.config import ConfigError, config_from_mapping
from mirrorsim.network import Monitorables, Topology, build_network
from mirrorsim.scenarios import (
    DEFAULT_LINK_REDUCTION,
    DEFAULT_LOAD_INFLATION,
    IDENTITY_EFFECTS,
    IDENTITY_INTERVAL,
    EffectSet,
    ScenarioId,
    ScenarioState,
    apply_disturbance,
    initial_topology,
    scenario_profile,
)

NETWORK = build_network(25)


def overridden_profile(scenario, overrides):
    scenario = ScenarioId.parse(scenario)
    config = config_from_mapping({"disturbances": {scenario.value: overrides}})
    return config.scenario_profiles[scenario]


def make_state(scenario, overrides=None, window=None):
    scenario = ScenarioId.parse(scenario)
    return ScenarioState(scenario, overridden_profile(scenario, overrides or {}), window)


def test_scenario_parse():
    assert ScenarioId.parse("s3") is ScenarioId.S3
    assert ScenarioId.parse(ScenarioId.S6) is ScenarioId.S6
    with pytest.raises(ValueError):
        ScenarioId.parse("S9")


@pytest.mark.parametrize("name", ["active_links_factor", "bandwidth_factor", "write_time_factor"])
@pytest.mark.parametrize("bounds", [(1.0, math.nan), (math.nan, 1.0), (1.0, math.inf)])
def test_effect_set_rejects_non_finite_bounds(name, bounds):
    with pytest.raises(ValueError):
        EffectSet(**{name: bounds})


def test_s0_is_identity_profile():
    profile = scenario_profile(ScenarioId.S0)
    assert profile.mst_effects.is_identity
    assert profile.rt_effects.is_identity


def test_s1_reduces_links_under_mst_only():
    profile = scenario_profile(ScenarioId.S1)
    assert profile.mst_effects.active_links_factor == DEFAULT_LINK_REDUCTION
    assert profile.mst_effects.bandwidth_factor == IDENTITY_INTERVAL
    assert profile.mst_effects.write_time_factor == IDENTITY_INTERVAL
    assert profile.rt_effects.is_identity


def test_s2_inflates_load_under_rt_only():
    profile = scenario_profile(ScenarioId.S2)
    assert profile.mst_effects.is_identity
    assert profile.rt_effects.active_links_factor == IDENTITY_INTERVAL
    assert profile.rt_effects.bandwidth_factor == DEFAULT_LOAD_INFLATION
    assert profile.rt_effects.write_time_factor == DEFAULT_LOAD_INFLATION


def test_s3_composes_s1_and_s2():
    s1 = scenario_profile(ScenarioId.S1)
    s2 = scenario_profile(ScenarioId.S2)
    s3 = scenario_profile(ScenarioId.S3)
    assert s3.mst_effects == s1.mst_effects.compose(s2.mst_effects)
    assert s3.rt_effects == s1.rt_effects.compose(s2.rt_effects)


def test_s6_composes_s4_and_s5():
    s4 = scenario_profile(ScenarioId.S4)
    s5 = scenario_profile(ScenarioId.S5)
    s6 = scenario_profile(ScenarioId.S6)
    assert s6.mst_effects == s4.mst_effects.compose(s5.mst_effects)
    assert s6.rt_effects == s4.rt_effects.compose(s5.rt_effects)


def test_s6_disturbs_everything_under_both_topologies():
    profile = scenario_profile(ScenarioId.S6)
    for effects in (profile.mst_effects, profile.rt_effects):
        assert effects.active_links_factor != IDENTITY_INTERVAL
        assert effects.bandwidth_factor != IDENTITY_INTERVAL
        assert effects.write_time_factor != IDENTITY_INTERVAL


def test_effect_set_invariants():
    with pytest.raises(ValueError):
        EffectSet(active_links_factor=(0.0, 0.5))
    with pytest.raises(ValueError):
        EffectSet(bandwidth_factor=(-0.1, 0.5))
    with pytest.raises(ValueError):
        EffectSet(write_time_factor=(1.5, 1.2))
    assert IDENTITY_EFFECTS.is_identity


def test_profile_overrides():
    profile = overridden_profile(ScenarioId.S1, {"mst": {"active_links_factor": [0.5, 0.5]}})
    assert profile.mst_effects.active_links_factor == (0.5, 0.5)
    assert profile.rt_effects.is_identity
    with pytest.raises(ConfigError):
        overridden_profile(ScenarioId.S1, {"ring": {}})
    with pytest.raises(ConfigError):
        overridden_profile(ScenarioId.S1, {"mst": {"latency_factor": [1, 2]}})
    with pytest.raises(ConfigError):
        overridden_profile(ScenarioId.S1, {"mst": {"active_links_factor": [0.7, 0.4]}})


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_default_profile_is_shared(scenario):
    assert scenario_profile(scenario) is scenario_profile(scenario)


def test_override_builds_a_new_profile_and_keeps_the_default():
    default = scenario_profile(ScenarioId.S1)
    overridden = overridden_profile(ScenarioId.S1, {"mst": {"active_links_factor": [0.5, 0.5]}})
    assert overridden is not default
    assert overridden.mst_effects.active_links_factor == (0.5, 0.5)
    assert scenario_profile(ScenarioId.S1) is default
    assert default.mst_effects.active_links_factor == DEFAULT_LINK_REDUCTION


def test_initial_topologies():
    rng = Random(0)
    assert initial_topology(ScenarioId.S0, rng) is Topology.MST
    assert initial_topology(ScenarioId.S1, rng) is Topology.MST
    assert initial_topology(ScenarioId.S4, rng) is Topology.MST
    assert initial_topology(ScenarioId.S2, rng) is Topology.RT
    assert initial_topology(ScenarioId.S5, rng) is Topology.RT


def test_random_initial_topology_is_seed_deterministic_and_varies():
    for scenario in (ScenarioId.S3, ScenarioId.S6):
        picks = {seed: initial_topology(scenario, Random(seed)) for seed in range(20)}
        again = {seed: initial_topology(scenario, Random(seed)) for seed in range(20)}
        assert picks == again
        assert set(picks.values()) == {Topology.MST, Topology.RT}


def test_s0_is_fixed_point():
    state = make_state("S0")
    rng = Random(3)
    for seed in range(50):
        base = Monitorables(100 + seed, 2500.0 + seed, 1500.0 + seed)
        assert apply_disturbance(state, Topology.MST, base, seed, rng, NETWORK) == base
        assert apply_disturbance(state, Topology.RT, base, seed, rng, NETWORK) == base


def test_s1_leaves_rt_untouched():
    state = make_state("S1")
    rng = Random(11)
    base = Monitorables(200, 5000.0, 3000.0)
    for timestep in range(50):
        assert apply_disturbance(state, Topology.RT, base, timestep, rng, NETWORK) == base


def test_s2_leaves_mst_untouched():
    state = make_state("S2")
    rng = Random(11)
    base = Monitorables(120, 3000.0, 1800.0)
    for timestep in range(50):
        assert apply_disturbance(state, Topology.MST, base, timestep, rng, NETWORK) == base


def test_pinned_reduction_factor():
    # With the link factor pinned to 0.5, the link count halves and both
    # derived metrics rescale with it before their own (identity) factors.
    state = make_state("S1", {"mst": {"active_links_factor": [0.5, 0.5]}})
    base = Monitorables(120, 2400.0, 1440.0)
    disturbed = apply_disturbance(state, Topology.MST, base, 0, Random(1), NETWORK)
    assert disturbed == Monitorables(60, 1200.0, 720.0)


def test_reduction_direction_under_s1_mst():
    state = make_state("S1")
    rng = Random(2)
    for _ in range(500):
        base = Monitorables(150, 3750.0, 2250.0)
        disturbed = apply_disturbance(state, Topology.MST, base, 0, rng, NETWORK)
        assert disturbed.active_links <= base.active_links
        assert disturbed.bandwidth_consumption <= base.bandwidth_consumption
        assert disturbed.time_to_write <= base.time_to_write


def test_inflation_direction_under_s2_rt():
    state = make_state("S2")
    rng = Random(2)
    for _ in range(500):
        base = Monitorables(225, 5625.0, 3375.0)
        disturbed = apply_disturbance(state, Topology.RT, base, 0, rng, NETWORK)
        assert disturbed.active_links == base.active_links
        assert disturbed.bandwidth_consumption >= base.bandwidth_consumption
        assert disturbed.time_to_write >= base.time_to_write


def test_s4_gates_on_mst_and_s5_on_rt():
    s4 = make_state("S4")
    s5 = make_state("S5")
    rng = Random(8)
    base = Monitorables(150, 3750.0, 2250.0)
    for timestep in range(20):
        assert apply_disturbance(s4, Topology.RT, base, timestep, rng, NETWORK) == base
        assert apply_disturbance(s5, Topology.MST, base, timestep, rng, NETWORK) == base


def test_window_gates_disturbance_and_preserves_rng():
    state = make_state("S1", window=(5, 10))
    rng = Random(42)
    base = Monitorables(120, 3000.0, 1800.0)
    before = rng.getstate()
    result = apply_disturbance(state, Topology.MST, base, 0, rng, NETWORK)
    assert result is base
    assert rng.getstate() == before  # inactive steps must not consume the stream
    assert state.active_at(5) and state.active_at(10)
    assert not state.active_at(4) and not state.active_at(11)
    disturbed = apply_disturbance(state, Topology.MST, base, 5, rng, NETWORK)
    assert disturbed.active_links < base.active_links


def test_disturbed_links_clamp_to_total():
    state = make_state("S1", {"mst": {"active_links_factor": [2.0, 2.0]}})
    base = Monitorables(200, 4000.0, 3000.0)
    disturbed = apply_disturbance(state, Topology.MST, base, 0, Random(0), NETWORK)
    assert disturbed.active_links == NETWORK.total_links
    assert math.isclose(disturbed.bandwidth_consumption, 4000.0 * 300 / 200, rel_tol=1e-12)


def test_disturbance_is_deterministic():
    state = make_state("S6")
    base = Monitorables(140, 3500.0, 2100.0)
    first = apply_disturbance(state, Topology.MST, base, 7, Random(99), NETWORK)
    second = apply_disturbance(state, Topology.MST, base, 7, Random(99), NETWORK)
    assert first == second


def test_invalid_window_and_timestep_rejected():
    with pytest.raises(ValueError):
        make_state("S1", window=(-1, 5))
    with pytest.raises(ValueError):
        make_state("S1", window=(9, 3))
    state = make_state("S1")
    with pytest.raises(ValueError):
        apply_disturbance(state, Topology.MST, Monitorables(1, 1.0, 1.0), -1, Random(0), NETWORK)


@given(
    links=st.integers(min_value=0, max_value=300),
    bandwidth=st.floats(min_value=0.0, max_value=10_000.0),
    write_time=st.floats(min_value=0.0, max_value=10_000.0),
    timestep=st.integers(min_value=0, max_value=99),
    seed=st.integers(min_value=0, max_value=2**32),
    scenario=st.sampled_from(list(ScenarioId)),
    use_rt=st.booleans(),
)
def test_disturbed_monitorables_stay_valid(
    links, bandwidth, write_time, timestep, seed, scenario, use_rt
):
    state = make_state(scenario)
    base = Monitorables(links, bandwidth, write_time)
    topology = Topology.RT if use_rt else Topology.MST
    disturbed = apply_disturbance(state, topology, base, timestep, Random(seed), NETWORK)
    assert 0 <= disturbed.active_links <= NETWORK.total_links
    assert disturbed.bandwidth_consumption >= 0
    assert disturbed.time_to_write >= 0
