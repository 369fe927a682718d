from __future__ import annotations

import math
from dataclasses import astuple
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirrorsim.config import ConfigError, SimulationProperties, config_from_mapping
from mirrorsim.network import Monitorables, Topology, build_network, sample_base_monitorables
from mirrorsim.managers import NullManager
from mirrorsim.runner import run
from mirrorsim.scenarios import (
    CATALOGUE,
    DEFAULT_LINK_REDUCTION,
    DEFAULT_LOAD_INFLATION,
    FACTOR_NAMES,
    IDENTITY_EFFECTS,
    IDENTITY_INTERVAL,
    EffectSet,
    ScenarioId,
    apply_disturbance,
    initial_topology,
)

NETWORK = build_network(25)


def overridden_profile(scenario, overrides):
    scenario = ScenarioId.parse(scenario)
    config = config_from_mapping({"disturbances": {scenario.value: overrides}})
    return config.scenario_profiles[scenario]


def default_profile(scenario):
    return CATALOGUE[scenario][0]


def product(effects, other):
    """Per-field interval product: both effect sets applied in sequence."""
    return EffectSet(*(
        (lower * other_lower, upper * other_upper)
        for (lower, upper), (other_lower, other_upper) in zip(astuple(effects), astuple(other))
    ))


def effects_of(scenario, topology, overrides=None):
    """The effect set a run of ``scenario`` applies while ``topology`` is selected."""
    profile = overridden_profile(scenario, overrides or {})
    return profile.mst_effects if topology is Topology.MST else profile.rt_effects


def test_scenario_parse():
    assert ScenarioId.parse("s3") is ScenarioId.S3
    assert ScenarioId.parse(ScenarioId.S6) is ScenarioId.S6
    with pytest.raises(ValueError):
        ScenarioId.parse("S9")


@pytest.mark.parametrize("name", ["active_links_factor", "bandwidth_factor", "write_time_factor"])
@pytest.mark.parametrize(
    "bounds",
    [
        (1.0, math.nan), (math.nan, 1.0), (1.0, math.inf), (True, True), (1.0, True), ("1", "2"),
        (1, 10**400),  # an int past the float range
    ],
)
def test_effect_set_rejects_non_finite_bounds(name, bounds):
    with pytest.raises(ValueError, match=f"^{name} bounds must be"):
        EffectSet(**{name: bounds})


def test_s0_is_identity_profile():
    profile = default_profile(ScenarioId.S0)
    assert profile.mst_effects == IDENTITY_EFFECTS
    assert profile.rt_effects == IDENTITY_EFFECTS


def test_s1_reduces_links_under_mst_only():
    profile = default_profile(ScenarioId.S1)
    assert profile.mst_effects.active_links_factor == DEFAULT_LINK_REDUCTION
    assert profile.mst_effects.bandwidth_factor == IDENTITY_INTERVAL
    assert profile.mst_effects.write_time_factor == IDENTITY_INTERVAL
    assert profile.rt_effects == IDENTITY_EFFECTS


def test_s2_inflates_load_under_rt_only():
    profile = default_profile(ScenarioId.S2)
    assert profile.mst_effects == IDENTITY_EFFECTS
    assert profile.rt_effects.active_links_factor == IDENTITY_INTERVAL
    assert profile.rt_effects.bandwidth_factor == DEFAULT_LOAD_INFLATION
    assert profile.rt_effects.write_time_factor == DEFAULT_LOAD_INFLATION


def test_s3_composes_s1_and_s2():
    s1 = default_profile(ScenarioId.S1)
    s2 = default_profile(ScenarioId.S2)
    s3 = default_profile(ScenarioId.S3)
    assert s3.mst_effects == product(s1.mst_effects, s2.mst_effects)
    assert s3.rt_effects == product(s1.rt_effects, s2.rt_effects)


def test_s6_composes_s4_and_s5():
    s4 = default_profile(ScenarioId.S4)
    s5 = default_profile(ScenarioId.S5)
    s6 = default_profile(ScenarioId.S6)
    assert s6.mst_effects == product(s4.mst_effects, s5.mst_effects)
    assert s6.rt_effects == product(s4.rt_effects, s5.rt_effects)
    # S4's set is S1's and S2's disturbed sets in one.
    s1, s2 = default_profile(ScenarioId.S1), default_profile(ScenarioId.S2)
    assert s4.mst_effects == product(s1.mst_effects, s2.rt_effects)


def test_s6_disturbs_everything_under_both_topologies():
    profile = default_profile(ScenarioId.S6)
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
    assert all(
        getattr(IDENTITY_EFFECTS, name) == IDENTITY_INTERVAL for name in FACTOR_NAMES
    )


def test_profile_overrides():
    profile = overridden_profile(ScenarioId.S1, {"mst": {"active_links_factor": [0.5, 0.5]}})
    assert profile.mst_effects.active_links_factor == (0.5, 0.5)
    assert profile.rt_effects == IDENTITY_EFFECTS
    with pytest.raises(ConfigError):
        overridden_profile(ScenarioId.S1, {"ring": {}})
    with pytest.raises(ConfigError):
        overridden_profile(ScenarioId.S1, {"mst": {"latency_factor": [1, 2]}})
    with pytest.raises(ConfigError):
        overridden_profile(ScenarioId.S1, {"mst": {"active_links_factor": [0.7, 0.4]}})


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_default_profile_is_shared(scenario):
    assert config_from_mapping({}).scenario_profiles[scenario] is default_profile(scenario)


def test_override_builds_a_new_profile_and_keeps_the_default():
    default = default_profile(ScenarioId.S1)
    overridden = overridden_profile(ScenarioId.S1, {"mst": {"active_links_factor": [0.5, 0.5]}})
    assert overridden is not default
    assert overridden.mst_effects.active_links_factor == (0.5, 0.5)
    assert default_profile(ScenarioId.S1) is default
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
    mst, rt = effects_of("S0", Topology.MST), effects_of("S0", Topology.RT)
    rng = Random(3)
    for seed in range(50):
        base = Monitorables(100 + seed, 2500.0 + seed, 1500.0 + seed)
        assert apply_disturbance(mst, base, rng, NETWORK) == base
        assert apply_disturbance(rt, base, rng, NETWORK) == base


def test_s1_leaves_rt_untouched():
    effects = effects_of("S1", Topology.RT)
    rng = Random(11)
    base = Monitorables(200, 5000.0, 3000.0)
    for _ in range(50):
        assert apply_disturbance(effects, base, rng, NETWORK) == base


def test_s2_leaves_mst_untouched():
    effects = effects_of("S2", Topology.MST)
    rng = Random(11)
    base = Monitorables(120, 3000.0, 1800.0)
    for _ in range(50):
        assert apply_disturbance(effects, base, rng, NETWORK) == base


def test_pinned_reduction_factor():
    # With the link factor pinned to 0.5, the link count halves and both
    # derived metrics rescale with it before their own (identity) factors.
    effects = effects_of("S1", Topology.MST, {"mst": {"active_links_factor": [0.5, 0.5]}})
    base = Monitorables(120, 2400.0, 1440.0)
    disturbed = apply_disturbance(effects, base, Random(1), NETWORK)
    assert disturbed == Monitorables(60, 1200.0, 720.0)


def test_reduction_direction_under_s1_mst():
    effects = effects_of("S1", Topology.MST)
    rng = Random(2)
    for _ in range(500):
        base = Monitorables(150, 3750.0, 2250.0)
        disturbed = apply_disturbance(effects, base, rng, NETWORK)
        assert disturbed.active_links <= base.active_links
        assert disturbed.bandwidth_consumption <= base.bandwidth_consumption
        assert disturbed.time_to_write <= base.time_to_write


def test_inflation_direction_under_s2_rt():
    effects = effects_of("S2", Topology.RT)
    rng = Random(2)
    for _ in range(500):
        base = Monitorables(225, 5625.0, 3375.0)
        disturbed = apply_disturbance(effects, base, rng, NETWORK)
        assert disturbed.active_links == base.active_links
        assert disturbed.bandwidth_consumption >= base.bandwidth_consumption
        assert disturbed.time_to_write >= base.time_to_write


def test_s4_gates_on_mst_and_s5_on_rt():
    s4_rt = effects_of("S4", Topology.RT)
    s5_mst = effects_of("S5", Topology.MST)
    rng = Random(8)
    base = Monitorables(150, 3750.0, 2250.0)
    for _ in range(20):
        assert apply_disturbance(s4_rt, base, rng, NETWORK) == base
        assert apply_disturbance(s5_mst, base, rng, NETWORK) == base


def test_window_gates_disturbance_and_preserves_rng():
    # An S1 run stays on MST (no initial coin). Outside its inclusive window
    # a step is the base sample and draws no factor; inside it, the MST
    # effect set draws its three factors after the base sample.
    config = config_from_mapping(
        {"scenario": "S1", "seed": 42, "timesteps": 15, "disturbance_window": [5, 10]}
    )
    trace = run(NullManager(), config).trace
    rng = Random(42)
    effects = config.scenario_profiles[ScenarioId.S1].mst_effects
    expected = []
    for timestep in range(15):
        base = sample_base_monitorables(Topology.MST, config.network, config.ranges, rng)
        if 5 <= timestep <= 10:
            base = apply_disturbance(effects, base, rng, config.network)
        expected.append(base)
    assert [record[2:5] for record in trace] == expected


def test_disturbed_links_clamp_to_total():
    effects = effects_of("S1", Topology.MST, {"mst": {"active_links_factor": [2.0, 2.0]}})
    base = Monitorables(200, 4000.0, 3000.0)
    disturbed = apply_disturbance(effects, base, Random(0), NETWORK)
    assert disturbed.active_links == NETWORK.total_links
    assert math.isclose(disturbed.bandwidth_consumption, 4000.0 * 300 / 200, rel_tol=1e-12)


def test_disturbance_is_deterministic():
    effects = effects_of("S6", Topology.MST)
    base = Monitorables(140, 3500.0, 2100.0)
    first = apply_disturbance(effects, base, Random(99), NETWORK)
    second = apply_disturbance(effects, base, Random(99), NETWORK)
    assert first == second


def test_invalid_window_rejected():
    with pytest.raises(ValueError):
        SimulationProperties(disturbance_window=(-1, 5))
    with pytest.raises(ValueError):
        SimulationProperties(disturbance_window=(9, 3))


@given(
    links=st.integers(min_value=0, max_value=300),
    bandwidth=st.floats(min_value=0.0, max_value=10_000.0),
    write_time=st.floats(min_value=0.0, max_value=10_000.0),
    seed=st.integers(min_value=0, max_value=2**32),
    scenario=st.sampled_from(list(ScenarioId)),
    use_rt=st.booleans(),
)
def test_disturbed_monitorables_stay_valid(links, bandwidth, write_time, seed, scenario, use_rt):
    effects = effects_of(scenario, Topology.RT if use_rt else Topology.MST)
    base = Monitorables(links, bandwidth, write_time)
    disturbed = apply_disturbance(effects, base, Random(seed), NETWORK)
    assert 0 <= disturbed.active_links <= NETWORK.total_links
    assert disturbed.bandwidth_consumption >= 0
    assert disturbed.time_to_write >= 0
