from __future__ import annotations

import dataclasses
import json
import re

import pytest

from mirrorsim.config import (
    ConfigError,
    ConfigInvariantError,
    ConfigSchemaError,
    ConfigSyntaxError,
    ExperimentConfig,
    SatisfactionThresholds,
    SimulationProperties,
    config_from_mapping,
    default_config,
    default_config_mapping,
    load_config,
)
from mirrorsim.management import EffectorError
from mirrorsim.managers import create_manager
from mirrorsim.network import Topology, TopologyRanges, build_network, topology_ranges_from_pct
from mirrorsim.runner import build_simulation
from mirrorsim.scenarios import CATALOGUE, DisturbanceProfile, EffectSet, ScenarioId


def write_config(tmp_path, mapping):
    path = tmp_path / "configuration.json"
    path.write_text(json.dumps(mapping))
    return path


@pytest.mark.parametrize(
    "fragment",
    [
        '"bandwidth_per_link_range": [20, NaN]',
        '"unit_write_time_range": [10, Infinity]',
        '"unit_write_time_range": [-Infinity, 20]',
        '"disturbances": {"S1": {"mst": {"bandwidth_factor": [1, NaN]}}}',
        '"disturbances": {"S2": {"rt": {"write_time_factor": [1, Infinity]}}}',
    ],
)
def test_non_finite_ranges_in_json_are_config_errors(tmp_path, fragment):
    path = tmp_path / "configuration.json"
    path.write_text("{" + fragment + "}")
    with pytest.raises(ConfigError):
        load_config(path)


def test_default_file_round_trip(tmp_path):
    path = write_config(tmp_path, default_config_mapping())
    config = load_config(path)
    assert config.network.num_mirrors == 25
    assert config.network.total_links == 300
    assert config.properties.timesteps == 100
    assert config.properties.scenario is ScenarioId.S0
    assert config.properties.seed == 0
    assert config.ranges.mst_active_links_range == (105, 150)
    assert config.ranges.rt_active_links_range == (180, 270)
    assert config.properties.thresholds == SatisfactionThresholds(40.0, 45.0, 35.0)


def test_empty_mapping_gets_all_defaults():
    config = config_from_mapping({})
    assert config == default_config()
    assert config.network.alpha == 1.0
    assert config.scenario_profiles == {s: CATALOGUE[s][0] for s in ScenarioId}


def test_omitted_scenario_defaults_to_s0(tmp_path):
    path = write_config(tmp_path, {"seed": 9})
    assert load_config(path).properties.scenario is ScenarioId.S0


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    with pytest.raises(ConfigError, match="cannot read configuration file"):
        load_config(tmp_path)  # a directory


def test_malformed_json_raises_syntax_error(tmp_path):
    path = tmp_path / "configuration.json"
    path.write_text("{not json")
    with pytest.raises(ConfigSyntaxError):
        load_config(path)


def test_unknown_key_reports_path():
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_mapping({"number_of_mirror": 25})
    assert excinfo.value.path == "number_of_mirror"


def test_wrong_type_reports_path():
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_mapping({"thresholds": {"bandwidth_pct": "forty"}})
    assert excinfo.value.path == "thresholds.bandwidth_pct"
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_mapping({"bandwidth_per_link_range": [20.0]})
    assert excinfo.value.path == "bandwidth_per_link_range"
    with pytest.raises(ConfigSchemaError):
        config_from_mapping({"timesteps": True})


SCHEMA_ERRORS = [
    # (mapping, the error's path, the rest of its message)
    ([1, 2], "$", "expected a JSON object, got [1, 2]"),
    ({"number_of_mirrors": "x"}, "number_of_mirrors", "expected an integer, got 'x'"),
    ({"timesteps": "x"}, "timesteps", "expected an integer, got 'x'"),
    ({"scenario": "x"}, "scenario", "unknown scenario id: 'x'"),
    ({"seed": "x"}, "seed", "expected an integer, got 'x'"),
    ({"alpha": "x"}, "alpha", "expected a number, got 'x'"),
    ({"bandwidth_per_link_range": [1]}, "bandwidth_per_link_range",
     "expected a [lower, upper] pair, got [1]"),
    ({"unit_write_time_range": [1]}, "unit_write_time_range",
     "expected a [lower, upper] pair, got [1]"),
    ({"mst_active_links_range_pct": [1]}, "mst_active_links_range_pct",
     "expected a [lower, upper] pair, got [1]"),
    ({"rt_active_links_range_pct": [1]}, "rt_active_links_range_pct",
     "expected a [lower, upper] pair, got [1]"),
    ({"thresholds": "x"}, "thresholds", "expected an object, got 'x'"),
    ({"disturbances": "x"}, "disturbances", "expected an object, got 'x'"),
    ({"disturbance_window": [1]}, "disturbance_window", "expected a [start, end] pair, got [1]"),
    ({"thresholds": {"bandwidth_pct": "x"}}, "thresholds.bandwidth_pct",
     "expected a number, got 'x'"),
    ({"thresholds": {"write_time_pct": "x"}}, "thresholds.write_time_pct",
     "expected a number, got 'x'"),
    ({"thresholds": {"active_links_pct": "x"}}, "thresholds.active_links_pct",
     "expected a number, got 'x'"),
    ({"thresholds": {"latency_pct": 1}}, "thresholds.latency_pct", "unknown threshold key"),
    ({"number_of_mirror": 25}, "number_of_mirror", "unknown configuration key"),
    ({"unit_write_time_range": ["x", 1]}, "unit_write_time_range[0]",
     "expected a number, got 'x'"),
    ({"disturbance_window": [1, 2.5]}, "disturbance_window[1]", "expected an integer, got 2.5"),
    ({"disturbances": {"S1": "x"}}, "disturbances.S1", "expected an object, got 'x'"),
    ({"disturbances": {"S1": {"rt": "x"}}}, "disturbances.S1.rt", "expected an object, got 'x'"),
    ({"disturbances": {"S1": {"rt": {"bandwidth_factor": [1]}}}},
     "disturbances.S1.rt.bandwidth_factor", "expected a [lower, upper] pair, got [1]"),
]


@pytest.mark.parametrize(
    "mapping, path, message", SCHEMA_ERRORS, ids=[path for _, path, _ in SCHEMA_ERRORS]
)
def test_each_schema_error_names_its_path_and_shape(mapping, path, message):
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_mapping(mapping)
    assert type(excinfo.value) is ConfigSchemaError
    assert excinfo.value.path == path
    assert str(excinfo.value) == f"{path}: {message}"


def test_of_several_bad_keys_the_first_in_documented_order_is_reported():
    # The mapping holds them in reverse order; the schema's order decides.
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_mapping(
            {"disturbance_window": [1], "thresholds": "x", "alpha": "x", "number_of_mirrors": "x"}
        )
    assert str(excinfo.value) == "number_of_mirrors: expected an integer, got 'x'"
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_mapping({"disturbances": "x", "rt_active_links_range_pct": [1]})
    assert excinfo.value.path == "rt_active_links_range_pct"
    # Unknown keys come before any bad value, the first of them in sorted order.
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_mapping({"seed": "x", "zeta": 1, "beta": 2})
    assert str(excinfo.value) == "beta: unknown configuration key"


def test_partial_thresholds_keep_the_other_defaults():
    config = config_from_mapping({"thresholds": {"bandwidth_pct": 30}})
    assert config.properties.thresholds == SatisfactionThresholds(max_bandwidth_pct=30.0)


def test_unknown_scenario_is_schema_error():
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_mapping({"scenario": "S9"})
    assert excinfo.value.path == "scenario"


def test_invariant_violations_use_distinct_class():
    with pytest.raises(ConfigInvariantError):
        config_from_mapping({"number_of_mirrors": 1})
    with pytest.raises(ConfigInvariantError):
        config_from_mapping({"alpha": 2.0})
    with pytest.raises(ConfigInvariantError):
        config_from_mapping({"unit_write_time_range": [20.0, 10.0]})
    with pytest.raises(ConfigInvariantError):
        config_from_mapping({"timesteps": 0})
    with pytest.raises(ConfigInvariantError):
        config_from_mapping({"seed": -1})
    with pytest.raises(ConfigInvariantError):
        config_from_mapping({"seed": 2**64})
    with pytest.raises(ConfigInvariantError):
        config_from_mapping({"thresholds": {"bandwidth_pct": 0}})


def test_window_validation():
    config = config_from_mapping({"disturbance_window": [10, 20]})
    assert config.properties.disturbance_window == (10, 20)
    with pytest.raises(ConfigInvariantError):
        config_from_mapping({"disturbance_window": [90, 120]})
    with pytest.raises(ConfigInvariantError):
        config_from_mapping({"disturbance_window": [10, 5]})
    with pytest.raises(ConfigSchemaError):
        config_from_mapping({"disturbance_window": [10]})


def test_disturbance_overrides_parse_and_apply():
    config = config_from_mapping(
        {
            "scenario": "S1",
            "disturbances": {"S1": {"mst": {"active_links_factor": [0.5, 0.6]}}},
        }
    )
    profiles = config.scenario_profiles
    overridden = DisturbanceProfile(mst_effects=EffectSet(active_links_factor=(0.5, 0.6)))
    assert profiles[ScenarioId.S1] == overridden
    assert all(profiles[s] is CATALOGUE[s][0] for s in ScenarioId if s is not ScenarioId.S1)


def test_disturbance_override_paths_and_invariants():
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_mapping({"disturbances": {"S1": {"star": {}}}})
    assert excinfo.value.path == "disturbances.S1.star"
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_mapping({"disturbances": {"S1": {"mst": {"latency_factor": [1, 2]}}}})
    assert excinfo.value.path == "disturbances.S1.mst.latency_factor"
    with pytest.raises(ConfigSchemaError) as excinfo:
        config_from_mapping({"disturbances": {"S7": {}}})
    assert excinfo.value.path == "disturbances.S7"
    with pytest.raises(ConfigInvariantError):
        config_from_mapping({"disturbances": {"S1": {"mst": {"active_links_factor": [0.0, 0.5]}}}})


def test_custom_pct_ranges_resolve():
    config = config_from_mapping(
        {"mst_active_links_range_pct": [10.0, 20.0], "rt_active_links_range_pct": [20.0, 40.0]}
    )
    assert config.ranges.mst_active_links_range == (30, 60)
    assert config.ranges.rt_active_links_range == (60, 120)
    with pytest.raises(ConfigInvariantError):
        config_from_mapping(
            {
                "mst_active_links_range_pct": [40.0, 60.0],
                "rt_active_links_range_pct": [50.0, 90.0],
            }
        )
    for pct in ([0, 50], [60, 101], [50, 40]):
        with pytest.raises(ConfigInvariantError, match="0 < lower <= upper <= 100"):
            config_from_mapping({"mst_active_links_range_pct": pct})


def test_with_updates_revalidates():
    config = default_config()
    updated = config.with_updates(scenario=ScenarioId.S2, seed=9, timesteps=10)
    assert updated.properties.scenario is ScenarioId.S2
    assert updated.properties.seed == 9
    assert updated.properties.timesteps == 10
    assert config.properties.seed == 0  # original untouched
    windowed = config_from_mapping({"disturbance_window": [50, 99]})
    with pytest.raises(ValueError):
        windowed.with_updates(timesteps=20)  # window now out of bounds
    # A wrong type fails here, not later in the run: a float length at
    # range(), a bool as a 1-step run or seed 1.
    for name, value in (("timesteps", 2.5), ("timesteps", True), ("seed", True), ("seed", 1.5)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            config.with_updates(**{name: value})


def test_with_updates_with_no_change_rebuilds_an_equal_config():
    assert default_config().with_updates() == default_config()


def test_properties_direct_validation():
    with pytest.raises(ValueError):
        SimulationProperties(timesteps=0)
    with pytest.raises(ValueError):
        SimulationProperties(disturbance_window=(50, 120))
    with pytest.raises(ValueError):
        SatisfactionThresholds(max_bandwidth_pct=101.0)
    for name, value in (("timesteps", 2.5), ("timesteps", True), ("seed", True), ("seed", 1.5)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            SimulationProperties(**{name: value})
    with pytest.raises(ValueError, match="^scenario must be a ScenarioId, got 'S3'$"):
        SimulationProperties(scenario="S3")
    # The schema's number and integer rules: a bool or a string is no bound,
    # and a window's ends are integers.
    for value in (True, "50"):
        with pytest.raises(ValueError, match=f"^max_bandwidth_pct must be a number, got {value!r}$"):
            SatisfactionThresholds(max_bandwidth_pct=value)
    for window in ((0.5, 2.5), (True, 2)):
        message = f"disturbance_window must be a pair of integers, got {window!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationProperties(disturbance_window=window)


@pytest.mark.parametrize(
    "mapping",
    [
        {"bandwidth_per_link_range": [1, 1e308], "scenario": "S2"},
        {"bandwidth_per_link_range": [1, 1e308]},
        {"unit_write_time_range": [1, 4e306]},
        # The scenario does not matter: with_updates may pick any of them.
        {"scenario": "S0", "disturbances": {"S5": {"rt": {"write_time_factor": [1, 1e306]}}}},
        # Finite value and percentage, but the normalization basis overflows.
        {"alpha": 0.001, "bandwidth_per_link_range": [1, 1e307]},
        # Finite value and basis, but the percentage overflows.
        {
            "unit_write_time_range": [1e-300, 1e-300],
            "disturbances": {"S2": {"rt": {"write_time_factor": [1, 1e307]}}},
        },
        # Finite steps and percentages, but their sum over the run overflows.
        {
            "timesteps": 50000,
            "disturbances": {"S2": {"rt": {"bandwidth_factor": [1e302, 1e302]}}},
        },
        # Integers past the float range: the run length and numbers the
        # schema reads as floats, in the network and in a scenario's effects.
        {"timesteps": 10**400},
        {"bandwidth_per_link_range": [1, 10**400]},
        {"disturbances": {"S2": {"rt": {"bandwidth_factor": [1, 10**400]}}}},
    ],
)
def test_configs_whose_worst_step_overflows_are_rejected(mapping):
    with pytest.raises(ConfigInvariantError, match="non-finite"):
        config_from_mapping(mapping)


def test_a_hand_built_network_whose_basis_overflows_is_rejected():
    # The int bound is within the float range; its basis, 300 x 10**306, is not.
    network = build_network(25, bandwidth_per_link_range=(1, 10**306))
    with pytest.raises(
        ValueError,
        match="^bandwidth_per_link_range upper bound 1000.* lets a step's value or its"
        " percentage overflow to a non-finite number$",
    ):
        dataclasses.replace(default_config(), network=network)


HUGE = 10**5000  # more digits than the interpreter converts to text


@pytest.mark.parametrize(("build", "names"), [
    (lambda: build_network(25, bandwidth_per_link_range=(1, HUGE)),
     "bandwidth_per_link_range bounds must be finite"),
    (lambda: EffectSet(bandwidth_factor=(1, HUGE)), "bandwidth_factor bounds must be finite"),
    (lambda: topology_ranges_from_pct(build_network(25), (1, HUGE)),
     "mst active-link percentage range"),
    (lambda: TopologyRanges((HUGE, 1), (HUGE, HUGE)), "mst_active_links_range is inverted"),
    (lambda: dataclasses.replace(
        default_config(), ranges=TopologyRanges((1, HUGE), (HUGE, HUGE))
    ), "mst_active_links_range upper bound"),
    (lambda: SatisfactionThresholds(max_bandwidth_pct=HUGE), "max_bandwidth_pct must be in"),
    (lambda: SimulationProperties(timesteps=5, disturbance_window=(0, HUGE)),
     "disturbance_window"),
    (lambda: build_network(HUGE), "mirrors give more links"),
    (lambda: build_network(25, alpha=HUGE), "alpha must be in"),
    (lambda: default_config().with_updates(timesteps=HUGE), "step percentages overflow"),
], ids=["unit_range", "effect_set", "range_pct", "link_ranges", "config_ranges",
        "threshold", "window", "mirrors", "alpha", "timesteps"])
def test_an_integer_too_long_for_text_is_named_by_its_digit_count(build, names):
    # str() of such an integer raises the interpreter's own ValueError, which
    # names no field; each boundary prints its digit count instead.
    with pytest.raises(ValueError, match=names) as refused:
        build()
    assert "an integer of 5001 digits" in str(refused.value)


@pytest.mark.parametrize(("build", "message"), [
    (lambda: build_network(25, bandwidth_per_link_range=(HUGE, "1")),
     "bandwidth_per_link_range bounds must be numbers, got (an integer of 5001 digits, '1')"),
    (lambda: TopologyRanges((HUGE, 1.5), (1, 1)),
     "mst_active_links_range must be a pair of integers, got (an integer of 5001 digits, 1.5)"),
    (lambda: SimulationProperties(disturbance_window=[HUGE, 1.5]),
     "disturbance_window must be a pair of integers, got [an integer of 5001 digits, 1.5]"),
], ids=["unit_range", "link_ranges", "window"])
def test_a_pair_of_the_wrong_type_prints_a_long_integer_by_its_digit_count(build, message):
    # The pair keeps its own brackets; an element too long for text is
    # printed by its digit count, as a lone value is.
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def _effector():
    return build_simulation(default_config()).effector


@pytest.mark.parametrize(("build", "error", "message"), [
    (lambda: build_network(25, bandwidth_per_link_range=([HUGE], 1)), ValueError,
     "bandwidth_per_link_range bounds must be numbers, got (a list too long to print, 1)"),
    (lambda: SatisfactionThresholds(max_bandwidth_pct=[HUGE]), ValueError,
     "max_bandwidth_pct must be a number, got a list too long to print"),
    (lambda: SimulationProperties(timesteps=[HUGE]), ValueError,
     "timesteps must be an integer, got a list too long to print"),
    (lambda: _effector().set_active_links([HUGE]), EffectorError,
     "active_links must be an integer, got a list too long to print"),
    (lambda: _effector().set_time_to_write([HUGE]), EffectorError,
     "time_to_write must be a number, got a list too long to print"),
    (lambda: _effector().set_network_topology([HUGE], "mst"), EffectorError,
     "timestep must be an integer, got a list too long to print"),
    (lambda: build_network({HUGE}), ValueError,
     "num_mirrors must be an integer, got a set too long to print"),
    (lambda: build_network(25, alpha=(HUGE,)), ValueError,
     "alpha must be a number, got a tuple too long to print"),
    (lambda: SimulationProperties(scenario=[HUGE]), ValueError,
     "scenario must be a ScenarioId, got a list too long to print"),
    (lambda: _effector().set_current_topology([HUGE]), EffectorError,
     "unknown topology name: a list too long to print"),
    (lambda: config_from_mapping({"timesteps": [HUGE]}), ConfigSchemaError,
     "timesteps: expected an integer, got a list too long to print"),
    (lambda: config_from_mapping({"alpha": [HUGE]}), ConfigSchemaError,
     "alpha: expected a number, got a list too long to print"),
    (lambda: config_from_mapping({"unit_write_time_range": [HUGE]}), ConfigSchemaError,
     "unit_write_time_range: expected a [lower, upper] pair, got a list too long to print"),
    (lambda: config_from_mapping({"thresholds": [HUGE]}), ConfigSchemaError,
     "thresholds: expected an object, got a list too long to print"),
    (lambda: config_from_mapping([HUGE]), ConfigSchemaError,
     "$: expected a JSON object, got a list too long to print"),
    (lambda: ScenarioId.parse([HUGE]), ValueError,
     "unknown scenario id: a list too long to print"),
    (lambda: ScenarioId.parse(HUGE), ValueError,
     "unknown scenario id: an integer of 5001 digits"),
    (lambda: create_manager([HUGE], network=build_network(25),
                            thresholds=SatisfactionThresholds(), seed=0), ValueError,
     "unknown manager name: a list too long to print"
     " (expected one of ('null', 'random', 'threshold'))"),
], ids=["unit_range", "threshold", "timesteps", "active_links", "time_to_write",
        "target_timestep", "mirrors", "alpha", "scenario", "topology", "schema_integer",
        "schema_number", "schema_pair", "schema_object", "schema_mapping",
        "scenario_id_list", "scenario_id_integer", "manager_name"])
def test_a_value_holding_an_integer_too_long_for_text_is_named_by_its_type(build, error, message):
    # repr() of a container holding such an integer raises the interpreter's
    # ValueError, which names no field; each boundary prints the container's
    # type instead, and refuses with its own error type.
    with pytest.raises(error) as refused:
        build()
    assert type(refused.value) is error
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "mapping",
    [
        # 5e9 mirrors give about 1.25e19 links: a finite float, but no int64.
        {"number_of_mirrors": 5_000_000_000, "scenario": "S2"},
        {"number_of_mirrors": 2**32 + 1},
        # Links past the float range; at 10**2200 mirrors their count has more
        # digits than the interpreter converts to text, so the message omits it.
        {"number_of_mirrors": 10**200},
        {"number_of_mirrors": 10**2200},
    ],
    ids=["5e9", "2**32+1", "10**200", "10**2200"],
)
def test_a_link_count_past_the_trace_column_is_rejected(mapping):
    with pytest.raises(ConfigInvariantError, match="link column"):
        config_from_mapping(mapping)


def test_the_largest_network_loads_and_steps():
    config = config_from_mapping({"number_of_mirrors": 2**32, "scenario": "S2", "timesteps": 3})
    total_links = config.network.total_links
    sim = build_simulation(config)
    sim.effector.set_active_links(total_links)
    sim.step()
    sim.effector.set_current_topology(Topology.RT)
    sim.step()
    sim.step()
    assert sim.trace[0].active_links == total_links
    assert all(0 <= record.active_links <= total_links for record in sim.trace)


def test_the_default_config_and_every_scenario_load():
    assert default_config() == config_from_mapping({})
    for scenario in ScenarioId:
        config = config_from_mapping({"scenario": scenario.value})
        assert config.properties.scenario is scenario
    # Large but finite worst steps still load.
    config_from_mapping({"bandwidth_per_link_range": [1, 1e300], "scenario": "S6"})


def test_a_hand_built_config_is_checked_like_a_loaded_one():
    network = build_network(25, bandwidth_per_link_range=(1, 1e308))
    properties = SimulationProperties(scenario=ScenarioId.S2)
    with pytest.raises(ValueError, match=r"bandwidth_per_link_range upper bound 1e\+308"):
        ExperimentConfig(network, topology_ranges_from_pct(network), properties)
    sound = build_network(25)
    ExperimentConfig(sound, topology_ranges_from_pct(sound), properties)


def test_with_updates_rejects_a_run_whose_summary_sum_overflows():
    # Every step value and percentage is finite (at most 1e304 %), and so is
    # the sum of 100 steps, but not the sum of 50,000 steps.
    config = config_from_mapping(
        {"scenario": "S2", "disturbances": {"S2": {"rt": {"bandwidth_factor": [1e302, 1e302]}}}}
    )
    with pytest.raises(ValueError, match="the sum of 50000 step percentages .*non-finite"):
        config.with_updates(timesteps=50000)
    # A run length past the float range overflows the sum with any config.
    with pytest.raises(ValueError, match="non-finite"):
        default_config().with_updates(timesteps=10**400)


def test_a_config_must_hold_a_profile_for_every_scenario():
    network = build_network(25)
    ranges = topology_ranges_from_pct(network)
    properties = SimulationProperties(scenario=ScenarioId.S1)
    profiles = {scenario: CATALOGUE[scenario][0] for scenario in ScenarioId}
    del profiles[ScenarioId.S1]
    with pytest.raises(ValueError, match=r"no profile for S1$"):
        ExperimentConfig(network, ranges, properties, profiles)


def test_a_config_with_no_profiles_names_every_scenario():
    network = build_network(25)
    ranges = topology_ranges_from_pct(network)
    with pytest.raises(ValueError, match="no profile for S0, S1, S2, S3, S4, S5, S6"):
        ExperimentConfig(network, ranges, SimulationProperties(), {})
