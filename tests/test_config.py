from __future__ import annotations

import json

import pytest

from mirrorsim.config import (
    ConfigError,
    ConfigInvariantError,
    ConfigSchemaError,
    ConfigSyntaxError,
    SatisfactionThresholds,
    SimulationProperties,
    config_from_mapping,
    default_config,
    default_config_mapping,
    load_config,
)
from mirrorsim.scenarios import ScenarioId


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
    assert config.scenario_overrides is None


def test_omitted_scenario_defaults_to_s0(tmp_path):
    path = write_config(tmp_path, {"seed": 9})
    assert load_config(path).properties.scenario is ScenarioId.S0


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


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
    assert config.scenario_overrides == {"S1": {"mst": {"active_links_factor": (0.5, 0.6)}}}


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


def test_properties_direct_validation():
    with pytest.raises(ValueError):
        SimulationProperties(timesteps=0)
    with pytest.raises(ValueError):
        SimulationProperties(disturbance_window=(50, 120))
    with pytest.raises(ValueError):
        SatisfactionThresholds(max_bandwidth_pct=101.0)
