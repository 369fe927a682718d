"""Experiment configuration: documented schema, defaults, and validation.

The configuration file is a single JSON document. Every key is optional and
falls back to the defaults below, which describe a 25-mirror network observed
for 100 timesteps under the stable scenario S0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional

from .network import (
    DEFAULT_ALPHA,
    DEFAULT_BANDWIDTH_PER_LINK_RANGE,
    DEFAULT_MST_ACTIVE_LINKS_RANGE_PCT,
    DEFAULT_RT_ACTIVE_LINKS_RANGE_PCT,
    DEFAULT_UNIT_WRITE_TIME_RANGE,
    MirrorNetwork,
    TopologyRanges,
    build_network,
    topology_ranges_from_pct,
)
from .scenarios import FACTOR_NAMES, DisturbanceProfile, ScenarioId, scenario_profile

DEFAULT_NUM_MIRRORS = 25
DEFAULT_TIMESTEPS = 100
DEFAULT_SEED = 0
DEFAULT_MAX_BANDWIDTH_PCT = 40.0
DEFAULT_MAX_WRITE_TIME_PCT = 45.0
DEFAULT_MIN_ACTIVE_LINKS_PCT = 35.0

MAX_SEED = 2**64 - 1

CONFIG_PATH_ENV_VAR = "MIRRORSIM_CONFIG"


class ConfigError(Exception):
    """Base class for configuration problems."""


class ConfigSyntaxError(ConfigError):
    """The configuration file is not UTF-8 or not JSON that can be decoded."""


class ConfigSchemaError(ConfigError):
    """A field is unknown or has the wrong shape; carries the field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class ConfigInvariantError(ConfigError):
    """Values parse but violate a domain invariant (e.g. fewer than 2 mirrors)."""


# Key of the configuration's "thresholds" object -> SatisfactionThresholds field.
THRESHOLD_FIELDS = {
    "bandwidth_pct": "max_bandwidth_pct",
    "write_time_pct": "max_write_time_pct",
    "active_links_pct": "min_active_links_pct",
}


@dataclass(frozen=True)
class SatisfactionThresholds:
    """Per-objective bounds on the normalized monitorable means."""

    max_bandwidth_pct: float = DEFAULT_MAX_BANDWIDTH_PCT
    max_write_time_pct: float = DEFAULT_MAX_WRITE_TIME_PCT
    min_active_links_pct: float = DEFAULT_MIN_ACTIVE_LINKS_PCT

    def __post_init__(self) -> None:
        for name in THRESHOLD_FIELDS.values():
            value = getattr(self, name)
            if not 0 < value <= 100:
                raise ValueError(f"{name} must be in (0, 100], got {value}")


@dataclass(frozen=True)
class SimulationProperties:
    """Run-level knobs: length, scenario, seed, thresholds, window."""

    timesteps: int = DEFAULT_TIMESTEPS
    scenario: ScenarioId = ScenarioId.S0
    seed: int = DEFAULT_SEED
    thresholds: SatisfactionThresholds = SatisfactionThresholds()
    disturbance_window: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.disturbance_window is not None:
            start, end = self.disturbance_window
            if not (0 <= start <= end < self.timesteps):
                raise ValueError(
                    f"disturbance_window [{start}, {end}] must lie within"
                    f" [0, {self.timesteps})"
                )


def step_overflow(worst: float, basis: float, timesteps: int) -> Optional[str]:
    """Name what a step value of ``worst`` overflows, or None if nothing does.

    The value, its normalization ``basis`` and its percentage must be finite,
    and so must the run's left-to-right sum of ``timesteps`` such percentages;
    that sum is bounded by twice their product, the factor 2 a margin for the
    rounding of each addition.
    """
    percentage = 100.0 * worst / basis
    if not (math.isfinite(worst) and math.isfinite(basis) and math.isfinite(percentage)):
        return "a step's value or its percentage"
    try:
        summed = 2.0 * percentage * timesteps
    except OverflowError:  # timesteps past the float range
        summed = math.inf
    if not math.isfinite(summed):
        return f"the sum of {timesteps} step percentages"
    return None


def _default_scenario_profiles() -> dict:
    return {scenario: scenario_profile(scenario) for scenario in ScenarioId}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: network facts, link ranges, properties, and the
    disturbance profile of every scenario (the defaults unless overridden).

    The run's cross-field checks live here, so a loaded, a derived
    (``with_updates``) and a hand-built config are all checked once, when built.
    """

    network: MirrorNetwork
    ranges: TopologyRanges
    properties: SimulationProperties
    scenario_profiles: Mapping[ScenarioId, DisturbanceProfile] = field(
        default_factory=_default_scenario_profiles, hash=False
    )

    def __post_init__(self) -> None:
        network = self.network
        for name, (_, upper) in (
            ("mst_active_links_range", self.ranges.mst_active_links_range),
            ("rt_active_links_range", self.ranges.rt_active_links_range),
        ):
            if upper > network.total_links:
                raise ValueError(
                    f"{name} upper bound {upper} exceeds the network's"
                    f" {network.total_links} links"
                )
        missing = [scenario.value for scenario in ScenarioId
                   if scenario not in self.scenario_profiles]
        if missing:
            raise ValueError(f"scenario_profiles has no profile for {', '.join(missing)}")
        # A step's bandwidth or write time is at most alpha x total_links (the
        # disturbed link count is clamped to it) x the unit range's upper bound
        # x the largest factor of any scenario, since ``with_updates`` may pick
        # any of them. No run of a config may meet an infinity or a NaN.
        effect_sets = [
            effects for profile in self.scenario_profiles.values()
            for effects in (profile.mst_effects, profile.rt_effects)
        ]
        for key, unit_range, factor_name, basis in (
            ("bandwidth_per_link_range", network.bandwidth_per_link_range,
             "bandwidth_factor", network.bandwidth_basis),
            ("unit_write_time_range", network.unit_write_time_range,
             "write_time_factor", network.write_time_basis),
        ):
            factor = max(getattr(effects, factor_name)[1] for effects in effect_sets)
            worst = network.alpha * network.total_links * unit_range[1] * factor
            overflow = step_overflow(worst, basis, self.properties.timesteps)
            if overflow is not None:
                raise ValueError(
                    f"{key} upper bound {unit_range[1]} with {network.total_links} links,"
                    f" alpha {network.alpha} and a {factor_name} up to {factor} lets"
                    f" {overflow} overflow to a non-finite number"
                )

    def with_updates(
        self,
        *,
        scenario: Optional[ScenarioId] = None,
        seed: Optional[int] = None,
        timesteps: Optional[int] = None,
    ) -> "ExperimentConfig":
        changes = {}
        if scenario is not None:
            changes["scenario"] = ScenarioId.parse(scenario)
        if seed is not None:
            changes["seed"] = seed
        if timesteps is not None:
            changes["timesteps"] = timesteps
        if not changes:
            return self
        return replace(self, properties=replace(self.properties, **changes))


def default_config_mapping() -> dict:
    """The full schema with its default values, as written by ``init-config``."""
    thresholds = SatisfactionThresholds()
    return {
        "number_of_mirrors": DEFAULT_NUM_MIRRORS,
        "timesteps": DEFAULT_TIMESTEPS,
        "scenario": "S0",
        "seed": DEFAULT_SEED,
        "alpha": DEFAULT_ALPHA,
        "bandwidth_per_link_range": list(DEFAULT_BANDWIDTH_PER_LINK_RANGE),
        "unit_write_time_range": list(DEFAULT_UNIT_WRITE_TIME_RANGE),
        "mst_active_links_range_pct": list(DEFAULT_MST_ACTIVE_LINKS_RANGE_PCT),
        "rt_active_links_range_pct": list(DEFAULT_RT_ACTIVE_LINKS_RANGE_PCT),
        "thresholds": {key: getattr(thresholds, field) for key, field in THRESHOLD_FIELDS.items()},
        "disturbances": {},
        "disturbance_window": None,
    }


def _as_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigSchemaError(path, f"expected an integer, got {value!r}")
    return value


def _as_number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigSchemaError(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ConfigInvariantError(f"{path}: {value} overflows to a non-finite number") from None


def _as_number_pair(value: object, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigSchemaError(path, f"expected a [lower, upper] pair, got {value!r}")
    return (_as_number(value[0], f"{path}[0]"), _as_number(value[1], f"{path}[1]"))


def _as_int_pair(value: object, path: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigSchemaError(path, f"expected a [start, end] pair, got {value!r}")
    return (_as_int(value[0], f"{path}[0]"), _as_int(value[1], f"{path}[1]"))


def _parse_scenario(value: object, path: str) -> ScenarioId:
    try:
        return ScenarioId.parse(value)
    except ValueError as exc:
        raise ConfigSchemaError(path, str(exc)) from None


def _parse_disturbances(raw: object) -> dict:
    if not isinstance(raw, dict):
        raise ConfigSchemaError("disturbances", f"expected an object, got {raw!r}")
    overrides: dict = {}
    for scenario_key, per_topology in raw.items():
        path = f"disturbances.{scenario_key}"
        scenario = _parse_scenario(scenario_key, path)
        if not isinstance(per_topology, dict):
            raise ConfigSchemaError(path, f"expected an object, got {per_topology!r}")
        parsed_sides: dict = {}
        for side, factors in per_topology.items():
            side_path = f"{path}.{side}"
            if side not in ("mst", "rt"):
                raise ConfigSchemaError(side_path, "expected 'mst' or 'rt'")
            if not isinstance(factors, dict):
                raise ConfigSchemaError(side_path, f"expected an object, got {factors!r}")
            parsed_factors = {}
            for name, bounds in factors.items():
                factor_path = f"{side_path}.{name}"
                if name not in FACTOR_NAMES:
                    raise ConfigSchemaError(
                        factor_path, f"expected one of {sorted(FACTOR_NAMES)}"
                    )
                parsed_factors[name] = _as_number_pair(bounds, factor_path)
            parsed_sides[side] = parsed_factors
        overrides[scenario] = parsed_sides
    return overrides


def config_from_mapping(raw: Mapping) -> ExperimentConfig:
    """Validate a parsed configuration mapping and build the domain objects."""
    if not isinstance(raw, Mapping):
        raise ConfigSchemaError("$", f"expected a JSON object, got {raw!r}")
    defaults = default_config_mapping()
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigSchemaError(sorted(unknown)[0], "unknown configuration key")
    values = {**defaults, **raw}

    num_mirrors = _as_int(values["number_of_mirrors"], "number_of_mirrors")
    timesteps = _as_int(values["timesteps"], "timesteps")
    scenario = _parse_scenario(values["scenario"], "scenario")
    seed = _as_int(values["seed"], "seed")
    alpha = _as_number(values["alpha"], "alpha")
    bandwidth_range = _as_number_pair(
        values["bandwidth_per_link_range"], "bandwidth_per_link_range"
    )
    write_time_range = _as_number_pair(values["unit_write_time_range"], "unit_write_time_range")
    mst_range_pct = _as_number_pair(
        values["mst_active_links_range_pct"], "mst_active_links_range_pct"
    )
    rt_range_pct = _as_number_pair(
        values["rt_active_links_range_pct"], "rt_active_links_range_pct"
    )

    thresholds_raw = values["thresholds"]
    if not isinstance(thresholds_raw, dict):
        raise ConfigSchemaError("thresholds", f"expected an object, got {thresholds_raw!r}")
    unknown = set(thresholds_raw) - set(THRESHOLD_FIELDS)
    if unknown:
        raise ConfigSchemaError(f"thresholds.{sorted(unknown)[0]}", "unknown threshold key")
    threshold_values = {**defaults["thresholds"], **thresholds_raw}
    threshold_args = {
        field: _as_number(threshold_values[key], f"thresholds.{key}")
        for key, field in THRESHOLD_FIELDS.items()
    }

    overrides = _parse_disturbances(values["disturbances"])

    window_raw = values["disturbance_window"]
    window = None if window_raw is None else _as_int_pair(window_raw, "disturbance_window")

    try:
        network = build_network(
            num_mirrors,
            bandwidth_per_link_range=bandwidth_range,
            unit_write_time_range=write_time_range,
            alpha=alpha,
        )
        ranges = topology_ranges_from_pct(network, mst_range_pct, rt_range_pct)
        thresholds = SatisfactionThresholds(**threshold_args)
        properties = SimulationProperties(
            timesteps=timesteps,
            scenario=scenario,
            seed=seed,
            thresholds=thresholds,
            disturbance_window=window,
        )
        # Build each overridden profile once, here, so bad intervals surface at load.
        profiles = _default_scenario_profiles()
        for overridden, sides in overrides.items():
            default = profiles[overridden]
            profiles[overridden] = DisturbanceProfile(
                mst_effects=replace(default.mst_effects, **sides.get("mst", {})),
                rt_effects=replace(default.rt_effects, **sides.get("rt", {})),
            )
        return ExperimentConfig(
            network=network,
            ranges=ranges,
            properties=properties,
            scenario_profiles=profiles,
        )
    except ValueError as exc:
        raise ConfigInvariantError(str(exc)) from None


def default_config() -> ExperimentConfig:
    return config_from_mapping({})


def load_config(path) -> ExperimentConfig:
    """Load and validate a configuration file.

    Raises ConfigError for a missing file, ConfigSyntaxError for a file that
    is not UTF-8 or that JSON cannot decode, ConfigSchemaError for shape
    problems (with the field path), and ConfigInvariantError for values that
    violate domain invariants.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigSyntaxError(f"{path} is not valid UTF-8: {exc}") from None
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: a JSONDecodeError, or an integer past the interpreter's
        # digit limit; RecursionError: nesting past the decoder's depth limit.
        raise ConfigSyntaxError(f"{path} is not valid JSON: {exc}") from None
    return config_from_mapping(raw)
