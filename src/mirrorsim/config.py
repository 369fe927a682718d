"""Experiment configuration: documented schema, defaults, and validation.

The configuration file is a single JSON document. Every key is optional and
falls back to the defaults below, which describe a 25-mirror network observed
for 100 timesteps under the stable scenario S0.
"""

from __future__ import annotations

import copy
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
    _int_text,
    _is_int,
    _is_number,
    _pair_text,
    build_network,
    topology_ranges_from_pct,
)
from .scenarios import CATALOGUE, FACTOR_NAMES, DisturbanceProfile, ScenarioId

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
            if not _is_number(value):
                raise ValueError(f"{name} must be a number, got {_int_text(value)}")
            if not 0 < value <= 100:
                raise ValueError(f"{name} must be in (0, 100], got {_int_text(value)}")


@dataclass(frozen=True)
class SimulationProperties:
    """Run-level knobs: length, scenario, seed, thresholds, window."""

    timesteps: int = DEFAULT_TIMESTEPS
    scenario: ScenarioId = ScenarioId.S0
    seed: int = DEFAULT_SEED
    thresholds: SatisfactionThresholds = SatisfactionThresholds()
    disturbance_window: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        # A loaded file's schema refuses these first; this catches
        # ``with_updates`` and a hand-built instance.
        for name in ("timesteps", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {_int_text(value)}")
        if not isinstance(self.scenario, ScenarioId):
            raise ValueError(f"scenario must be a ScenarioId, got {_int_text(self.scenario)}")
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {_int_text(self.timesteps)}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.disturbance_window is not None:
            start, end = self.disturbance_window
            if not (_is_int(start) and _is_int(end)):
                raise ValueError(
                    f"disturbance_window must be a pair of integers,"
                    f" got {_pair_text(self.disturbance_window)}"
                )
            if not (0 <= start <= end < self.timesteps):
                raise ValueError(
                    f"disturbance_window [{_int_text(start)}, {_int_text(end)}] must lie"
                    f" within [0, {_int_text(self.timesteps)})"
                )


def step_overflow(worst: float, basis: float, timesteps: int) -> Optional[str]:
    """Name what a step value of ``worst`` overflows, or None if nothing does.

    The value, its normalization ``basis`` and its percentage must be finite,
    and so must the run's left-to-right sum of ``timesteps`` such percentages;
    that sum is bounded by twice their product, the factor 2 a margin for the
    rounding of each addition.
    """
    try:
        percentage = 100.0 * worst / basis
        finite = math.isfinite(worst) and math.isfinite(basis) and math.isfinite(percentage)
    except OverflowError:  # an int value or basis past the float range
        finite = False
    if not finite:
        return "a step's value or its percentage"
    try:
        summed = 2.0 * percentage * timesteps
    except OverflowError:  # timesteps past the float range
        summed = math.inf
    if not math.isfinite(summed):
        return f"the sum of {_int_text(timesteps)} step percentages"
    return None


# The two disturbed loads: Monitorables field -> (the network's unit-range
# attribute, its normalization basis attribute, its EffectSet factor name).
# A disturbed load is its base value x the link ratio (at most total_links,
# the clamp of the disturbed count) x a factor of the profile in play.
DISTURBED_LOADS = {
    "bandwidth_consumption": ("bandwidth_per_link_range", "bandwidth_basis", "bandwidth_factor"),
    "time_to_write": ("unit_write_time_range", "write_time_basis", "write_time_factor"),
}


def largest_factor(profiles, factor_name: str) -> float:
    """The largest upper bound of ``factor_name`` under either topology of any profile."""
    return max(
        getattr(effects, factor_name)[1]
        for profile in profiles
        for effects in (profile.mst_effects, profile.rt_effects)
    )


def _default_scenario_profiles() -> dict:
    return {scenario: profile for scenario, (profile, _) in CATALOGUE.items()}


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
                    f"{name} upper bound {_int_text(upper)} exceeds the network's"
                    f" {network.total_links} links"
                )
        missing = [scenario.value for scenario in ScenarioId
                   if scenario not in self.scenario_profiles]
        if missing:
            raise ValueError(f"scenario_profiles has no profile for {', '.join(missing)}")
        # The base load is at most alpha x total_links x the unit range's upper
        # bound, and ``with_updates`` may pick any scenario. No run of a config
        # may meet an infinity or a NaN.
        profiles = self.scenario_profiles.values()
        for key, basis, factor_name in DISTURBED_LOADS.values():
            upper = getattr(network, key)[1]
            factor = largest_factor(profiles, factor_name)
            worst = network.alpha * network.total_links * upper * factor
            overflow = step_overflow(worst, getattr(network, basis), self.properties.timesteps)
            if overflow is not None:
                raise ValueError(
                    f"{key} upper bound {upper} with {network.total_links} links,"
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
        return replace(self, properties=replace(self.properties, **changes))


def _as_int(value: object, path: str) -> int:
    if not _is_int(value):
        raise ConfigSchemaError(path, f"expected an integer, got {_int_text(value)}")
    return value


def _as_number(value: object, path: str) -> float:
    if not _is_number(value):
        raise ConfigSchemaError(path, f"expected a number, got {_int_text(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ConfigInvariantError(
            f"{path}: {_int_text(value)} overflows to a non-finite number"
        ) from None


def _as_pair(value: object, path: str, parse_item=_as_number, shape="[lower, upper]") -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigSchemaError(path, f"expected a {shape} pair, got {_int_text(value)}")
    return (parse_item(value[0], f"{path}[0]"), parse_item(value[1], f"{path}[1]"))


def _as_window(value: object, path: str) -> Optional[tuple[int, int]]:
    return None if value is None else _as_pair(value, path, _as_int, "[start, end]")


def _as_object(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigSchemaError(path, f"expected an object, got {_int_text(value)}")
    return value


def _parse_scenario(value: object, path: str) -> ScenarioId:
    try:
        return ScenarioId.parse(value)
    except ValueError as exc:
        raise ConfigSchemaError(path, str(exc)) from None


def _parse_thresholds(value: object, path: str) -> dict:
    """The SatisfactionThresholds arguments the object sets; the rest keep their defaults."""
    unknown = set(_as_object(value, path)) - set(THRESHOLD_FIELDS)
    if unknown:
        raise ConfigSchemaError(f"{path}.{sorted(unknown)[0]}", "unknown threshold key")
    return {
        field: _as_number(value[key], f"{path}.{key}")
        for key, field in THRESHOLD_FIELDS.items()
        if key in value
    }


def _parse_disturbances(value: object, path: str) -> dict:
    overrides: dict = {}
    for scenario_key, per_topology in _as_object(value, path).items():
        scenario_path = f"{path}.{scenario_key}"
        scenario = _parse_scenario(scenario_key, scenario_path)
        parsed_sides: dict = {}
        for side, factors in _as_object(per_topology, scenario_path).items():
            side_path = f"{scenario_path}.{side}"
            if side not in ("mst", "rt"):
                raise ConfigSchemaError(side_path, "expected 'mst' or 'rt'")
            parsed_factors = {}
            for name, bounds in _as_object(factors, side_path).items():
                factor_path = f"{side_path}.{name}"
                if name not in FACTOR_NAMES:
                    raise ConfigSchemaError(
                        factor_path, f"expected one of {sorted(FACTOR_NAMES)}"
                    )
                parsed_factors[name] = _as_pair(bounds, factor_path)
            parsed_sides[side] = parsed_factors
        overrides[scenario] = parsed_sides
    return overrides


# The schema: each top-level key, in the documented order, with its default and
# its parser ``(value, path)``. Values are parsed in this order, so of several
# bad values the first key here is the one reported.
SCHEMA = {
    "number_of_mirrors": (DEFAULT_NUM_MIRRORS, _as_int),
    "timesteps": (DEFAULT_TIMESTEPS, _as_int),
    "scenario": (ScenarioId.S0.value, _parse_scenario),
    "seed": (DEFAULT_SEED, _as_int),
    "alpha": (DEFAULT_ALPHA, _as_number),
    "bandwidth_per_link_range": (list(DEFAULT_BANDWIDTH_PER_LINK_RANGE), _as_pair),
    "unit_write_time_range": (list(DEFAULT_UNIT_WRITE_TIME_RANGE), _as_pair),
    "mst_active_links_range_pct": (list(DEFAULT_MST_ACTIVE_LINKS_RANGE_PCT), _as_pair),
    "rt_active_links_range_pct": (list(DEFAULT_RT_ACTIVE_LINKS_RANGE_PCT), _as_pair),
    "thresholds": (
        {key: getattr(SatisfactionThresholds(), field) for key, field in THRESHOLD_FIELDS.items()},
        _parse_thresholds,
    ),
    "disturbances": ({}, _parse_disturbances),
    "disturbance_window": (None, _as_window),
}


def default_config_mapping() -> dict:
    """The full schema with its default values, as written by ``init-config``."""
    return copy.deepcopy({key: default for key, (default, _) in SCHEMA.items()})


def config_from_mapping(raw: Mapping) -> ExperimentConfig:
    """Validate a parsed configuration mapping and build the domain objects."""
    if not isinstance(raw, Mapping):
        raise ConfigSchemaError("$", f"expected a JSON object, got {_int_text(raw)}")
    unknown = set(raw) - set(SCHEMA)
    if unknown:
        raise ConfigSchemaError(sorted(unknown)[0], "unknown configuration key")
    # The defaults are parsed too, but never changed: each parser builds anew.
    values = {key: parse(raw.get(key, default), key) for key, (default, parse) in SCHEMA.items()}

    try:
        network = build_network(
            values["number_of_mirrors"],
            bandwidth_per_link_range=values["bandwidth_per_link_range"],
            unit_write_time_range=values["unit_write_time_range"],
            alpha=values["alpha"],
        )
        ranges = topology_ranges_from_pct(
            network, values["mst_active_links_range_pct"], values["rt_active_links_range_pct"]
        )
        properties = SimulationProperties(
            timesteps=values["timesteps"],
            scenario=values["scenario"],
            seed=values["seed"],
            thresholds=SatisfactionThresholds(**values["thresholds"]),
            disturbance_window=values["disturbance_window"],
        )
        # Build each overridden profile once, here, so bad intervals surface at load.
        profiles = _default_scenario_profiles()
        for overridden, sides in values["disturbances"].items():
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
