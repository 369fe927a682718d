"""mirrorsim: a deterministic benchmark environment for self-adaptive systems.

The managed system is a simulated remote-data-mirroring network. It exposes
probe/effector interfaces to a managing system (a MAPE-K loop), injects
configurable environmental scenarios, and scores each run against
quality-objective thresholds for cost, performance, and reliability.
"""

from .config import (
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
from .management import (
    CommandKind,
    Effector,
    EffectorCommand,
    EffectorError,
    Probe,
    ProbeError,
)
from .managers import (
    KnowledgeBase,
    ManagerDecision,
    NullManager,
    RandomManager,
    ThresholdRuleManager,
    create_manager,
)
from .network import (
    MirrorNetwork,
    Monitorables,
    Topology,
    TopologyRanges,
    build_network,
    sample_base_monitorables,
    topology_ranges_from_pct,
)
from .runner import (
    ManagerError,
    NormalizedMetrics,
    RunResult,
    SatisfactionSummary,
    Simulation,
    SimulationError,
    Trace,
    TraceRecord,
    build_simulation,
    evaluate_satisfaction,
    normalize,
    render_trace_csv,
    replay,
    run,
    write_trace_csv,
)
from .scenarios import (
    DisturbanceProfile,
    EffectSet,
    ScenarioId,
    ScenarioState,
    apply_disturbance,
    initial_topology,
    scenario_profile,
)

__version__ = "0.1.0"

__all__ = [
    "CommandKind",
    "ConfigError",
    "ConfigInvariantError",
    "ConfigSchemaError",
    "ConfigSyntaxError",
    "DisturbanceProfile",
    "EffectSet",
    "Effector",
    "EffectorCommand",
    "EffectorError",
    "ExperimentConfig",
    "KnowledgeBase",
    "ManagerDecision",
    "ManagerError",
    "MirrorNetwork",
    "Monitorables",
    "NormalizedMetrics",
    "NullManager",
    "Probe",
    "ProbeError",
    "RandomManager",
    "RunResult",
    "SatisfactionSummary",
    "SatisfactionThresholds",
    "ScenarioId",
    "ScenarioState",
    "Simulation",
    "SimulationError",
    "SimulationProperties",
    "ThresholdRuleManager",
    "Topology",
    "TopologyRanges",
    "Trace",
    "TraceRecord",
    "apply_disturbance",
    "build_network",
    "build_simulation",
    "config_from_mapping",
    "create_manager",
    "default_config",
    "default_config_mapping",
    "evaluate_satisfaction",
    "initial_topology",
    "load_config",
    "normalize",
    "render_trace_csv",
    "replay",
    "run",
    "sample_base_monitorables",
    "scenario_profile",
    "topology_ranges_from_pct",
    "write_trace_csv",
]
