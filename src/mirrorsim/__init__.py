"""mirrorsim: a deterministic benchmark environment for self-adaptive systems.

The managed system is a simulated remote-data-mirroring network. It exposes
probe/effector interfaces to a managing system (a MAPE-K loop), injects
configurable environmental scenarios, and scores each run against
quality-objective thresholds for cost, performance, and reliability.

The names below are the documented surface (see the README); everything else
is reached through its submodule.
"""

from .config import (
    ConfigError,
    ConfigInvariantError,
    ExperimentConfig,
    default_config,
    load_config,
)
from .management import CommandLog, EffectorCommand, EffectorError, ProbeError
from .managers import ManagerDecision, ThresholdRuleManager, create_manager
from .network import Monitorables, Topology
from .runner import (
    ManagerError,
    RunResult,
    Simulation,
    Trace,
    TraceRecord,
    build_simulation,
    render_trace_csv,
    replay,
    run,
    write_trace_csv,
)
from .scenarios import ScenarioId

__version__ = "0.1.0"

__all__ = [
    "CommandLog",
    "ConfigError",
    "ConfigInvariantError",
    "EffectorCommand",
    "EffectorError",
    "ExperimentConfig",
    "ManagerDecision",
    "ManagerError",
    "Monitorables",
    "ProbeError",
    "RunResult",
    "ScenarioId",
    "Simulation",
    "ThresholdRuleManager",
    "Topology",
    "Trace",
    "TraceRecord",
    "build_simulation",
    "create_manager",
    "default_config",
    "load_config",
    "render_trace_csv",
    "replay",
    "run",
    "write_trace_csv",
]
