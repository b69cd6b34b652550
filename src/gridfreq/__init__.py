"""Deterministic grid-frequency event simulation with PV frequency control.

The package couples a single-bus swing model (inertia, load damping, a
partially responsive governor fleet) with an aggregated PV plant running
droop, synthetic-inertia, or combined frequency control, and provides the
surrounding tooling: event metrics, open-loop step-response compliance
grading, headroom sizing, scenario configs, and CSV/CLI interfaces.
"""

from .compliance import (ComplianceReport, ComplianceThresholds,
                         StepResponse, StepResponseMetrics,
                         evaluate_compliance, format_report, run_step_test)
from .csvio import (read_metrics_csv, read_trace_csv, write_metrics_csv,
                    write_trace_csv)
from .engine import Trace, run_simulation, steady_state_deviation
from .headroom import (HeadroomQuery, HeadroomResult, NonMonotoneError,
                       UnattainableError, compare_controllers,
                       min_headroom_for_nadir, sweep_param)
from .metrics import FrequencyMetrics, compute_frequency_metrics
from .scenario import (CONTROLLER_KINDS, Contingency, ControllerSpec,
                       DroopConfig, GovernorFleet, InertiaConfig,
                       PVPlantConfig, Scenario, ScenarioError, SimConfig,
                       SystemParams, parse_scenario, preset_scenario,
                       scenario_from_dict, serialize_scenario, set_param,
                       valid_param_paths)

__version__ = "0.1.0"

__all__ = [
    "CONTROLLER_KINDS", "ComplianceReport", "ComplianceThresholds",
    "Contingency", "ControllerSpec", "DroopConfig", "FrequencyMetrics",
    "GovernorFleet", "HeadroomQuery", "HeadroomResult", "InertiaConfig",
    "NonMonotoneError", "PVPlantConfig", "Scenario", "ScenarioError",
    "SimConfig", "StepResponse", "StepResponseMetrics", "SystemParams",
    "Trace", "UnattainableError", "compare_controllers",
    "compute_frequency_metrics", "evaluate_compliance", "format_report",
    "min_headroom_for_nadir", "parse_scenario", "preset_scenario",
    "read_metrics_csv", "read_trace_csv", "run_simulation",
    "run_step_test", "scenario_from_dict", "serialize_scenario",
    "set_param", "steady_state_deviation", "sweep_param",
    "valid_param_paths", "write_metrics_csv", "write_trace_csv",
]
