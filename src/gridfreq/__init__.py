"""Deterministic grid-frequency event simulation with PV frequency control.

The package couples a single-bus swing model (inertia, load damping, a
partially responsive governor fleet) with an aggregated PV plant running
droop, synthetic-inertia, or combined frequency control, and provides the
surrounding tooling: event metrics, open-loop step-response compliance
grading, headroom sizing, scenario configs, and CSV/CLI interfaces.
"""

from .compliance import (ComplianceReport, ComplianceThresholds,
                         StepResponse, evaluate_compliance, format_report,
                         run_step_test)
from .csvio import (METRICS_HEADER, TRACE_HEADER, read_metrics_csv,
                    read_trace_csv, write_metrics_csv, write_trace_csv)
from .engine import SimConfig, Trace, run_simulation
from .grid import (Contingency, GovernorFleet, PRESETS, SystemParams,
                   preset_params, steady_state_deviation)
from .headroom import (HeadroomQuery, HeadroomResult, NonMonotoneError,
                       UnattainableError, min_headroom_for_nadir,
                       sweep_param)
from .metrics import (FrequencyMetrics, NoResponseError, NotSettledError,
                      StepResponseMetrics, compare_controllers,
                      compute_frequency_metrics,
                      compute_step_response_metrics)
from .pv import (CONTROLLER_KINDS, ControllerSpec, DroopConfig,
                 InertiaConfig, PVPlantConfig)
from .scenario import (Scenario, ScenarioError, parse_scenario,
                       preset_scenario, scenario_from_dict,
                       serialize_scenario, set_param, valid_param_paths)

__version__ = "0.1.0"

__all__ = [
    "CONTROLLER_KINDS", "ComplianceReport", "ComplianceThresholds",
    "Contingency", "ControllerSpec", "DroopConfig", "FrequencyMetrics",
    "GovernorFleet", "HeadroomQuery", "HeadroomResult", "InertiaConfig",
    "METRICS_HEADER", "NoResponseError", "NonMonotoneError",
    "NotSettledError", "PRESETS", "PVPlantConfig", "Scenario",
    "ScenarioError", "SimConfig", "StepResponse", "StepResponseMetrics",
    "SystemParams", "TRACE_HEADER", "Trace", "UnattainableError",
    "compare_controllers", "compute_frequency_metrics",
    "compute_step_response_metrics", "evaluate_compliance",
    "format_report", "min_headroom_for_nadir", "parse_scenario",
    "preset_params", "preset_scenario", "read_metrics_csv",
    "read_trace_csv", "run_simulation", "run_step_test",
    "scenario_from_dict", "serialize_scenario", "set_param",
    "steady_state_deviation", "sweep_param", "valid_param_paths",
    "write_metrics_csv", "write_trace_csv",
]
