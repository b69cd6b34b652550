"""Open-loop step-response performance test for a PV controller + plant.

The controller is driven by a prescribed frequency step (default 0.002 pu,
0.12 Hz on a 60 Hz base) with no grid feedback, and the plant output is
graded against reaction/rise/settling/overshoot thresholds. The default
threshold values are configurable stand-ins in the style of North American
interconnection performance guidance, not normative figures.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any

from .engine import SimConfig
from .metrics import (NoResponseError, NotSettledError, StepResponseMetrics,
                      compute_step_response_metrics)
from .pv import (ControllerSpec, Positive, PVPlantConfig, check_fields,
                 make_controller, validate_responsive_kind)


@dataclass(frozen=True)
class ComplianceThresholds:
    step_magnitude: Positive = 0.002
    max_reaction: Positive = 0.5
    max_rise: Positive = 4.0
    max_settling: Positive = 10.0
    max_overshoot: Positive = 0.05
    settling_band: Positive = 0.025

    __post_init__ = check_fields


@dataclass(frozen=True)
class StepResponse:
    """Sampled open-loop response (plant pu) to the frequency step."""

    t: list[float]
    y: list[float]
    step_time: float
    step_magnitude: float


@dataclass(frozen=True)
class CriterionResult:
    value: float
    limit: float
    passed: bool


@dataclass(frozen=True)
class ComplianceReport:
    metrics: StepResponseMetrics | None
    criteria: dict[str, CriterionResult]
    passed: bool
    failure_reason: str | None
    config: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "passed": self.passed,
            "failure_reason": self.failure_reason,
            "criteria": {name: asdict(c)
                         for name, c in self.criteria.items()},
            "config": self.config,
        }
        if self.metrics is not None:
            out["metrics"] = asdict(self.metrics)
        return out


def run_step_test(controller_spec: ControllerSpec,
                  plant_cfg: PVPlantConfig,
                  thresholds: ComplianceThresholds | None = None,
                  sim: SimConfig | None = None,
                  step_time: float = 1.0) -> StepResponse:
    """Drive the controller with an underfrequency step and record the
    plant output (plant pu, before system-base scaling) over the horizon.

    The controller holds 0.0 up to the step and -step_magnitude after it;
    one zero-order-hold loop then clamps each command into [down_limit,
    up_limit], limits its change to +/- rate_limit * dt when a rate limit
    is set, and advances the inverter lag. The step grid is
    ``SimConfig.step_grid``'s: the step switches on at the first step
    boundary at or after ``step_time``, and must do so before the last
    whole sample at or before ``sim.t_end``; a negative or non-finite
    ``step_time`` is rejected. Kind ``"none"`` has no response to test
    and raises ``ValueError``.
    """
    validate_responsive_kind(controller_spec.kind)
    thr = thresholds or ComplianceThresholds()
    cfg = sim or SimConfig(t_end=20.0)
    dt = cfg.dt
    n_steps, stride, k_step = cfg.step_grid(step_time, "step_time")
    hold = make_controller(controller_spec, dt)
    lo = plant_cfg.down_limit
    hi = plant_cfg.up_limit
    rate_limit = plant_cfg.rate_limit
    max_delta = rate_limit * dt if rate_limit is not None else 0.0
    a_inv = -math.expm1(-dt / plant_cfg.t_inv)
    df_step = -thr.step_magnitude

    prev = 0.0
    y = 0.0
    t_list = [0.0]
    y_list = [0.0]
    # Each if/elif clamp equals min(max(cmd, lower), upper), zero signs
    # included, because its lower bound is never above its upper one.
    cmds = hold(0.0, k_step) + hold(df_step, n_steps - k_step)
    for k, cmd in enumerate(cmds, 1):
        if cmd < lo:
            cmd = lo
        elif cmd > hi:
            cmd = hi
        if rate_limit is not None:
            if cmd < prev - max_delta:
                cmd = prev - max_delta
            elif cmd > prev + max_delta:
                cmd = prev + max_delta
            prev = cmd
        y += (cmd - y) * a_inv
        if k % stride == 0:
            t_list.append(k * dt)
            y_list.append(y)
    return StepResponse(t=t_list, y=y_list, step_time=step_time,
                        step_magnitude=thr.step_magnitude)


def evaluate_compliance(response: StepResponse,
                        thresholds: ComplianceThresholds | None = None,
                        config: dict[str, Any] | None = None,
                        ) -> ComplianceReport:
    """Grade a step response against the thresholds.

    A response that never leaves zero (or fails to settle) is an overall
    fail with the reason recorded, not an exception.
    """
    thr = thresholds or ComplianceThresholds()
    try:
        metrics = compute_step_response_metrics(
            response.t, response.y, response.step_time,
            settling_band=thr.settling_band)
    except (NoResponseError, NotSettledError) as exc:
        reason = ("no_response" if isinstance(exc, NoResponseError)
                  else "not_settled")
        return ComplianceReport(metrics=None, criteria={}, passed=False,
                                failure_reason=reason, config=config or {})

    criteria = {
        "reaction_time": CriterionResult(
            metrics.reaction_time_s, thr.max_reaction,
            metrics.reaction_time_s <= thr.max_reaction),
        "rise_time": CriterionResult(
            metrics.rise_time_s, thr.max_rise,
            metrics.rise_time_s <= thr.max_rise),
        "settling_time": CriterionResult(
            metrics.settling_time_s, thr.max_settling,
            metrics.settling_time_s <= thr.max_settling),
        "overshoot": CriterionResult(
            metrics.overshoot, thr.max_overshoot,
            metrics.overshoot <= thr.max_overshoot),
    }
    passed = all(c.passed for c in criteria.values())
    return ComplianceReport(metrics=metrics, criteria=criteria,
                            passed=passed,
                            failure_reason=None if passed else
                            "threshold_exceeded",
                            config=config or {})


def format_report(report: ComplianceReport) -> str:
    """Human-readable pass/fail table."""
    lines = ["criterion        value      limit      result",
             "-" * 46]
    for name, c in report.criteria.items():
        lines.append(f"{name:<15}{c.value:>9.4f}{c.limit:>11.4f}"
                     f"{'pass' if c.passed else 'FAIL':>11}")
    if report.failure_reason and not report.criteria:
        lines.append(f"(no gradable response: {report.failure_reason})")
    lines.append("-" * 46)
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)
