"""Open-loop step-response performance test for a PV controller + plant.

The controller is driven by a prescribed frequency step (default 0.002 pu,
0.12 Hz on a 60 Hz base) with no grid feedback, and the plant output is
graded against reaction/rise/settling/overshoot thresholds. The grading
interpolates threshold crossings between samples so the values do not
snap to the sample grid. The default threshold values are configurable
stand-ins in the style of North American interconnection performance
guidance, not normative figures.

Three controller topologies are supported:

* droop       -- deadband -> low-pass lag -> gain 1/r, proportional support.
* inertia     -- deadband -> low-pass lag -> gain k -> washout, a synthetic
                 inertia response proportional to -d(delta_f)/dt.
* combined    -- the sum of the droop and inertia paths.

The deadband is offset-style (zero inside the band, shifted linear outside),
so commands never jump at the band edge. Commands are in plant per-unit on
the nameplate base (P_min = 0, P_max = 1 times available power). The plant
envelope clamps commands into the headroom band, optionally rate-limits
them and applies the inverter lag; the closed-loop engine then scales the
output to the system base.

``make_controller`` is the step test's discrete controller; the engine
integrates the same paths as continuous states with RK4. Each of its lags
and its washout, and the plant's inverter lag, takes the exact update for
an input held over the step (zero-order hold). Only the two path lags see
a held input, the deadbanded step; the washout's input k * y_i and the
plant's input, the command, move within a step yet are held at their
end-of-step values. So the step test is first order in dt, not exact: its
error halves with each halving of dt. With the default controllers and
plant at the default dt of 0.005 s, the largest sample error against a
run at dt/128 is about 3e-4 plant pu for droop (which settles at 0.04)
and 3e-3 for inertia and combined.
``run_step_test`` holds the controller's commands at most 256 at a time,
so their memory does not grow with the horizon, and stops iterating where
the controller and the plant reach an exact fixed point: every later
sample repeats the last one bit for bit, so it is filled in.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Any, Sequence

from .scenario import (_KIND_PATHS, ControllerSpec, Positive, PVPlantConfig,
                       ResponsiveKind, SimConfig, check_fields)

# The most commands the step test holds at once; it bounds their memory and
# is the grain at which a settled response stops being iterated.
_CHUNK = 256

REACTION_FRACTION = 0.02
RISE_FRACTIONS = (0.1, 0.9)
SETTLE_CHECK_FRACTION = 0.1
SETTLE_CHECK_LIMIT = 0.005


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
class StepResponseMetrics:
    reaction_time_s: float
    rise_time_s: float
    settling_time_s: float
    overshoot: float
    final_value: float


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

    def as_dict(self) -> dict[str, Any]:
        out = asdict(self)
        if self.metrics is None:
            del out["metrics"]
        return out


def make_controller(spec: ControllerSpec, dt: float):
    """Discrete controller for a fixed step ``dt``: returns a
    ``hold(delta_f, n) -> cmds`` closure holding the three filter states.

    Each call holds ``delta_f`` for ``n`` steps and returns the ``n``
    sampled post-update commands in plant pu. The lags take the exact
    update for the held ``delta_f``; the washout holds its input, which
    moves within a step, at its end-of-step value, so the inertia command
    is first order in ``dt``. The deadbands and the recovery-clamp
    direction are evaluated once per call, and a call whose first step
    leaves the filter states as they were returns that step's command
    ``n`` times without updating them again. Droop: deadband
    -> lag -> -1/r, so a steady deviation df beyond the band settles to
    -(df -/+ band)/r. Inertia: deadband -> lag -> gain k -> washout (output
    (u - x)/T), which settles to -k * d(delta_f)/dt on a ramp. With
    ``recovery_clamp`` on, inertia output whose sign would oppose arresting
    the event is zeroed: clamped to >= 0 while delta_f < 0 and <= 0 while
    delta_f > 0. Combined is the droop command plus the inertia command;
    kind ``"none"`` has both paths off and commands 0.0.
    """
    droop_on, inertia_on = _KIND_PATHS[spec.kind]
    dcfg = spec.droop
    icfg = spec.inertia
    r = dcfg.r
    a_d = -math.expm1(-dt / dcfg.t_lag)
    k = icfg.k
    a_i = -math.expm1(-dt / icfg.t_lag)
    t_w = icfg.t_washout
    e_w = math.exp(-dt / t_w)
    clamp = icfg.recovery_clamp
    y_d = y_i = x_w = 0.0

    def hold(delta_f: float, n: int) -> list[float]:
        nonlocal y_d, y_i, x_w
        u_d = _deadband(delta_f, dcfg.deadband)
        u_i = _deadband(delta_f, icfg.deadband)
        # the recovery clamp zeroes an inertia command of delta_f's sign;
        # side is 0.0 when it is off or delta_f is zero
        side = float((delta_f > 0.0) - (delta_f < 0.0)) if clamp else 0.0
        start = (y_d, y_i, x_w)
        cmds = []
        # one step, then the other n - 1 unless that step was a fixed point
        for m in (min(n, 1), n - 1):
            for _ in range(m):
                cmd = 0.0
                if droop_on:
                    y_d += (u_d - y_d) * a_d
                    cmd = -y_d / r
                if inertia_on:
                    y_i += (u_i - y_i) * a_i
                    u_w = k * y_i
                    x_w = u_w + (x_w - u_w) * e_w
                    c_i = -((u_w - x_w) / t_w)
                    if c_i * side > 0.0:
                        c_i = 0.0
                    # 0.0 + c_i would turn a -0.0 command into 0.0
                    cmd = cmd + c_i if droop_on else c_i
                cmds.append(cmd)
            # A command depends only on the state after its update, so a
            # step that leaves the state as it was repeats on every later
            # step. == is exact here: y_d and y_i never hold -0.0 (each
            # starts at +0.0, and x + d is -0.0 only when both terms are).
            # x_w holds -0.0 only when u_w is -0.0 and (x_w - u_w) * e_w
            # underflows to -0.0, but either zero x_w gives the same next
            # x_w: x_w - u_w is -u_w when u_w is not zero, and the next
            # x_w is +0.0 when it is.
            if (y_d, y_i, x_w) == start:
                return cmds * n
            start = None
        return cmds

    return hold


def _deadband(delta_f: float, band: float) -> float:
    """Offset-style deadband: zero inside +/-band, shifted linear outside."""
    if delta_f > band:
        return delta_f - band
    if delta_f < -band:
        return delta_f + band
    return 0.0


def run_step_test(controller_spec: ControllerSpec,
                  plant_cfg: PVPlantConfig,
                  thresholds: ComplianceThresholds | None = None, *,
                  sim: SimConfig,
                  step_time: float = 1.0) -> StepResponse:
    """Drive the controller with an underfrequency step and record the
    plant output (plant pu, before system-base scaling) over the horizon
    of ``sim``, whose step size and ``t_end`` it uses.

    The controller holds 0.0 up to the step and -step_magnitude after it,
    at most ``_CHUNK`` steps per call; one zero-order-hold loop then clamps
    each command into [down_limit, up_limit], limits its change to
    +/- rate_limit * dt when a rate limit is set, and advances the
    inverter lag with the command held over the step. The command moves
    within a step, so the response is first order in ``dt``: its error
    halves with each halving of ``dt``. A call whose commands all enter
    the plant as one value, where one step would leave the plant state as
    it was, is not iterated: each of its samples repeats the last one.
    The step grid is ``SimConfig.step_grid``'s: the step switches on at
    the first step boundary at or after ``step_time``, and must do so
    before the last whole sample at or before ``sim.t_end``; a negative or
    non-finite ``step_time`` is rejected, and so is a horizon of fewer than
    the 3 samples that grading needs. Kind ``"none"`` has no response to test
    and raises ``ValueError``.
    """
    rule, responsive = ResponsiveKind.__metadata__
    if not responsive(kind := controller_spec.kind):
        raise ValueError(f"controller.kind must be {rule}, got {kind!r}")
    thr = thresholds or ComplianceThresholds()
    dt = sim.dt
    n_steps, stride, k_step = sim.step_grid(step_time, "step_time")
    if n_steps // stride < 2:
        raise ValueError(f"sim.t_end ({sim.t_end}) must leave at least 3 "
                         f"samples of sim.sample_interval "
                         f"({sim.sample_interval}) to grade")
    hold = make_controller(controller_spec, dt)
    lo = plant_cfg.down_limit
    hi = plant_cfg.up_limit
    rate_limit = plant_cfg.rate_limit
    max_delta = rate_limit * dt if rate_limit is not None else 0.0
    a_inv = -math.expm1(-dt / plant_cfg.t_inv)
    df_step = -thr.step_magnitude

    prev = y = 0.0
    y_list = [0.0]
    k = 0
    for delta_f, end in ((0.0, k_step), (df_step, n_steps)):
        while k < end:
            m = min(_CHUNK, end - k)
            cmds = hold(delta_f, m)
            c = _plant_input(cmds, lo, hi)
            if (c is not None and (rate_limit is None or c == prev)
                    and y + (c - y) * a_inv == y):
                # Every step of the chunk leaves (prev, y) as they are. y
                # is never -0.0, so a mix of zero signs in cmds cannot
                # change it.
                y_list += [y] * ((k + m) // stride - k // stride)
                k += m
                continue
            # Each if/elif clamp equals min(max(cmd, lower), upper), zero
            # signs included, because its lower bound is never above its
            # upper one.
            for k, cmd in enumerate(cmds, k + 1):
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
                    y_list.append(y)
    t_list = [k * dt for k in range(0, n_steps + 1, stride)]
    return StepResponse(t=t_list, y=y_list, step_time=step_time,
                        step_magnitude=thr.step_magnitude)


def _plant_input(cmds: list[float], lo: float, hi: float) -> float | None:
    """The one value that every command in ``cmds`` enters the plant as
    once clamped into [lo, hi], or None when they enter as more than one.
    The ends are checked first, so most moving chunks skip min and max."""
    first = cmds[0]
    last = cmds[-1]
    if first >= hi <= last:
        return hi if min(cmds) >= hi else None
    if first <= lo >= last:
        return lo if max(cmds) <= lo else None
    if first == last and min(cmds) == max(cmds):
        return first
    return None


def evaluate_compliance(response: StepResponse,
                        thresholds: ComplianceThresholds | None = None,
                        ) -> ComplianceReport:
    """Grade a step response against the thresholds.

    A response that never leaves zero (or fails to settle) is an overall
    fail with the reason recorded, not an exception. One of fewer than 3
    samples, or with a non-finite t or y, cannot be graded and raises
    ``ValueError``.
    """
    thr = thresholds or ComplianceThresholds()
    try:
        metrics = _step_response_metrics(
            response.t, response.y, response.step_time, thr.settling_band)
    except _Ungradable as exc:
        return ComplianceReport(metrics=None, criteria={}, passed=False,
                                failure_reason=str(exc))

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
                            "threshold_exceeded")


class _Ungradable(Exception):
    """The response cannot be graded; the message ("no_response" or
    "not_settled") is the report's ``failure_reason``."""


def _step_response_metrics(t: Sequence[float], y: Sequence[float],
                           step_time: float,
                           settling_band: float) -> StepResponseMetrics:
    """Grade a sampled step response.

    The final value is the mean of the last tenth of the horizon, which
    must vary by less than 0.5% of the total change (otherwise
    "not_settled"); a change below 1e-6 is "no_response". All times are
    relative to ``step_time`` and threshold crossings are linearly
    interpolated.

    Progress, sign * (y - baseline) / |change|, is 0 at the baseline and
    1 at the final value, and never falls as sign * y rises. It is
    computed only where the scans look: one forward scan finds the first
    crossings of the rising levels, one from the end the last sample
    outside the settling band, and the overshoot is read at max(y), or
    min(y) when the sign is -1. A response that never reaches 0.9, or is
    outside the band at its last sample, is "not_settled".
    """
    if len(t) != len(y) or len(t) < 3:
        raise ValueError("response must have matching t/y of length >= 3")
    for name, column in (("t", t), ("y", y)):
        # finite values near 1e308 can overflow the sum too
        if not math.isfinite(sum(column)):
            for i, value in enumerate(column):
                if not math.isfinite(value):
                    raise ValueError(f"step response {name}[{i}] must be "
                                     f"finite, got {value}")
    n_tail = max(1, int(len(t) * SETTLE_CHECK_FRACTION))
    tail = y[-n_tail:]
    final = _mean(tail)
    baseline = _baseline(t, y, step_time)
    change = final - baseline
    if abs(change) < 1e-6:
        raise _Ungradable("no_response")
    if (max(tail) - min(tail)) >= SETTLE_CHECK_LIMIT * abs(change):
        raise _Ungradable("not_settled")

    sign = 1.0 if change > 0.0 else -1.0
    scale = abs(change)

    def prog(j: int) -> float:
        return sign * (y[j] - baseline) / scale

    crossings = []
    i = 0
    # The levels rise, so each scan resumes at the previous crossing. The
    # scans inline prog: a call per sample nearly doubles their time.
    for level in (REACTION_FRACTION, *RISE_FRACTIONS):
        for i in range(i, len(y)):
            if sign * (y[i] - baseline) / scale >= level:
                break
        else:
            raise _Ungradable("not_settled")
        if i == 0:
            crossings.append(t[0])
            continue
        p0, p1 = prog(i - 1), prog(i)
        frac = (level - p0) / (p1 - p0)
        crossings.append(t[i - 1] + frac * (t[i] - t[i - 1]))
    reaction, t_lo, t_hi = crossings

    settled = t[0]
    for i in range(len(y) - 1, -1, -1):
        if abs(sign * (y[i] - baseline) / scale - 1.0) > settling_band:
            if i + 1 == len(y):
                raise _Ungradable("not_settled")
            # p0 is above the band and p1 is not, so p0 != p1
            p0, p1 = abs(prog(i) - 1.0), abs(prog(i + 1) - 1.0)
            frac = (p0 - settling_band) / (p0 - p1)
            settled = t[i] + frac * (t[i + 1] - t[i])
            break

    peak = max(y) if sign > 0.0 else min(y)
    overshoot = max(0.0, sign * (peak - baseline) / scale - 1.0)
    if overshoot < 1e-9:  # below final-value estimation noise
        overshoot = 0.0
    return StepResponseMetrics(
        reaction_time_s=reaction - step_time,
        rise_time_s=t_hi - t_lo,
        settling_time_s=settled - step_time,
        overshoot=overshoot,
        final_value=final,
    )


def _baseline(t: Sequence[float], y: Sequence[float],
              step_time: float) -> float:
    pre = y[:bisect_left(t, step_time - 1e-12)]
    if not pre:
        return y[0]
    return _mean(pre)


def _mean(values: Sequence[float]) -> float:
    """The mean of ``values``. Only when their sum leaves the float range
    is it formed from terms divided first, so that finite values have a
    finite mean and every other mean keeps every bit."""
    n = len(values)
    mean = sum(values) / n
    if not math.isfinite(mean):
        mean = sum(v / n for v in values)
    return mean


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
