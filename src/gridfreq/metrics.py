"""Event metrics for frequency traces and step-response grading.

Frequency metrics summarize a contingency run: the nadir (worst excursion),
its time after the event, the largest windowed rate of change of frequency,
and the settling frequency (mean over the final window). Step-response
metrics grade an actuator response: reaction, rise and settling times plus
overshoot, with threshold crossings interpolated between samples so the
values do not snap to the sample grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .engine import Trace, run_simulation
from .pv import CONTROLLER_KINDS
from .scenario import Scenario, _with_kind

REACTION_FRACTION = 0.02
RISE_FRACTIONS = (0.1, 0.9)
SETTLING_BAND = 0.025
SETTLING_WINDOW = 5.0
SETTLE_CHECK_FRACTION = 0.1
SETTLE_CHECK_LIMIT = 0.005


class NoResponseError(ValueError):
    """The response never left zero (final change below threshold)."""


class NotSettledError(ValueError):
    """The response still varies too much at the end of the horizon."""


@dataclass(frozen=True)
class FrequencyMetrics:
    nadir_hz: float
    nadir_time_s: float
    max_abs_rocof_hz_per_s: float
    settling_freq_hz: float


@dataclass(frozen=True)
class StepResponseMetrics:
    reaction_time_s: float
    rise_time_s: float
    settling_time_s: float
    overshoot: float
    final_value: float


def compute_frequency_metrics(trace: Trace, t_event: float,
                              f0: float = 60.0) -> FrequencyMetrics:
    """Summarize a contingency trace.

    The nadir is the post-event extreme on the side of the larger
    excursion (minimum for underfrequency, maximum for overfrequency);
    nadir time is relative to ``t_event``. The settling frequency is the
    mean over the trailing :data:`SETTLING_WINDOW` seconds.
    """
    if not trace.t:
        raise ValueError("empty trace")
    if trace.t[-1] - trace.t[0] < SETTLING_WINDOW:
        raise ValueError(
            f"trace spans {trace.t[-1] - trace.t[0]:.3f} s, shorter than "
            f"the settling window ({SETTLING_WINDOW} s)"
        )
    start = _first_index_at_or_after(trace.t, t_event)
    if start >= len(trace.t):
        raise ValueError("trace ends before t_event")

    post_f = trace.f_hz[start:]
    lo = min(post_f)
    hi = max(post_f)
    if hi - f0 > f0 - lo:
        nadir = hi
        idx = start + post_f.index(hi)
    else:
        nadir = lo
        idx = start + post_f.index(lo)

    tail_start = _first_index_at_or_after(
        trace.t, trace.t[-1] - SETTLING_WINDOW)
    tail = trace.f_hz[tail_start:]
    settling = sum(tail) / len(tail)

    max_rocof = max(abs(r) for r in trace.rocof_hz_per_s[start:])
    return FrequencyMetrics(
        nadir_hz=nadir,
        nadir_time_s=trace.t[idx] - t_event,
        max_abs_rocof_hz_per_s=max_rocof,
        settling_freq_hz=settling,
    )


def compute_step_response_metrics(
        t: Sequence[float], y: Sequence[float],
        step_time: float,
        settling_band: float = SETTLING_BAND,
) -> StepResponseMetrics:
    """Grade a sampled step response.

    The final value is the mean of the last tenth of the horizon, which
    must vary by less than 0.5% of the total change (otherwise
    :class:`NotSettledError`). All times are relative to ``step_time`` and
    threshold crossings are linearly interpolated.
    """
    if len(t) != len(y) or len(t) < 3:
        raise ValueError("response must have matching t/y of length >= 3")
    n_tail = max(1, int(len(t) * SETTLE_CHECK_FRACTION))
    tail = y[-n_tail:]
    final = sum(tail) / len(tail)
    baseline = _baseline(t, y, step_time)
    change = final - baseline
    if abs(change) < 1e-6:
        raise NoResponseError(
            f"final change {change:.2e} below response threshold"
        )
    if (max(tail) - min(tail)) >= SETTLE_CHECK_LIMIT * abs(change):
        raise NotSettledError(
            "response varies by more than 0.5% of the final change over "
            "the last tenth of the horizon"
        )

    sign = 1.0 if change > 0.0 else -1.0
    # Normalized progress toward the final value, 0 at baseline, 1 at final.
    prog = [sign * (yi - baseline) / abs(change) for yi in y]

    reaction = _first_crossing(t, prog, REACTION_FRACTION) - step_time
    t_lo = _first_crossing(t, prog, RISE_FRACTIONS[0])
    t_hi = _first_crossing(t, prog, RISE_FRACTIONS[1])
    rise = t_hi - t_lo
    settling = _settling_time(t, prog, settling_band) - step_time
    overshoot = max(0.0, max(prog) - 1.0)
    if overshoot < 1e-9:  # below final-value estimation noise
        overshoot = 0.0
    return StepResponseMetrics(
        reaction_time_s=reaction,
        rise_time_s=rise,
        settling_time_s=settling,
        overshoot=overshoot,
        final_value=final,
    )


def compare_controllers(scenario: Scenario) -> dict[str, FrequencyMetrics]:
    """Run the scenario under every controller kind and tabulate metrics.

    Each run keeps the scenario's gains and settings and changes only its
    controller kind. Returns one row per kind in the fixed order none,
    droop, inertia, combined; repeated invocations produce identical
    tables.
    """
    table: dict[str, FrequencyMetrics] = {}
    for kind in CONTROLLER_KINDS:
        trace = run_simulation(_with_kind(scenario, kind))
        table[kind] = compute_frequency_metrics(
            trace, scenario.contingency.t_event, f0=scenario.system.f0)
    return table


def _first_index_at_or_after(t: Sequence[float], value: float) -> int:
    for i, ti in enumerate(t):
        if ti >= value - 1e-12:
            return i
    return len(t)


def _baseline(t: Sequence[float], y: Sequence[float],
              step_time: float) -> float:
    pre = [yi for ti, yi in zip(t, y) if ti < step_time - 1e-12]
    if not pre:
        return y[0]
    return sum(pre) / len(pre)


def _first_crossing(t: Sequence[float], prog: Sequence[float],
                    level: float) -> float:
    """Time of the first crossing of ``level``, linearly interpolated."""
    if prog[0] >= level:
        return t[0]
    for i in range(1, len(prog)):
        if prog[i] >= level:
            frac = (level - prog[i - 1]) / (prog[i] - prog[i - 1])
            return t[i - 1] + frac * (t[i] - t[i - 1])
    raise NotSettledError(f"response never reaches {level:.0%} of the "
                          "final change")


def _settling_time(t: Sequence[float], prog: Sequence[float],
                   band: float) -> float:
    """Time of the last entry into the +/-band around the final value."""
    outside = None
    for i, pi in enumerate(prog):
        if abs(pi - 1.0) > band:
            outside = i
    if outside is None:
        return t[0]
    if outside + 1 >= len(prog):
        raise NotSettledError("response ends outside the settling band")
    p0 = abs(prog[outside] - 1.0)
    p1 = abs(prog[outside + 1] - 1.0)
    frac = (p0 - band) / (p0 - p1) if p0 != p1 else 1.0
    return t[outside] + frac * (t[outside + 1] - t[outside])
