"""Event metrics read from a frequency trace.

Frequency metrics summarize a contingency run: the nadir (worst excursion),
its time after the event, the largest windowed rate of change of frequency,
and the settling frequency (mean over the final window). This module only
reads traces; running scenarios is the engine's and the sizer's job, and
step-response grading is the compliance test's.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .engine import Trace

SETTLING_WINDOW = 5.0


@dataclass(frozen=True)
class FrequencyMetrics:
    nadir_hz: float
    nadir_time_s: float
    max_abs_rocof_hz_per_s: float
    settling_freq_hz: float


def compute_frequency_metrics(trace: Trace, t_event: float, *,
                              f0: float) -> FrequencyMetrics:
    """Summarize a contingency trace.

    The nadir is the post-event extreme on the side of the larger
    excursion from the nominal frequency ``f0`` (minimum for
    underfrequency, maximum for overfrequency); nadir time is relative to
    ``t_event``. The settling frequency is the
    mean over the trailing :data:`SETTLING_WINDOW` seconds.
    """
    if not trace.t:
        raise ValueError("empty trace")
    if trace.t[-1] - trace.t[0] < SETTLING_WINDOW:
        raise ValueError(
            f"trace spans {trace.t[-1] - trace.t[0]:.3f} s, shorter than "
            f"the settling window ({SETTLING_WINDOW} s)"
        )
    if not trace.t[-1] >= t_event - 1e-12:  # a NaN t_event fails too
        raise ValueError("trace ends before t_event")
    start = _first_index_at_or_after(trace.t, t_event)

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

    max_rocof = max(map(abs, trace.rocof_hz_per_s[start:]))
    return FrequencyMetrics(
        nadir_hz=nadir,
        nadir_time_s=trace.t[idx] - t_event,
        max_abs_rocof_hz_per_s=max_rocof,
        settling_freq_hz=settling,
    )


def _first_index_at_or_after(t: Sequence[float], value: float) -> int:
    # t ascends, so the first sample at or after value is a bisection.
    return bisect_left(t, value - 1e-12)
