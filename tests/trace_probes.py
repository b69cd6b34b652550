"""ROCOF probes over a sampled trace, used by the acceptance criteria.

They read a ``gridfreq.engine.Trace`` the way the criteria state their
windows; the package itself reports ROCOF only through
``compute_frequency_metrics``.
"""

from gridfreq.engine import Trace
from gridfreq.metrics import _first_index_at_or_after


def max_abs_rocof_within(trace: Trace, t_event: float,
                         horizon: float) -> float:
    """Largest |rocof| over the window (t_event, t_event + horizon]."""
    best = 0.0
    for t, r in zip(trace.t, trace.rocof_hz_per_s):
        if t_event < t <= t_event + horizon:
            if abs(r) > best:
                best = abs(r)
    return best


def initial_rocof(trace: Trace, t_event: float) -> float:
    """Frequency slope over the first sample interval after the event
    (Hz/s), before any response has had time to act."""
    i = _first_index_at_or_after(trace.t, t_event)
    if i + 1 >= len(trace.t):
        raise ValueError("trace ends at t_event")
    return (trace.f_hz[i + 1] - trace.f_hz[i]) \
        / (trace.t[i + 1] - trace.t[i])
