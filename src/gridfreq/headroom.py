"""Headroom sizing and single-parameter sweeps.

The sizer finds the smallest PV headroom fraction whose simulated nadir
stays at or above a target (for example an under-frequency load-shedding
threshold) by bisection. Monotonicity of nadir in headroom is probed at
three points first rather than assumed, because limiters and recovery
clamps could in principle bend the response; a failed probe is surfaced as
an error instead of silently bisecting a non-monotone curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .engine import SimConfig, run_simulation
from .metrics import (FrequencyMetrics, _first_index_at_or_after,
                      compute_frequency_metrics)
from .scenario import Scenario, set_param, valid_param_paths


class UnattainableError(RuntimeError):
    """The target is not met even at the maximum headroom."""


class NonMonotoneError(RuntimeError):
    """The three-point monotonicity probe failed."""


@dataclass(frozen=True)
class HeadroomQuery:
    scenario: Scenario
    controller: str
    target_nadir_hz: float
    h_max: float = 0.5
    tolerance: float = 0.001

    def __post_init__(self) -> None:
        if not 0.0 < self.tolerance < self.h_max <= 1.0:
            raise ValueError(
                f"need 0 < tolerance ({self.tolerance}) < h_max "
                f"({self.h_max}) <= 1"
            )
        if self.target_nadir_hz >= self.scenario.system.f0:
            raise ValueError(
                f"target nadir ({self.target_nadir_hz}) must be below "
                f"nominal frequency ({self.scenario.system.f0})"
            )


@dataclass
class HeadroomResult:
    """The answer plus how it was reached.

    ``n_runs`` counts the simulations actually run. ``evaluations`` maps
    every headroom whose nadir is known exactly to that nadir, whether it
    was simulated or reused from a run no envelope limit touched; runs
    stopped at the target crossing are counted but not recorded.
    """

    headroom: float
    n_runs: int
    evaluations: dict[float, float] = field(default_factory=dict)


def min_headroom_for_nadir(query: HeadroomQuery,
                           sim: SimConfig | None = None) -> HeadroomResult:
    """Smallest headroom (within tolerance) whose nadir meets the target.

    The nadir here is the minimum sampled frequency after the event, the
    load-shedding meaning of the target. Two shortcuts leave every answer
    bit-identical to plain bisection over full runs:

    * A run whose requested commands stayed inside its own envelope never
      touched the headroom limits, so every headroom whose envelope also
      contains that command range gives the same trace; its nadir is reused
      without simulating.
    * Where only the pass/fail bit is needed, a run stops at the first
      sample below the target.
    """
    target = query.target_nadir_hz
    evaluations: dict[float, float] = {}
    # (cmd_min, cmd_max, nadir) of completed runs inside their envelope.
    free_runs: list[tuple[float, float, float]] = []
    n_runs = 0

    def evaluate(h: float, stop_below_hz: float | None) -> float:
        nonlocal n_runs
        s = set_param(query.scenario, "system.pv.headroom", h)
        pv = s.system.pv
        for c_lo, c_hi, value in free_runs:
            if pv.down_limit <= c_lo and c_hi <= pv.up_limit:
                evaluations[h] = value
                return value
        n_runs += 1
        trace = run_simulation(s, controller=query.controller, sim=sim,
                               stop_below_hz=stop_below_hz)
        start = _first_index_at_or_after(trace.t, s.contingency.t_event)
        value = min(trace.f_hz[start:])
        if stop_below_hz is not None and value < stop_below_hz:
            return value  # stopped at the crossing: only a lower bound
        evaluations[h] = value
        if pv.down_limit <= trace.cmd_min and trace.cmd_max <= pv.up_limit:
            free_runs.append((trace.cmd_min, trace.cmd_max, value))
        return value

    def nadir(h: float) -> float:
        if h not in evaluations:
            evaluate(h, None)
        return evaluations[h]

    def meets(h: float) -> bool:
        if h in evaluations:
            return evaluations[h] >= target
        return evaluate(h, target) >= target

    h_star = bisect_min_headroom(nadir, target, query.h_max,
                                 query.tolerance, meets=meets)
    return HeadroomResult(headroom=h_star, n_runs=n_runs,
                          evaluations=dict(evaluations))


def bisect_min_headroom(nadir: Callable[[float], float], target: float,
                        h_max: float, tolerance: float,
                        meets: Callable[[float], bool] | None = None,
                        ) -> float:
    """Bisection core over a memo-friendly nadir function.

    Probes {h_max, h_max/2, 0} for monotonicity, then bisects the bracket
    [largest h below target, smallest h at/above target]. ``meets(h)``
    answers only whether the nadir at ``h`` reaches the target (default:
    ``nadir(h) >= target``); it serves the bisection midpoints and, once
    h_max/2 meets the target, the h = 0 probe, where any failing nadir is
    below h_max/2's and so cannot break monotonicity.
    """
    if meets is None:
        def meets(h: float) -> bool:
            return nadir(h) >= target

    top = nadir(h_max)
    middle = nadir(h_max / 2.0)
    bottom: float | None = None
    if middle < target or meets(0.0):
        bottom = nadir(0.0)
    if not ((bottom is None or bottom <= middle + 1e-9)
            and middle <= top + 1e-9):
        shown = "below target" if bottom is None else f"{bottom:.4f}"
        raise NonMonotoneError(
            "nadir is not non-decreasing in headroom over "
            f"[0.0, {h_max / 2.0}, {h_max}]: "
            f"[{shown}, {middle:.4f}, {top:.4f}]"
        )
    if bottom is not None and bottom >= target:
        return 0.0
    if top < target:
        raise UnattainableError(
            f"nadir at h_max={h_max} is {top:.4f} Hz, below the "
            f"target {target:.4f} Hz"
        )
    lo, hi = 0.0, h_max
    if middle >= target:
        hi = h_max / 2.0
    else:
        lo = h_max / 2.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


def sweep_param(scenario: Scenario, controller: str, param_path: str,
                values: list[float],
                sim: SimConfig | None = None,
                ) -> list[tuple[float, FrequencyMetrics]]:
    """One metrics row per value, in input order."""
    if param_path not in valid_param_paths():
        raise ValueError(
            f"unknown parameter path {param_path!r}; valid paths: "
            f"{', '.join(valid_param_paths())}"
        )
    rows = []
    for v in values:
        s = set_param(scenario, param_path, v)
        trace = run_simulation(s, controller=controller, sim=sim)
        rows.append((v, compute_frequency_metrics(
            trace, s.contingency.t_event, f0=s.system.f0)))
    return rows
