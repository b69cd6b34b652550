"""Headroom sizing, single-parameter sweeps and the controller comparison.

Each entry point runs variants of one scenario: the sizer varies the PV
headroom, a sweep any one scenario field, and the comparison is the sweep
over the controller kind. The sizer finds the smallest PV headroom
fraction whose simulated nadir stays at or above a target (for example an
under-frequency load-shedding threshold) by bisection. Monotonicity of
nadir in headroom is probed at three points first rather than assumed,
because limiters and recovery clamps could in principle bend the
response; a failed probe is surfaced as an error instead of silently
bisecting a non-monotone curve. The volume bound from the h = 0 probe
predicts where bisection ends, and the sizer tests that bracket first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Any, Callable

from .engine import run_simulation
from .metrics import (FrequencyMetrics, _first_index_at_or_after,
                      compute_frequency_metrics)
from .scenario import (CONTROLLER_KINDS, Positive, ResponsiveKind, Scenario,
                       check_fields, set_param)

# The sizer's top headroom: below 1, as the plant headroom is, and above 0,
# since the tolerance (> 0) must lie below it.
OpenFraction = Annotated[float, "in (0, 1)", lambda v: 0.0 < v < 1.0]


class UnattainableError(RuntimeError):
    """The target is not met even at the maximum headroom."""


class NonMonotoneError(RuntimeError):
    """The three-point monotonicity probe failed."""


@dataclass(frozen=True)
class HeadroomQuery:
    """A sizing question: the sizer runs ``scenario`` under
    ``controller``, a responsive kind that replaces the scenario's own."""

    scenario: Scenario
    controller: ResponsiveKind
    target_nadir_hz: float
    h_max: OpenFraction = 0.5
    tolerance: Positive = 0.001

    def __post_init__(self) -> None:
        check_fields(self)
        if self.tolerance >= self.h_max:
            raise ValueError(f"tolerance must be below h_max "
                             f"({self.h_max}), got {self.tolerance!r}")
        f0 = self.scenario.system.f0
        if self.target_nadir_hz >= f0:
            raise ValueError(f"target_nadir_hz must be below "
                             f"scenario.system.f0 ({f0}), got "
                             f"{self.target_nadir_hz!r}")


@dataclass
class HeadroomResult:
    """The answer plus how it was reached.

    ``n_runs`` counts the simulations actually run. ``volume_bound``, from
    the h = 0 nadir, is the headroom needed if PV adds only volume (0.0
    when none is needed), an empirical lower bound on the answer.
    ``evaluations`` maps every headroom whose nadir is known exactly to that
    nadir, whether it was simulated or reused from a run no envelope limit
    touched; runs stopped at the target crossing are counted but not
    recorded.
    """

    headroom: float
    n_runs: int
    volume_bound: float
    evaluations: dict[float, float] = field(default_factory=dict)


def min_headroom_for_nadir(query: HeadroomQuery) -> HeadroomResult:
    """Smallest headroom (within tolerance) whose nadir meets the target.

    Every run is ``query.scenario`` under ``query.controller``, with the
    scenario's own ``sim`` settings and the probed headroom. The nadir
    here is the minimum sampled frequency after the event, the
    load-shedding meaning of the target. ``bisect_min_headroom`` searches,
    hinted by the volume bound: at h = 0 the grid rides through
    dp·(f0 − target)/(f0 − nadir₀) of the event at the target, and PV must
    cover the rest. Two shortcuts leave every answer unchanged:

    * A run whose requested commands stayed inside its own envelope never
      touched the headroom limits, so every headroom whose envelope also
      contains that command range gives the same trace; its nadir is reused
      without simulating.
    * Where only the pass/fail bit is needed (every probe but h_max,
      h_max/2 and 0), a run stops at the first sample below the target.
    """
    scenario = set_param(query.scenario, "controller.kind", query.controller)
    target = query.target_nadir_hz
    f0, plant = scenario.system.f0, scenario.system.pv
    dp_pv = scenario.contingency.dp / (plant.c_pv * plant.available_power)
    evaluations: dict[float, float] = {}
    # (cmd_min, cmd_max, nadir) of completed runs inside their envelope.
    free_runs: list[tuple[float, float, float]] = []
    n_runs = 0

    def evaluate(h: float, stop_below_hz: float | None) -> float:
        nonlocal n_runs
        s = set_param(scenario, "system.pv.headroom", h)
        pv = s.system.pv
        for c_lo, c_hi, value in free_runs:
            if pv.down_limit <= c_lo and c_hi <= pv.up_limit:
                evaluations[h] = value
                return value
        n_runs += 1
        trace = run_simulation(s, stop_below_hz=stop_below_hz)
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

    def volume_bound(nadir0: float) -> float:
        if nadir0 >= target:
            return 0.0
        return dp_pv * (1.0 - (f0 - target) / (f0 - nadir0))

    h_star = bisect_min_headroom(
        nadir, target, query.h_max, query.tolerance,
        meets=lambda h: evaluate(h, target) >= target, hint=volume_bound)
    return HeadroomResult(headroom=h_star, n_runs=n_runs,
                          volume_bound=volume_bound(evaluations[0.0]),
                          evaluations=dict(evaluations))


def bisect_min_headroom(nadir: Callable[[float], float], target: float,
                        h_max: float, tolerance: float,
                        meets: Callable[[float], bool], *,
                        hint: Callable[[float], float] | None = None
                        ) -> float:
    """Bisection core over a memo-friendly nadir function.

    Reads {h_max, h_max/2, 0} through ``nadir`` to check monotonicity, then
    bisects the half that holds the crossing. ``meets(h)`` answers only
    whether ``nadir(h) >= target`` and is asked at most once per headroom.
    ``hint(nadir(0.0))``, if finite, predicts the crossing. The search runs
    first the last bracket that bisection reaches if exactly the headrooms
    at or above the hint pass: its upper end, then its lower end. While an
    end gives the other answer it moves outward 1, 2, 4, ... cells. Then it
    bisects, taking a midpoint's answer without a run where the smallest
    headroom known to pass or the largest known to fail decides it. Every
    headroom tested is a node of the bisection tree, so the answer is plain
    bisection's wherever pass/fail is monotone over the tested points, and
    on every input its nadir was read in full and meets the target, while
    its lower neighbour on the final grid failed or is where the search
    began. A wrong hint costs runs, never the answer.
    """
    top = nadir(h_max)
    middle = nadir(h_max / 2.0)
    bottom = nadir(0.0)
    if not (bottom <= middle + 1e-9 and middle <= top + 1e-9):
        raise NonMonotoneError(
            "nadir is not non-decreasing in headroom over "
            f"[0.0, {h_max / 2.0}, {h_max}]: "
            f"[{bottom:.4f}, {middle:.4f}, {top:.4f}]"
        )
    if bottom >= target:
        return 0.0
    if top < target:
        raise UnattainableError(
            f"nadir at h_max={h_max} is {top:.4f} Hz, below the "
            f"target {target:.4f} Hz"
        )
    lo, hi = (0.0, h_max / 2.0) if middle >= target else (h_max / 2.0, h_max)
    # The largest headroom known to fail and the smallest known to pass.
    failed, passed = lo, hi

    def passes(h: float) -> bool:
        nonlocal failed, passed
        if failed < h < passed:
            if meets(h):
                passed = h
            else:
                failed = h
        return h >= passed

    def bisect(test: Callable[[float], bool]) -> tuple[float, float]:
        a, b = lo, hi
        while b - a > tolerance:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break  # a and b are adjacent floats: no point lies between
            if test(mid):
                b = mid
            else:
                a = mid
        return a, b

    def bracket(x: float) -> tuple[float, float]:
        # The last bracket if exactly the headrooms at or above x pass.
        return bisect(lambda h: h >= x)

    h_vol = math.nan if hint is None else hint(bottom)
    if math.isfinite(h_vol):
        a, b = bracket(h_vol)
        width = step = b - a
        # Each move aims at the middle of a cell, 1, 2, 4, ... cells out.
        while not passes(b):
            b = bracket(b + step - width / 2.0)[1]
            step *= 2.0
        while passes(a):
            a = bracket(a - step + width / 2.0)[0]
            step *= 2.0
    return bisect(passes)[1]


def sweep_param(scenario: Scenario, param_path: str, values: list[Any]
                ) -> list[tuple[Any, FrequencyMetrics]]:
    """One metrics row per value, in input order: ``scenario`` run with
    the field at ``param_path`` set to that value by ``set_param``. Every
    value is checked before the first run."""
    variants = [set_param(scenario, param_path, v) for v in values]
    rows = []
    for v, s in zip(values, variants):
        trace = run_simulation(s)
        rows.append((v, compute_frequency_metrics(
            trace, s.contingency.t_event, f0=s.system.f0)))
    return rows


def compare_controllers(scenario: Scenario) -> dict[str, FrequencyMetrics]:
    """Run the scenario under every controller kind and tabulate metrics.

    It is the sweep over ``controller.kind``: each run keeps the
    scenario's gains and settings and changes only its controller kind.
    Returns one row per kind in the fixed order none, droop, inertia,
    combined; repeated invocations produce identical tables.
    """
    return dict(sweep_param(scenario, "controller.kind",
                            list(CONTROLLER_KINDS)))
