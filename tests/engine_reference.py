"""Closure-form RK4 reference for the closed-loop engine.

An independent oracle for the generated per-variant step loops in
``gridfreq.engine``: one ``deriv`` closure evaluates the right-hand side of
all six states with a flag branch per controller element, ``path_cmds``
gives the per-path commands and ``record`` appends a sample. This is the
form the engine had before its loop was generated from a template. Both
keep the same float operations in the same order, so the tests compare
every trace list and the command range with ``==``. The step grid is
``SimConfig.step_grid``'s, as in the engine.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from gridfreq.engine import SimConfig, Trace, _fill_rocof

if TYPE_CHECKING:
    from gridfreq.scenario import Scenario


def run_simulation(scenario: "Scenario", sim: SimConfig | None = None,
                   stop_below_hz: float | None = None) -> Trace:
    """Simulate ``scenario`` under its controller kind and return the
    sampled trace.

    ``sim``, when given, replaces ``scenario.sim``. With ``stop_below_hz``
    the run ends after the first sample whose frequency is below it, and
    the trace is an exact prefix of the full one. A final state that is not
    finite raises ``ValueError`` naming ``sim.dt`` and the fastest active
    time constant.
    """
    kind = scenario.controller.kind
    cfg = sim if sim is not None else scenario.sim
    system = scenario.system
    contingency = scenario.contingency
    n_steps, stride, k_event = cfg.step_grid(contingency.t_event,
                                             "contingency.t_event")
    dt = cfg.dt

    droop_on = kind in ("droop", "combined")
    inertia_on = kind in ("inertia", "combined")

    dcfg = scenario.controller.droop
    icfg = scenario.controller.inertia
    pv = system.pv
    gov = system.governor

    # Hoisted coefficients for the inner loop.
    w_d = dcfg.deadband
    inv_rd = 1.0 / dcfg.r
    r_tld = 1.0 / dcfg.t_lag
    w_i = icfg.deadband
    k_i = icfg.k
    r_tli = 1.0 / icfg.t_lag
    r_tw = 1.0 / icfg.t_washout
    clamp_on = icfg.recovery_clamp
    r_tinv = 1.0 / pv.t_inv
    c_pv = pv.c_pv
    lo = pv.down_limit
    hi = pv.up_limit
    rate = pv.rate_limit
    kappa_r = gov.kappa / gov.r_gov
    r_tgov = 1.0 / gov.t_gov
    reserve = gov.reserve_limit
    d_load = system.d_load
    r_2h = 1.0 / (2.0 * system.h_sys)
    f0 = system.f0
    dp = contingency.dp

    # [lo_s, hi_s] is the step's command envelope (the rate limiter may
    # narrow it each step) and [c_lo, c_hi] the range of commands requested
    # before it. A stage whose request lies in [w_lo, w_hi], their
    # intersection, changes neither, so one test serves both.
    lo_s = lo
    hi_s = hi
    c_lo = c_hi = w_lo = w_hi = 0.0

    def deriv(df: float, dpm: float, ld: float, li: float, xw: float,
              p: float, dp_event: float):
        nonlocal c_lo, c_hi, w_lo, w_hi
        if droop_on:
            if df > w_d:
                u = df - w_d
            elif df < -w_d:
                u = df + w_d
            else:
                u = 0.0
            d_ld = (u - ld) * r_tld
            cmd = -ld * inv_rd
        else:
            d_ld = 0.0
            cmd = 0.0
        if inertia_on:
            if df > w_i:
                u = df - w_i
            elif df < -w_i:
                u = df + w_i
            else:
                u = 0.0
            d_li = (u - li) * r_tli
            d_xw = (k_i * li - xw) * r_tw
            ci = -d_xw
            if clamp_on:
                if df < 0.0:
                    if ci < 0.0:
                        ci = 0.0
                elif df > 0.0:
                    if ci > 0.0:
                        ci = 0.0
            cmd += ci
        else:
            d_li = 0.0
            d_xw = 0.0
        if not w_lo <= cmd <= w_hi:
            if cmd < c_lo:
                c_lo = cmd
            elif cmd > c_hi:
                c_hi = cmd
            w_lo = c_lo if c_lo > lo_s else lo_s
            w_hi = c_hi if c_hi < hi_s else hi_s
            if cmd < lo_s:
                cmd = lo_s
            elif cmd > hi_s:
                cmd = hi_s
        d_p = (cmd - p) * r_tinv
        d_df = (dpm + c_pv * p - dp_event - d_load * df) * r_2h
        d_dpm = (-kappa_r * df - dpm) * r_tgov
        return d_df, d_dpm, d_ld, d_li, d_xw, d_p

    def path_cmds(df: float, ld: float, li: float, xw: float):
        """Per-path command requests at a sampled state (plant pu)."""
        cmd_d = -ld * inv_rd if droop_on else 0.0
        cmd_i = 0.0
        if inertia_on:
            cmd_i = -(k_i * li - xw) * r_tw
            if clamp_on:
                if df < 0.0:
                    cmd_i = max(cmd_i, 0.0)
                elif df > 0.0:
                    cmd_i = min(cmd_i, 0.0)
        return cmd_d, cmd_i

    trace = Trace()

    def record(t: float, df: float, dpm: float, ld: float, li: float,
               xw: float, p: float) -> None:
        cmd_d, cmd_i = path_cmds(df, ld, li, xw)
        trace.t.append(t)
        trace.f_hz.append(f0 * (1.0 + df))
        trace.dp_gov_pu.append(dpm)
        trace.dp_pv_pu.append(c_pv * p)
        trace.dp_pv_droop_pu.append(c_pv * cmd_d)
        trace.dp_pv_inertia_pu.append(c_pv * cmd_i)

    df = dpm = ld = li = xw = p = 0.0
    prev_cmd = 0.0
    h2 = 0.5 * dt
    dt6 = dt / 6.0

    stop = -math.inf if stop_below_hz is None else stop_below_hz
    f_hz = trace.f_hz
    record(0.0, df, dpm, ld, li, xw, p)
    if f_hz[-1] < stop:
        n_steps = 0
    for k in range(n_steps):
        dp_event = dp if k >= k_event else 0.0
        if rate is not None:
            max_delta = rate * dt
            lo_s = max(lo, prev_cmd - max_delta)
            hi_s = min(hi, prev_cmd + max_delta)
            w_lo = c_lo if c_lo > lo_s else lo_s
            w_hi = c_hi if c_hi < hi_s else hi_s

        a1, b1, c1, e1, g1, p1 = deriv(df, dpm, ld, li, xw, p, dp_event)
        a2, b2, c2, e2, g2, p2 = deriv(df + h2 * a1, dpm + h2 * b1,
                                       ld + h2 * c1, li + h2 * e1,
                                       xw + h2 * g1, p + h2 * p1,
                                       dp_event)
        a3, b3, c3, e3, g3, p3 = deriv(df + h2 * a2, dpm + h2 * b2,
                                       ld + h2 * c2, li + h2 * e2,
                                       xw + h2 * g2, p + h2 * p2,
                                       dp_event)
        a4, b4, c4, e4, g4, p4 = deriv(df + dt * a3, dpm + dt * b3,
                                       ld + dt * c3, li + dt * e3,
                                       xw + dt * g3, p + dt * p3,
                                       dp_event)
        df += dt6 * (a1 + 2.0 * (a2 + a3) + a4)
        dpm += dt6 * (b1 + 2.0 * (b2 + b3) + b4)
        ld += dt6 * (c1 + 2.0 * (c2 + c3) + c4)
        li += dt6 * (e1 + 2.0 * (e2 + e3) + e4)
        xw += dt6 * (g1 + 2.0 * (g2 + g3) + g4)
        p += dt6 * (p1 + 2.0 * (p2 + p3) + p4)

        # Discrete post-step clamps: governor sign follows the event
        # direction, magnitude stays within the fleet reserve.
        if dp > 0.0:
            if dpm < 0.0:
                dpm = 0.0
            elif dpm > reserve:
                dpm = reserve
        elif dp < 0.0:
            if dpm > 0.0:
                dpm = 0.0
            elif dpm < -reserve:
                dpm = -reserve
        else:
            if dpm > reserve:
                dpm = reserve
            elif dpm < -reserve:
                dpm = -reserve
        if rate is not None:
            cmd_d, cmd_i = path_cmds(df, ld, li, xw)
            cmd = cmd_d + cmd_i
            if cmd < c_lo:
                c_lo = cmd
            elif cmd > c_hi:
                c_hi = cmd
            prev_cmd = min(max(min(max(cmd, lo), hi), lo_s), hi_s)

        if (k + 1) % stride == 0:
            record((k + 1) * dt, df, dpm, ld, li, xw, p)
            if f_hz[-1] < stop:
                break

    if not math.isfinite(df + dpm + ld + li + xw + p):
        raise ValueError(
            f"simulation diverged to a non-finite state: sim.dt ({dt} s) "
            f"is too large for this scenario"
        )
    trace.cmd_min = c_lo
    trace.cmd_max = c_hi
    _fill_rocof(trace, cfg)
    return trace
