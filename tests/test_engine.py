import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from gridfreq import engine
from gridfreq.compliance import make_controller
from gridfreq.csvio import read_trace_csv, write_trace_csv
from gridfreq.engine import SimConfig, run_simulation, steady_state_deviation
from gridfreq.metrics import compute_frequency_metrics
from gridfreq.scenario import (Contingency, ControllerSpec, DroopConfig,
                               GovernorFleet, Scenario, SystemParams,
                               preset_scenario, scenario_from_dict,
                               set_param)
from trace_probes import initial_rocof
from work_count import pinned, step_work


def d_only_scenario(dp=0.02, h_sys=3.0):
    """kappa=0, no PV response: the swing equation decays analytically."""
    return scenario_from_dict({
        "name": "d-only",
        "system": {"h_sys": h_sys, "d_load": 1.0, "governor": {"kappa": 0.0}},
        "controller": {"kind": "none"},
        "contingency": {"dp": dp, "t_event": 1.0},
    })


def d_only_analytic(t_after_event, dp=0.02, d_load=1.0, h_sys=3.0):
    tau = 2.0 * h_sys / d_load
    return 60.0 * (1.0 - (dp / d_load) * (1.0 - math.exp(-t_after_event
                                                         / tau)))


def replay_plant(pv, dt):
    """The PV plant without a rate limit, stepped at ``dt``: each command
    is clamped into [down_limit, up_limit] and held over the step through
    the inverter lag. Returns ``step(cmd)``, the output in system pu."""
    assert pv.rate_limit is None
    a = -math.expm1(-dt / pv.t_inv)
    y = 0.0

    def step(cmd):
        nonlocal y
        y += (min(max(cmd, pv.down_limit), pv.up_limit) - y) * a
        return pv.c_pv * y

    return step


class TestRunSimulation:
    def test_no_disturbance_stays_at_nominal(self):
        s = scenario_from_dict({
            "name": "flat", "system": {"h_sys": 3.0},
            "controller": {"kind": "combined"},
            "contingency": {"dp": 0.0, "t_event": 1.0},
            "sim": {"t_end": 10.0},
        })
        trace = run_simulation(s)
        assert all(abs(f - 60.0) < 1e-9 for f in trace.f_hz)
        assert all(f == 60.0 for f in trace.f_hz)

    def test_d_only_closed_form(self):
        trace = run_simulation(d_only_scenario())
        idx = trace.t.index(7.0)  # 6 s after the event at t=1
        assert trace.f_hz[idx] == pytest.approx(59.24150, abs=0.001)
        assert trace.f_hz[idx] == pytest.approx(d_only_analytic(6.0),
                                                abs=1e-6)

    def test_initial_rocof_identity(self):
        # Right after the event only inertia acts: df/dt = -dp*f0/(2H).
        worst = 0.0
        for dp in (0.01, 0.02, 0.04):
            for h_sys in (2.0, 3.0, 4.0):
                s = scenario_from_dict({
                    "name": "rocof-grid",
                    "system": {"h_sys": h_sys},
                    "controller": {"kind": "none"},
                    "contingency": {"dp": dp, "t_event": 1.0},
                    "sim": {"t_end": 10.0},
                })
                measured = initial_rocof(run_simulation(s), 1.0)
                analytic = -dp * 60.0 / (2.0 * h_sys)
                worst = max(worst,
                            abs(measured - analytic) / abs(analytic))
        assert worst <= 0.01, (f"worst relative error over 3x3 (dp, H) "
                               f"grid: {worst:.4f} (<=0.01)")

    def test_inertia_washout_closed_form(self):
        # With c_pv = 1e-6 the inertia path barely moves the frequency, so
        # x = df follows d_only_analytic: x = (dp/D)(exp(-a*s) - 1) with
        # a = D/2H, s seconds after the event. The lag li and y = k*li - xw
        # are linear in x, so the request -y/t_washout is a sum of
        # exponentials with rates a, 1/t_lag and 1/t_washout.
        s = d_only_scenario()
        for path, value in [("controller.kind", "inertia"),
                            ("system.pv.c_pv", 1e-6),
                            ("system.pv.headroom", 0.5), ("sim.t_end", 3.0)]:
            s = set_param(s, path, value)
        icfg = s.controller.inertia
        a, r_l, r_w = 1.0 / 6.0, 1.0 / icfg.t_lag, 1.0 / icfg.t_washout
        # y' = k*li' - r_w*y, driven by k*li' = b*(exp(-r_l*s) - exp(-a*s)).
        b = icfg.k * 0.02 * a * r_l / (r_l - a)

        def request(t):
            if t < 1.0:
                return 0.0
            e = [math.exp(-r * (t - 1.0)) for r in (a, r_l, r_w)]
            y = b * ((e[1] - e[2]) / (r_w - r_l) - (e[0] - e[2]) / (r_w - a))
            return -r_w * y

        trace = run_simulation(s)
        got = [v / 1e-6 for v in trace.dp_pv_inertia_pu]
        assert max(got) > 0.03
        # About 3e-7 at dt = 0.005; a washout time constant 10% off
        # reads about 1e-3.
        assert max(abs(v - request(t))
                   for t, v in zip(trace.t, got)) < 1e-5

    def test_determinism_bitwise(self):
        s = preset_scenario("ei80", controller="combined")
        t1 = run_simulation(s)
        t2 = run_simulation(s)
        assert same_lists(t1, t2)
        assert (t1.cmd_min, t1.cmd_max) == (t2.cmd_min, t2.cmd_max)

    def test_causality_no_response_before_event(self):
        s = preset_scenario("ei80", controller="combined")
        trace = run_simulation(s)
        for t, pv, gov in zip(trace.t, trace.dp_pv_pu, trace.dp_gov_pu):
            if t < s.contingency.t_event:
                assert pv == 0.0
                assert gov == 0.0

    def test_pre_event_frequency_exact(self):
        s = preset_scenario("ercot80", controller="droop")
        trace = run_simulation(s)
        for t, f in zip(trace.t, trace.f_hz):
            if t <= s.contingency.t_event:
                assert f == 60.0

    def test_power_balance_at_steady_state(self):
        s = preset_scenario("ei80", controller="droop")
        trace = run_simulation(s)
        df_ss = trace.f_hz[-1] / 60.0 - 1.0
        residual = (trace.dp_gov_pu[-1] + trace.dp_pv_pu[-1]
                    - s.contingency.dp - s.system.d_load * df_ss)
        assert abs(residual) < 1e-5

    # The preset's window of w = 10 samples over n = 6001, then windows of
    # w = 500 (more than n), n - 1 and 1 over n = 201 samples. Up to sample
    # w every window starts at sample 0, so with w >= n - 1 all of them do.
    @pytest.mark.parametrize("window,t_end,w", [
        (0.1, 60.0, 10), (5.0, 2.0, 500), (2.0, 2.0, 200), (0.01, 2.0, 1)],
        ids=["preset", "past_the_samples", "one_sample_short",
             "one_sample"])
    def test_rocof_column_matches_documented_formula(self, window, t_end,
                                                     w):
        s = preset_scenario("ercot80", controller="none")
        s = set_param(set_param(s, "sim.rocof_window", window),
                      "sim.t_end", t_end)
        trace = run_simulation(s)
        assert round(s.sim.rocof_window / s.sim.sample_interval) == w
        assert len(trace) == round(t_end / s.sim.sample_interval) + 1
        assert len(trace.rocof_hz_per_s) == len(trace)
        assert trace.rocof_hz_per_s[0] == 0.0
        for k in range(1, len(trace.t)):
            j = max(0, k - w)
            expected = (trace.f_hz[k] - trace.f_hz[j]) \
                / (trace.t[k] - trace.t[j])
            assert trace.rocof_hz_per_s[k] == expected

    def test_halving_dt_improves_error_8x(self):
        s = d_only_scenario()

        def err(dt):
            sim = SimConfig(dt=dt, t_end=8.0, sample_interval=dt,
                            rocof_window=max(dt, 0.1))
            trace = run_simulation(s, sim=sim)
            idx = min(range(len(trace.t)),
                      key=lambda i: abs(trace.t[i] - 7.0))
            return abs(trace.f_hz[idx] - d_only_analytic(6.0))

        assert err(0.2) / err(0.1) >= 8.0

    @pytest.mark.parametrize("kind", ["droop", "inertia", "combined"])
    def test_fourth_order_where_nothing_switches(self, kind):
        # No deadband, clamp or limit acts, so every state is smooth and
        # RK4's error falls about 16x per halving of dt (17-21x here,
        # against a run at dt 0.02/64); a slope dropped from one state's
        # update makes that state first order, about 2x.
        def run(dt):
            return run_simulation(scenario_from_dict({
                "preset": "ercot80",
                "system": {"pv": {"headroom": 0.5},
                           "governor": {"reserve_limit": 1.0}},
                "controller": {"kind": kind, "droop": {"deadband": 0.0},
                               "inertia": {"deadband": 0.0}},
                "sim": {"dt": dt, "t_end": 4.0, "sample_interval": 0.02}}))

        fine = run(0.02 / 64)

        def err(dt):
            trace = run(dt)
            return max(abs(a - b) for name in ("f_hz", "dp_gov_pu",
                                               "dp_pv_pu")
                       for a, b in zip(getattr(trace, name),
                                       getattr(fine, name)))

        assert err(0.01) / err(0.005) >= 12.0

    def test_closed_loop_matches_discrete_controller(self):
        """Dual route: the RK4-embedded droop path agrees with the step
        test's discrete controller replayed over the same frequency
        trace."""
        s = preset_scenario("ei80", controller="droop")
        trace = run_simulation(s)
        hold = make_controller(s.controller, s.sim.sample_interval)
        plant = replay_plant(s.system.pv, s.sim.sample_interval)
        worst = 0.0
        for i in range(1, len(trace.t)):
            df = trace.f_hz[i - 1] / 60.0 - 1.0
            out = plant(hold(df, 1)[0])
            worst = max(worst, abs(out - trace.dp_pv_pu[i]))
        peak = max(abs(v) for v in trace.dp_pv_pu)
        assert peak > 0.0
        assert worst <= 0.005 * peak

    def test_closed_loop_matches_discrete_combined_controller(self):
        """Same dual route for the combined controller, replayed on the
        integration grid with midpoint inputs. The two realizations agree
        to sub-percent levels except during the event-onset transient,
        where zero-order-hold stepping genuinely differs from the
        stage-coupled continuous form."""
        s = preset_scenario("ercot80", controller="combined")
        sim = SimConfig(dt=0.005, t_end=60.0, sample_interval=0.005)
        trace = run_simulation(s, sim=sim)
        hold = make_controller(s.controller, sim.sample_interval)
        plant = replay_plant(s.system.pv, sim.sample_interval)
        diffs = []
        for i in range(1, len(trace.t)):
            df = 0.5 * (trace.f_hz[i - 1] + trace.f_hz[i]) / 60.0 - 1.0
            out = plant(hold(df, 1)[0])
            diffs.append((trace.t[i], abs(out - trace.dp_pv_pu[i])))
        peak = max(abs(v) for v in trace.dp_pv_pu)
        rms = math.sqrt(sum(d * d for _, d in diffs) / len(diffs))
        late = max(d for t, d in diffs
                   if t > s.contingency.t_event + 4.0)
        assert rms <= 0.01 * peak
        assert late <= 0.005 * peak
        assert max(d for _, d in diffs) <= 0.1 * peak

    def test_preset_contrast_low_inertia_is_worse(self):
        sim = SimConfig(t_end=30.0)
        m = {}
        for name in ("ei80", "ercot80"):
            trace = run_simulation(preset_scenario(name), sim=sim)
            m[name] = compute_frequency_metrics(trace, 1.0, f0=60.0)
        assert m["ercot80"].nadir_hz < m["ei80"].nadir_hz
        assert (m["ercot80"].max_abs_rocof_hz_per_s
                > m["ei80"].max_abs_rocof_hz_per_s)

    def test_nadir_monotone_in_inertia_and_event_size(self):
        base = preset_scenario("ei80")
        sim = SimConfig(t_end=20.0)
        hs = [1.5, 2.0, 2.5, 3.0, 3.5]
        dps = [0.005, 0.01, 0.02, 0.03, 0.04]
        nadir = {}
        for h in hs:
            for dp in dps:
                s = set_param(set_param(base, "system.h_sys", h),
                              "contingency.dp", dp)
                trace = run_simulation(s, sim=sim)
                nadir[h, dp] = compute_frequency_metrics(
                    trace, 1.0, f0=60.0).nadir_hz
        for dp in dps:
            for lo, hi in zip(hs, hs[1:]):
                assert nadir[hi, dp] >= nadir[lo, dp] - 1e-9
        for h in hs:
            for small, big in zip(dps, dps[1:]):
                assert nadir[h, big] <= nadir[h, small] + 1e-9

    def test_governor_reserve_clamp(self):
        s = preset_scenario("ercot80")
        s = set_param(s, "system.governor.reserve_limit", 0.01)
        trace = run_simulation(s, sim=SimConfig(t_end=30.0))
        assert max(trace.dp_gov_pu) <= 0.01 + 1e-12
        assert min(trace.dp_gov_pu) >= 0.0

    def test_headroom_necessity(self):
        # With no headroom the PV can only curtail, never add power; with
        # 0.05 of it, combined control raises the nadir.
        def run(kind, headroom):
            return run_simulation(set_param(preset_scenario("ercot80", kind),
                                            "system.pv.headroom", headroom))

        def nadir(trace):
            return compute_frequency_metrics(trace, 1.0, f0=60.0).nadir_hz

        droop0, combined0 = run("droop", 0.0), run("combined", 0.0)
        combined5 = run("combined", 0.05)
        max_pv = max(max(droop0.dp_pv_pu), max(combined0.dp_pv_pu))
        detail = (f"h=0: max dp_pv {max_pv:.2e} (<=0); nadir(h=0.05) "
                  f"{nadir(combined5):.4f} > nadir(h=0) "
                  f"{nadir(combined0):.4f} Hz")
        assert max_pv <= 0.0, detail
        assert nadir(combined5) > nadir(combined0), detail

    def test_pv_rate_limit_slows_response(self):
        s = preset_scenario("ercot80", controller="droop")
        slow = set_param(s, "system.pv.rate_limit", 0.001)
        sim = SimConfig(t_end=10.0)
        fast_trace = run_simulation(s, sim=sim)
        slow_trace = run_simulation(slow, sim=sim)
        idx = slow_trace.t.index(6.0)  # 5 s after the event
        # command ramps at <= 0.001 pu/s, so 5 s post-event output is capped
        assert slow_trace.dp_pv_pu[idx] <= 0.4 * 0.001 * 5.0 + 1e-9
        assert slow_trace.dp_pv_pu[idx] > 0.0
        assert slow_trace.dp_pv_pu[idx] < fast_trace.dp_pv_pu[idx]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bound_rate_limit_ramps_at_the_limit(self, sign):
        # The droop request outruns 0.001 pu/s throughout, up after a
        # loss of generation and down after a loss of load, so the command
        # moves by exactly rate * dt a step, and 2 s after the event the
        # plant output (lag 0.05 s) follows that ramp.
        s = preset_scenario("ercot80", controller="droop")
        s = set_param(set_param(s, "system.pv.rate_limit", 0.001),
                      "sim.t_end", 6.0)
        s = set_param(s, "contingency.dp", sign * s.contingency.dp)
        trace = run_simulation(s)
        i = trace.t.index(3.0)
        slope = (trace.dp_pv_pu[-1] - trace.dp_pv_pu[i]) \
            / (s.system.pv.c_pv * 3.0)
        assert slope == pytest.approx(sign * 0.001, rel=1e-9)

    def test_overfrequency_event_mirrors_response(self):
        doc = {
            "name": "over", "system": {"h_sys": 2.0},
            "controller": {"kind": "droop"},
            "contingency": {"dp": -0.02, "t_event": 1.0},
        }
        s = scenario_from_dict(doc)
        trace = run_simulation(s)
        # PV curtails and the governor backs off; neither adds power
        assert max(trace.dp_pv_pu) <= 0.0
        assert max(trace.dp_gov_pu) <= 0.0
        assert min(trace.dp_pv_pu) >= -s.system.pv.c_pv \
            * s.system.pv.operating_point - 1e-9
        m = compute_frequency_metrics(trace, 1.0, f0=60.0)
        m_none = compute_frequency_metrics(run_simulation(
            scenario_from_dict({**doc, "controller": {"kind": "none"}})),
            1.0, f0=60.0)
        assert m.nadir_hz > 60.0  # peak, not dip
        assert m.nadir_hz < m_none.nadir_hz  # droop trims the peak

    def test_recovery_clamp_keeps_inertia_support_non_negative(self):
        s = preset_scenario("ercot80", controller="combined")
        s = set_param(s, "controller.inertia.recovery_clamp", True)
        trace = run_simulation(s, sim=SimConfig(t_end=30.0))
        # underfrequency event: the clamped inertia path never withdraws
        assert all(v >= 0.0 for v in trace.dp_pv_inertia_pu)
        unclamped = run_simulation(
            set_param(s, "controller.inertia.recovery_clamp", False),
            sim=SimConfig(t_end=30.0))
        assert min(unclamped.dp_pv_inertia_pu) < 0.0  # clamp has a target

    def test_t_end_must_exceed_event(self):
        s = scenario_from_dict({
            "name": "bad", "system": {"h_sys": 2.0},
            "contingency": {"dp": 0.01, "t_event": 5.0},
            "sim": {"t_end": 4.0},
        })
        with pytest.raises(ValueError, match="t_event"):
            run_simulation(s)

    def test_sample_grid_and_horizon(self):
        s = preset_scenario("ei80")
        sim = SimConfig(dt=0.005, t_end=10.0, sample_interval=0.05)
        trace = run_simulation(s, sim=sim)
        assert trace.t[0] == 0.0
        assert trace.t[-1] == pytest.approx(10.0, abs=1e-9)
        assert len(trace) == 201
        diffs = {round(b - a, 9) for a, b in zip(trace.t, trace.t[1:])}
        assert diffs == {0.05}

    def test_non_finite_run_raises_naming_dt(self):
        # dt = 0.1 s against the 0.02 s inertia lag diverges. No single
        # time constant bounds a stable dt (dt = 0.05 stays finite but
        # wrong here), so the message names no time constant.
        s = preset_scenario("ei80", controller="combined")
        sim = SimConfig(dt=0.1, sample_interval=0.1)
        with pytest.raises(ValueError,
                           match=r"sim\.dt \(0\.1 s\)") as info:
            run_simulation(s, sim=sim)
        assert "diverged" in str(info.value)
        assert not re.search(r"(controller|system)\.", str(info.value))


class TestGovernorRhs:
    def test_initial_rate(self):
        """The engine's governor follows d(dp_gov)/dt =
        (kappa/r_gov*|df| - dp_gov)/t_gov, so right after the event its
        slope is kappa/r_gov*|df|/t_gov; both read from a trace."""
        s = preset_scenario("ercot80")
        s = set_param(s, "system.governor.kappa", 0.5)
        s = set_param(s, "system.governor.t_gov", 4.0)
        gov = s.system.governor
        trace = run_simulation(s, sim=SimConfig(t_end=6.0))
        k_event = trace.t.index(s.contingency.t_event)
        for k in range(k_event + 1, k_event + 300):
            slope = (trace.dp_gov_pu[k + 1] - trace.dp_gov_pu[k - 1]) \
                / (trace.t[k + 1] - trace.t[k - 1])
            abs_df = 1.0 - trace.f_hz[k] / s.system.f0
            rate = gov.kappa / gov.r_gov * abs_df / gov.t_gov
            assert slope == pytest.approx(
                rate - trace.dp_gov_pu[k] / gov.t_gov, rel=1e-3)
            if k <= k_event + 3:
                assert slope == pytest.approx(rate, rel=5e-3)


def balance(kind="none", dp=0.02, r=0.05, **system):
    """A scenario for the steady-state balance, h_sys 3 s."""
    return Scenario(
        system=SystemParams(h_sys=3.0, **system),
        contingency=Contingency(dp=dp),
        controller=ControllerSpec(kind=kind, droop=DroopConfig(r=r)))


class TestSteadyStateDeviation:
    def test_without_pv(self):
        for kind in ("none", "inertia"):
            dev = steady_state_deviation(balance(kind, d_load=1.0))
            assert dev == pytest.approx(-0.0028571, abs=1e-7)
            assert dev * 60.0 == pytest.approx(-0.17143, abs=1e-5)

    def test_with_pv_droop(self):
        for kind in ("droop", "combined"):
            dev = steady_state_deviation(balance(kind, r=0.05, d_load=1.0))
            # denominator 0.3/0.05 + 1 + 0.4/0.05 = 15
            assert dev == pytest.approx(-0.0013333, abs=1e-7)
            assert dev * 60.0 == pytest.approx(-0.08, abs=1e-5)

    def test_run_settles_to_the_balance(self):
        # The balance neglects deadbands, so the droop path's is zeroed;
        # the settling frequency is the mean of the run's last 5 s.
        for kind in ("none", "droop"):
            s = set_param(balance(kind, d_load=1.0),
                          "controller.droop.deadband", 0.0)
            m = compute_frequency_metrics(
                run_simulation(s), s.contingency.t_event, f0=60.0)
            dev = m.settling_freq_hz / 60.0 - 1.0
            analytic = steady_state_deviation(s)
            err = abs(dev - analytic)
            assert err <= 2e-4, (f"{kind}: sim {dev:.7f} vs {analytic:.7f} "
                                 f"pu (err {err:.1e} <= 2e-4)")

    def test_zero_disturbance(self):
        assert steady_state_deviation(balance(dp=0.0)) == 0.0

    def test_zero_denominator_rejected(self):
        s = balance(d_load=0.0, governor=GovernorFleet(kappa=0.0))
        with pytest.raises(ValueError, match="no responsive"):
            steady_state_deviation(s)

    @pytest.mark.parametrize("dp", [math.nan, math.inf, -math.inf])
    def test_non_finite_disturbance_rejected(self, dp):
        # The contingency rejects it, so no balance is ever formed.
        with pytest.raises(ValueError, match=r"^dp must be finite, got "):
            steady_state_deviation(balance(dp=dp))

    @pytest.mark.parametrize("r_droop", [math.nan, math.inf, -math.inf,
                                         0.0])
    def test_droop_outside_open_interval_rejected(self, r_droop):
        # r_droop=inf used to drop the PV droop term without a word; the
        # droop path's config rejects it before a balance is formed.
        with pytest.raises(ValueError,
                           match=r"^r must be (> 0|finite), got "):
            steady_state_deviation(balance("droop", r=r_droop))


TRACE_LISTS = ("t", "f_hz", "rocof_hz_per_s", "dp_gov_pu", "dp_pv_pu",
               "dp_pv_droop_pu", "dp_pv_inertia_pu")


def same_lists(a, b):
    return all(getattr(a, name) == getattr(b, name) for name in TRACE_LISTS)


class TestCommandRange:
    @pytest.mark.parametrize("rate_limit,clamp", [(None, False),
                                                  (0.5, False),
                                                  (0.5, True)])
    def test_runs_inside_the_range_are_identical(self, rate_limit, clamp):
        s = preset_scenario("ercot80", controller="combined")
        s = set_param(s, "system.pv.rate_limit", rate_limit)
        s = set_param(s, "controller.inertia.recovery_clamp", clamp)
        ref_s = set_param(s, "system.pv.headroom", 0.5)
        ref = run_simulation(ref_s)
        pv = ref_s.system.pv
        assert pv.down_limit <= ref.cmd_min <= 0.0 < ref.cmd_max \
            <= pv.up_limit
        # Headrooms whose envelope contains [cmd_min, cmd_max]; the plant
        # has available_power 1, so up_limit == headroom.
        for h in (ref.cmd_max, 0.1, 0.3, 1.0 + ref.cmd_min - 1e-9):
            other = run_simulation(set_param(s, "system.pv.headroom", h))
            assert same_lists(other, ref), h
            assert (other.cmd_min, other.cmd_max) == (ref.cmd_min,
                                                      ref.cmd_max)

    def test_headroom_below_the_range_changes_the_run(self):
        s = preset_scenario("ercot80", controller="combined")
        ref = run_simulation(set_param(s, "system.pv.headroom", 0.5))
        h = ref.cmd_max * (1.0 - 1e-3)
        clipped_s = set_param(s, "system.pv.headroom", h)
        clipped = run_simulation(clipped_s)
        assert clipped.f_hz != ref.f_hz
        assert min(clipped.f_hz) < min(ref.f_hz)
        # the range is taken before the clamp, so it shows the limit bound
        assert clipped.cmd_max > clipped_s.system.pv.up_limit

    def test_no_controller_requests_nothing(self):
        trace = run_simulation(preset_scenario("ei80"))
        assert (trace.cmd_min, trace.cmd_max) == (0.0, 0.0)


class TestStopBelow:
    def test_stopped_trace_is_a_prefix_ending_at_the_crossing(self):
        s = set_param(preset_scenario("ercot80", controller="combined"),
                      "system.pv.headroom", 0.02)
        full = run_simulation(s)
        stopped = run_simulation(s, stop_below_hz=59.5)
        n = len(stopped)
        assert 1 < n < len(full)
        for name in TRACE_LISTS:
            assert getattr(stopped, name) == getattr(full, name)[:n]
        assert stopped.f_hz[-1] < 59.5
        assert min(stopped.f_hz[:-1]) >= 59.5

    @pytest.mark.parametrize("kind", ["none", "combined"])
    def test_run_that_never_crosses_is_unchanged(self, kind):
        s = preset_scenario("ercot80", controller=kind)
        full = run_simulation(s, sim=SimConfig(t_end=20.0))
        stopped = run_simulation(s, sim=SimConfig(t_end=20.0),
                                 stop_below_hz=min(full.f_hz))
        assert same_lists(stopped, full)
        assert (stopped.cmd_min, stopped.cmd_max) == (full.cmd_min,
                                                      full.cmd_max)

    def test_threshold_above_nominal_keeps_only_the_first_sample(self):
        s = preset_scenario("ei80", controller="droop")
        stopped = run_simulation(s, stop_below_hz=61.0)
        assert list(stopped.t) == [0.0] and list(stopped.f_hz) == [60.0]


class TestTraceColumns:
    """Every trace column is an array of C doubles, 8 B per value."""

    @staticmethod
    def dense():
        return scenario_from_dict({
            "preset": "ei80", "controller": {"kind": "combined"},
            "sim": {"dt": 0.001, "t_end": 4.0, "sample_interval": 0.001}})

    def test_memory_per_sample(self):
        s = self.dense()
        run_simulation(s)  # compile the kernel outside the measurement
        tracemalloc.start()
        try:
            trace = run_simulation(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 4001
        # Seven columns take 56 B per sample, plus the arrays' growth.
        assert peak / len(trace) <= 80

    def test_every_column_holds_doubles(self):
        s = self.dense()
        full = run_simulation(s)
        prefix = run_simulation(s, stop_below_hz=60.0)
        assert 1 < len(prefix) < len(full)
        sink = io.StringIO()
        write_trace_csv(full, sink)
        again = read_trace_csv(io.StringIO(sink.getvalue()))
        assert len(again) == len(full)
        for trace in (full, prefix, again):
            for name in TRACE_LISTS:
                assert getattr(trace, name).typecode == "d", name


class TestSimConfigValidation:
    def test_sample_interval_must_be_multiple_of_dt(self):
        with pytest.raises(ValueError, match="multiple of dt"):
            SimConfig(dt=0.004, sample_interval=0.01)

    def test_t_end_spans_at_most_ten_million_steps(self):
        assert SimConfig(dt=1e-6, t_end=10.0, sample_interval=1e-6)
        with pytest.raises(ValueError, match=re.escape(
                "t_end must be at most 10000000 steps of dt (1e-06), got "
                "10.000001")):
            SimConfig(dt=1e-6, t_end=10.000001, sample_interval=1e-6)

    def test_sample_interval_not_smaller_than_dt(self):
        with pytest.raises(ValueError, match=r"^sample_interval must be >= "
                                             r"dt \(0\.01\), got 0\.005$"):
            SimConfig(dt=0.01, sample_interval=0.005)

    @pytest.mark.parametrize("name,value", [
        ("t_end", math.inf), ("sample_interval", math.inf),
        ("dt", math.nan), ("dt", math.inf), ("rocof_window", math.nan),
        ("rocof_window", math.inf), ("t_end", -math.inf)])
    def test_non_finite_field_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SimConfig(**{name: value})


class TestStepGrid:
    def test_grid_ends_at_last_whole_sample(self):
        sim = SimConfig(t_end=2.035, sample_interval=0.04)
        assert sim.step_grid(1.0, "contingency.t_event") == (400, 8, 200)
        # An off-grid event switches on at the next step boundary.
        assert sim.step_grid(1.0012, "contingency.t_event") == (400, 8, 201)

    def test_steps_after_last_sample_are_not_integrated(self):
        s = preset_scenario("ei80", controller="droop")
        partial = run_simulation(
            s, sim=SimConfig(t_end=2.035, sample_interval=0.04))
        whole = run_simulation(
            s, sim=SimConfig(t_end=2.0, sample_interval=0.04))
        for name in ("t", "f_hz", "rocof_hz_per_s", "dp_gov_pu",
                     "dp_pv_pu", "dp_pv_droop_pu", "dp_pv_inertia_pu"):
            assert getattr(partial, name) == getattr(whole, name), name
        assert partial.t[-1] == 2.0
        assert (partial.cmd_min, partial.cmd_max) == (whole.cmd_min,
                                                      whole.cmd_max)

    def test_event_after_last_step_is_rejected(self):
        s = set_param(preset_scenario("ei80", controller="droop"),
                      "contingency.t_event", 9.998)
        with pytest.raises(ValueError, match=r"sim\.t_end \(10\.0\).*"
                           r"contingency\.t_event \(9\.998\)"):
            run_simulation(s, sim=SimConfig(t_end=10.0))

    def test_event_on_the_last_step_is_kept(self):
        s = set_param(preset_scenario("ei80", controller="droop"),
                      "contingency.t_event", 9.995)
        trace = run_simulation(s, sim=SimConfig(t_end=10.0))
        assert trace.f_hz[-2] == 60.0 > trace.f_hz[-1]

    def test_event_after_last_sample_is_rejected(self):
        # The event switches on before t_end but after the last sample.
        s = set_param(preset_scenario("ei80", controller="droop"),
                      "contingency.t_event", 2.01)
        with pytest.raises(ValueError, match="contingency.t_event"):
            run_simulation(
                s, sim=SimConfig(t_end=2.035, sample_interval=0.04))


# The 11 generated loops by name, and each one's (kind, recovery clamp,
# rate limiter on). The clamp acts on the inertia path only, and kind none
# has no command to limit, so neither makes a loop where it does nothing.
VARIANTS = {kind + "+clamp" * clamp + "+rate" * rate: (kind, clamp, rate)
            for kind in ("none", "droop", "inertia", "combined")
            for clamp in ((False, True) if kind in ("inertia", "combined")
                          else (False,))
            for rate in ((False, True) if kind != "none" else (False,))}


def loop_name(scenario: Scenario, sim: SimConfig) -> str:
    """The code object name of the generated loop ``scenario`` runs."""
    names = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "kernel":
            names.append(frame.f_code.co_filename)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_simulation(scenario, sim=sim)
    finally:
        sys.setprofile(previous)
    name, = names
    return name


class TestKernelCache:
    def test_import_generates_no_loop(self):
        src = str(Path(engine.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src])
        code = "import gridfreq, gridfreq.engine; " \
               "print(gridfreq.engine._compile_kernel.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "0"

    def test_every_variant_compiles_once_under_its_own_name(self):
        engine._compile_kernel.cache_clear()
        sim = SimConfig(t_end=2.0)
        names = {}
        for kind in ("none", "droop", "inertia", "combined"):
            for rate_limit in (None, 0.5):
                for clamp in (False, True):
                    s = preset_scenario("ei80", controller=kind)
                    s = set_param(s, "system.pv.rate_limit", rate_limit)
                    s = set_param(s, "controller.inertia.recovery_clamp",
                                  clamp)
                    key = (kind, rate_limit, clamp)
                    names[key] = loop_name(s, sim)
                    assert loop_name(s, sim) == names[key]
        info = engine._compile_kernel.cache_info()
        assert info.currsize == info.misses == 11
        assert len(set(names.values())) == 11
        # kind none has no command to limit: its rate-limited runs share
        # the plain loop
        assert names["none", 0.5, False] == "<gridfreq rk4 none>"
        assert {"<gridfreq rk4 none>", "<gridfreq rk4 droop+rate>",
                "<gridfreq rk4 combined+clamp+rate>"} <= set(names.values())


class TestWorkCount:
    """The opcodes each generated loop executes per step: a count of the
    work, exact where wall time is noise. A change to a loop updates the
    table and states the change per loop."""

    # Opcodes of steps 1001-2000 (5-10 s) of an ercot80 run at the default
    # dt and sample stride 2, rate limit 0.5 where on, by Python version.
    OPCODES = {(3, 11): {
        "none": 309000, "droop": 434500, "droop+rate": 487000,
        "inertia": 562779, "inertia+rate": 617488,
        "inertia+clamp": 565680, "inertia+clamp+rate": 627530,
        "combined": 643000, "combined+rate": 700000,
        "combined+clamp": 692500, "combined+clamp+rate": 755000}}

    def test_opcodes_per_step(self):
        table = {}
        for name, (kind, clamp, rate) in VARIANTS.items():
            s = preset_scenario("ercot80", controller=kind)
            s = set_param(s, "controller.inertia.recovery_clamp", clamp)
            s = set_param(s, "system.pv.rate_limit", 0.5 if rate else None)

            def run(n, s=s):
                run_simulation(set_param(s, "sim.t_end", n * s.sim.dt))

            table[name], repeats = step_work(run, 1000, "<gridfreq rk4 ")
            assert repeats, name
        assert table == pinned(table, self.OPCODES)
        kinds = [table[kind] for kind in ("none", "droop", "inertia",
                                          "combined")]
        assert kinds == sorted(set(kinds))
