"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line with the measured values (run with ``pytest -s``
to see the lines on success)."""

import io
import math
import time

import pytest

from gridfreq.compliance import StepResponse, evaluate_compliance
from gridfreq.csvio import write_trace_csv
from gridfreq.engine import SimConfig, run_simulation
from gridfreq.headroom import (HeadroomQuery, compare_controllers,
                               min_headroom_for_nadir)
from gridfreq.metrics import compute_frequency_metrics
from gridfreq.scenario import (preset_scenario, scenario_from_dict,
                               set_param)
from trace_probes import initial_rocof, max_abs_rocof_within

PRESETS = ("ei80", "ercot80")
T_EVENT = 1.0


def check(name, ok, detail):
    line = f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def comparison():
    """Four-controller metric tables for both presets, timed."""
    t0 = time.perf_counter()
    tables = {name: compare_controllers(preset_scenario(name))
              for name in PRESETS}
    return {"tables": tables, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def rocof_traces():
    out = {}
    for name in PRESETS:
        for kind in ("none", "inertia"):
            out[name, kind] = run_simulation(preset_scenario(name, kind))
    return out


def test_c1_droop_improves_nadir_and_settling(comparison):
    details = []
    ok = comparison["elapsed"] < 5.0
    details.append(f"runtime {comparison['elapsed']:.2f}s < 5s")
    for name in PRESETS:
        table = comparison["tables"][name]
        gain = table["droop"].nadir_hz - table["none"].nadir_hz
        settle_gain = (table["droop"].settling_freq_hz
                       - table["none"].settling_freq_hz)
        ok = ok and gain >= 0.05 and settle_gain > 0.0
        details.append(f"{name}: nadir +{gain:.3f} Hz (>=0.05), "
                       f"settling +{settle_gain:.4f} Hz (>0)")
    check("C1 droop benefit", ok, "; ".join(details))


def test_c2_inertia_constrains_rocof(rocof_traces):
    details = []
    ok = True
    for name in PRESETS:
        r_none = max_abs_rocof_within(rocof_traces[name, "none"],
                                      T_EVENT, 0.5)
        r_inertia = max_abs_rocof_within(rocof_traces[name, "inertia"],
                                         T_EVENT, 0.5)
        ratio = r_inertia / r_none
        ok = ok and ratio <= 0.90
        details.append(f"{name}: {r_inertia:.3f}/{r_none:.3f} Hz/s "
                       f"= {ratio:.3f} (<=0.90)")
    check("C2 rocof arrest", ok, "; ".join(details))


def test_c3_inertia_delays_nadir(comparison):
    details = []
    ok = True
    for name in PRESETS:
        table = comparison["tables"][name]
        ratio = (table["combined"].nadir_time_s
                 / table["droop"].nadir_time_s)
        ok = ok and ratio >= 1.1
        details.append(f"{name}: {table['combined'].nadir_time_s:.2f}s"
                       f"/{table['droop'].nadir_time_s:.2f}s "
                       f"= {ratio:.2f} (>=1.1)")
    check("C3 nadir delay", ok, "; ".join(details))


def test_c4_inertia_benefit_depends_on_grid_size(comparison):
    ei = comparison["tables"]["ei80"]
    ercot = comparison["tables"]["ercot80"]
    d_ei = abs(ei["combined"].nadir_hz - ei["droop"].nadir_hz)
    d_ercot = ercot["combined"].nadir_hz - ercot["droop"].nadir_hz
    ok = d_ei <= 0.03 and d_ercot >= 2.0 * d_ei
    check("C4 grid-size contrast", ok,
          f"ei80 |diff| {d_ei:.4f} Hz (<=0.03); ercot80 diff "
          f"{d_ercot:.4f} Hz (>= 2x = {2 * d_ei:.4f})")


def test_c5_settling_matches_analytic_steady_state():
    # worked cases with deadbands zeroed: kappa/r_gov + D (+ c_pv/r_droop)
    cases = [
        ("governor+load", "none", False, -0.02 / 7.0, -0.0028571),
        ("with PV droop", "droop", True, -0.02 / 15.0, -0.0013333),
    ]
    details = []
    ok = True
    for label, kind, with_pv, analytic, frozen in cases:
        s = scenario_from_dict({
            "name": label,
            "system": {"h_sys": 3.0, "d_load": 1.0,
                       "pv": {"c_pv": 0.4, "headroom": 0.05}},
            "controller": {"kind": kind,
                           "droop": {"r": 0.05, "deadband": 0.0}},
            "contingency": {"dp": 0.02, "t_event": T_EVENT},
        })
        assert analytic == pytest.approx(frozen, abs=1e-7)
        trace = run_simulation(s)
        m = compute_frequency_metrics(trace, T_EVENT, f0=60.0)
        dev = m.settling_freq_hz / 60.0 - 1.0
        err = abs(dev - analytic)
        ok = ok and err <= 2e-4
        details.append(f"{label}: sim {dev:.7f} vs {analytic:.7f} pu "
                       f"(err {err:.1e} <= 2e-4)")
    check("C5 analytic steady state", ok, "; ".join(details))


def test_c6_initial_rocof_identity():
    worst = 0.0
    for dp in (0.01, 0.02, 0.04):
        for h_sys in (2.0, 3.0, 4.0):
            s = scenario_from_dict({
                "name": "rocof-grid",
                "system": {"h_sys": h_sys},
                "controller": {"kind": "none"},
                "contingency": {"dp": dp, "t_event": T_EVENT},
                "sim": {"t_end": 10.0},
            })
            trace = run_simulation(s)
            measured = initial_rocof(trace, T_EVENT)
            analytic = -dp * 60.0 / (2.0 * h_sys)
            worst = max(worst, abs(measured - analytic) / abs(analytic))
    check("C6 initial rocof identity", worst <= 0.01,
          f"worst relative error over 3x3 (dp, H) grid: {worst:.4f} "
          f"(<=0.01)")


def test_c7_damping_only_closed_form():
    s = scenario_from_dict({
        "name": "d-only",
        "system": {"h_sys": 3.0, "d_load": 1.0, "governor": {"kappa": 0.0}},
        "controller": {"kind": "none"},
        "contingency": {"dp": 0.02, "t_event": T_EVENT},
        "sim": {"t_end": 10.0},
    })
    trace = run_simulation(s)
    f_sim = trace.f_hz[trace.t.index(T_EVENT + 6.0)]
    f_analytic = 60.0 * (1.0 - 0.02 * (1.0 - math.exp(-1.0)))
    ok = abs(f_sim - 59.24150) <= 0.001 and abs(f_sim - f_analytic) <= 1e-5
    check("C7 damping-only closed form", ok,
          f"f(event+6s) = {f_sim:.5f} Hz vs 59.24150 +/- 0.001 "
          f"(analytic {f_analytic:.5f})")


def test_c8_step_metric_oracles():
    si = 0.01
    t = [i * si for i in range(3001)]
    y = [1.0 - math.exp(-ti) for ti in t]
    m = evaluate_compliance(StepResponse(t, y, 0.0, 0.002)).metrics
    tol = 2 * si
    checks = [
        ("reaction", m.reaction_time_s, 0.0202),
        ("rise", m.rise_time_s, 2.1972),
        ("settling", m.settling_time_s, 3.6889),
    ]
    ok = all(abs(got - want) <= tol for _, got, want in checks)
    ok = ok and m.overshoot == 0.0

    z = 0.5
    wd = math.sqrt(1 - z * z)
    t2 = [i * si for i in range(4001)]
    y2 = [1 - math.exp(-z * ti) * (math.cos(wd * ti)
                                   + z / wd * math.sin(wd * ti))
          for ti in t2]
    m2 = evaluate_compliance(StepResponse(t2, y2, 0.0, 0.002)).metrics
    ok = ok and abs(m2.overshoot - 0.1630) <= 0.005
    detail = ", ".join(f"{name} {got:.4f} vs {want}"
                       for name, got, want in checks)
    check("C8 step-metric oracles", ok,
          f"first-order: {detail} (each +/-{tol}); overshoot "
          f"{m.overshoot}; second-order overshoot {m2.overshoot:.4f} "
          f"vs 0.1630 +/- 0.005")


def test_c9_headroom_bisection_matches_sweep():
    scenario = set_param(preset_scenario("ercot80", "combined"),
                         "sim.t_end", 30.0)
    target = 59.5
    query = HeadroomQuery(scenario=scenario, controller="combined",
                          target_nadir_hz=target, h_max=0.5,
                          tolerance=0.001)
    t0 = time.perf_counter()
    result = min_headroom_for_nadir(query)
    elapsed = time.perf_counter() - t0

    def nadir(h):
        s = set_param(scenario, "system.pv.headroom", h)
        trace = run_simulation(s)
        return compute_frequency_metrics(trace, T_EVENT,
                                         f0=60.0).nadir_hz

    # independent oracle: exhaustive 0.0005-step sweep from zero upward
    h_sweep = 0.0
    while nadir(h_sweep) < target:
        h_sweep = round(h_sweep + 0.0005, 6)
        assert h_sweep <= query.h_max
    diff = abs(result.headroom - h_sweep)
    ok = (diff <= query.tolerance and result.n_runs <= 25
          and elapsed < 30.0)
    check("C9 headroom sizer", ok,
          f"bisection {result.headroom:.4f} vs sweep {h_sweep:.4f} "
          f"(|diff| {diff:.4f} <= {query.tolerance}); "
          f"{result.n_runs} runs (<=25); {elapsed:.2f}s (<30s)")


def test_c10_determinism_and_integrator_order():
    s = preset_scenario("ei80", controller="combined")
    sinks = []
    for _ in range(2):
        sink = io.StringIO()
        write_trace_csv(run_simulation(s), sink)
        sinks.append(sink.getvalue().encode())
    identical = sinks[0] == sinks[1]

    d_only = scenario_from_dict({
        "name": "d-only",
        "system": {"h_sys": 3.0, "d_load": 1.0, "governor": {"kappa": 0.0}},
        "controller": {"kind": "none"},
        "contingency": {"dp": 0.02, "t_event": T_EVENT},
    })

    def err(dt):
        sim = SimConfig(dt=dt, t_end=8.0, sample_interval=dt,
                        rocof_window=max(dt, 0.1))
        trace = run_simulation(d_only, sim=sim)
        idx = min(range(len(trace.t)),
                  key=lambda i: abs(trace.t[i] - 7.0))
        f_ref = 60.0 * (1.0 - 0.02 * (1.0 - math.exp(
            -(trace.t[idx] - T_EVENT) / 6.0)))
        return abs(trace.f_hz[idx] - f_ref)

    ratio = err(0.2) / err(0.1)
    ok = identical and ratio >= 8.0
    check("C10 determinism & order", ok,
          f"byte-identical traces: {identical}; error ratio dt 0.2->0.1: "
          f"{ratio:.1f}x (>=8)")


def test_c11_headroom_necessity():
    max_pv = -math.inf
    nadirs = {}
    for kind in ("droop", "combined"):
        s0 = set_param(preset_scenario("ercot80", kind),
                       "system.pv.headroom", 0.0)
        trace = run_simulation(s0)
        max_pv = max(max_pv, max(trace.dp_pv_pu))
        nadirs[0.0, kind] = compute_frequency_metrics(
            trace, T_EVENT, f0=60.0).nadir_hz
    s5 = set_param(preset_scenario("ercot80", "combined"),
                   "system.pv.headroom", 0.05)
    trace5 = run_simulation(s5)
    nadir5 = compute_frequency_metrics(trace5, T_EVENT, f0=60.0).nadir_hz
    ok = max_pv <= 0.0 and nadir5 > nadirs[0.0, "combined"]
    check("C11 headroom necessity", ok,
          f"h=0: max dp_pv {max_pv:.2e} (<=0); nadir(h=0.05) "
          f"{nadir5:.4f} > nadir(h=0) {nadirs[0.0, 'combined']:.4f} Hz")
