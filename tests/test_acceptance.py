"""Acceptance suite: one test per claim of the paper, C1-C4, on both
presets, each printing a single PASS/FAIL line with the measured values
(run with ``pytest -s`` to see the lines on success). Every other check
lives with the module it exercises."""

import time

import pytest

from gridfreq.engine import run_simulation
from gridfreq.headroom import compare_controllers
from gridfreq.scenario import preset_scenario
from trace_probes import max_abs_rocof_within

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
