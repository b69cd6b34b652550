import math
import random

import pytest

import gridfreq.headroom as headroom
from gridfreq.engine import SimConfig, run_simulation
from gridfreq.headroom import (HeadroomQuery, NonMonotoneError,
                               UnattainableError, bisect_min_headroom,
                               min_headroom_for_nadir, sweep_param)
from gridfreq.metrics import compute_frequency_metrics
from gridfreq.scenario import preset_scenario, scenario_from_dict, set_param

SIM = SimConfig(t_end=30.0)


class TestBisectionCore:
    def test_target_met_at_zero(self):
        assert bisect_min_headroom(lambda h: 59.9, target=59.5,
                                   h_max=0.5, tolerance=0.001) == 0.0

    def test_unattainable(self):
        with pytest.raises(UnattainableError):
            bisect_min_headroom(lambda h: 59.0 + 0.2 * h, target=59.5,
                                h_max=0.5, tolerance=0.001)

    def test_non_monotone_probe_fails(self):
        def bumpy(h):
            return 59.4 + h - 0.8 * max(0.0, h - 0.2)

        # decreasing between h=0.25 and h=0.5 at the probe points
        with pytest.raises(NonMonotoneError):
            bisect_min_headroom(lambda h: 59.4 - h + 4 * h * (0.5 - h),
                                target=59.5, h_max=0.5, tolerance=0.001)
        assert bumpy(0.5) > bumpy(0.25) > bumpy(0.0)  # sanity: bumpy is fine

    def test_result_brackets_target(self):
        calls = []

        def nadir(h):
            calls.append(h)
            return 59.0 + 1.2 * h

        target = 59.5  # exact crossing at h = 0.41666...
        h = bisect_min_headroom(nadir, target, h_max=0.5, tolerance=0.001)
        assert nadir(h) >= target
        assert nadir(h - 0.002) < target
        assert abs(h - 0.5 / 1.2) <= 0.001

    def test_run_budget(self):
        calls = []

        def nadir(h):
            calls.append(h)
            return 59.0 + 1.2 * h

        bisect_min_headroom(nadir, 59.5, h_max=0.5, tolerance=0.001)
        # 3-point probe plus at most ceil(log2(h_max / tolerance)) splits
        assert len(calls) <= 3 + math.ceil(math.log2(0.5 / 0.001))

    def test_midpoints_use_the_pass_bit_only(self):
        exact = []

        def nadir(h):
            exact.append(h)
            return 59.0 + 1.2 * h

        h = bisect_min_headroom(nadir, 59.5, h_max=0.5, tolerance=0.001,
                                meets=lambda h: 59.0 + 1.2 * h >= 59.5)
        assert exact == [0.5, 0.25, 0.0]
        assert abs(h - 0.5 / 1.2) <= 0.001

    def test_zero_probe_uses_the_pass_bit_once_the_middle_passes(self):
        exact = []

        def nadir(h):
            exact.append(h)
            return 59.4 + 1.2 * h

        def meets(h):
            return 59.4 + 1.2 * h >= 59.5

        bisect_min_headroom(nadir, 59.5, h_max=0.5, tolerance=0.001,
                            meets=meets)
        assert exact == [0.5, 0.25]
        # a bottom probe that meets the target is still read exactly, so
        # a non-monotone h = 0 value is still caught
        with pytest.raises(NonMonotoneError):
            bisect_min_headroom(lambda h: 59.9 if h == 0.0 else 59.6,
                                59.5, h_max=0.5, tolerance=0.001,
                                meets=lambda h: True)


class TestMinHeadroomForNadir:
    def test_ercot_combined_result_brackets_target(self):
        scenario = preset_scenario("ercot80")
        query = HeadroomQuery(scenario=scenario, controller="combined",
                              target_nadir_hz=59.5)
        result = min_headroom_for_nadir(query, sim=SIM)
        assert 0.0 < result.headroom < 0.5
        assert result.n_runs <= 3 + math.ceil(math.log2(0.5 / 0.001))

        def nadir(h):
            s = set_param(scenario, "system.pv.headroom", h)
            trace = run_simulation(s, controller="combined", sim=SIM)
            return compute_frequency_metrics(trace, 1.0).nadir_hz

        assert nadir(result.headroom) >= 59.5
        assert nadir(max(result.headroom - 2 * query.tolerance, 0.0)) < 59.5

    def test_trivial_target_needs_no_headroom(self):
        scenario = preset_scenario("ercot80")
        query = HeadroomQuery(scenario=scenario, controller="combined",
                              target_nadir_hz=58.0)
        result = min_headroom_for_nadir(query, sim=SIM)
        assert result.headroom == 0.0

    def test_unattainable_target(self):
        scenario = preset_scenario("ercot80")
        query = HeadroomQuery(scenario=scenario, controller="combined",
                              target_nadir_hz=59.95)
        with pytest.raises(UnattainableError):
            min_headroom_for_nadir(query, sim=SIM)

    def test_query_validation(self):
        scenario = preset_scenario("ercot80")
        with pytest.raises(ValueError):
            HeadroomQuery(scenario=scenario, controller="combined",
                          target_nadir_hz=59.5, h_max=0.5, tolerance=0.6)
        with pytest.raises(ValueError):
            HeadroomQuery(scenario=scenario, controller="combined",
                          target_nadir_hz=61.0)

    def test_counts_runs_and_exact_values_separately(self, monkeypatch):
        calls = []

        def counted(s, **kwargs):
            calls.append((s.system.pv.headroom, kwargs["stop_below_hz"]))
            return run_simulation(s, **kwargs)

        monkeypatch.setattr(headroom, "run_simulation", counted)
        scenario = preset_scenario("ercot80")
        query = HeadroomQuery(scenario=scenario, controller="combined",
                              target_nadir_hz=59.5)
        result = min_headroom_for_nadir(query, sim=SIM)
        assert result.n_runs == len(calls)
        # The h_max run never touches its limits, so the h_max/2 probe
        # (above its peak command) is answered without a run.
        assert calls[0] == (0.5, None)
        assert 0.25 in result.evaluations
        assert 0.25 not in [h for h, _ in calls]
        # Failing midpoints stop at the crossing and are not recorded.
        stopped = [h for h, stop in calls if h not in result.evaluations]
        assert stopped and all(stop == 59.5 for h, stop in calls
                               if h in stopped)
        for h, value in result.evaluations.items():
            assert value == post_event_min(scenario, "combined", h, SIM)


def post_event_min(scenario, controller, h, sim):
    s = set_param(scenario, "system.pv.headroom", h)
    trace = run_simulation(s, controller=controller, sim=sim)
    return min(f for t, f in zip(trace.t, trace.f_hz)
               if t >= s.contingency.t_event)


def plain_bisection(query, sim, memo):
    """Full-run bisection as the sizer did it before any shortcut: probe
    0, h_max/2 and h_max, check monotonicity, then bisect."""
    runs = set()

    def nadir(h):
        runs.add(h)
        if h not in memo:
            memo[h] = post_event_min(query.scenario, query.controller, h,
                                     sim)
        return memo[h]

    target, h_max = query.target_nadir_hz, query.h_max
    v0, v1, v2 = nadir(0.0), nadir(h_max / 2.0), nadir(h_max)
    if not (v0 <= v1 + 1e-9 and v1 <= v2 + 1e-9):
        return NonMonotoneError, len(runs)
    if v0 >= target:
        return 0.0, len(runs)
    if v2 < target:
        return UnattainableError, len(runs)
    lo, hi = (0.0, h_max / 2.0) if v1 >= target else (h_max / 2.0, h_max)
    while hi - lo > query.tolerance:
        mid = 0.5 * (lo + hi)
        if nadir(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi, len(runs)


def differential_queries(n=24, seed=2020):
    rng = random.Random(seed)
    sim = SimConfig(t_end=12.0)
    for i in range(n):
        preset = ("ei80", "ercot80")[i % 2]
        kind = ("droop", "inertia", "combined")[(i // 2) % 3]
        pv = {}
        if (i // 6) % 2:
            pv["rate_limit"] = round(rng.uniform(0.2, 2.0), 6)
        scenario = scenario_from_dict({
            "preset": preset,
            "system": {"pv": pv},
            "controller": {
                "kind": kind,
                "droop": {"r": round(rng.uniform(0.04, 0.06), 6)},
                "inertia": {"k": round(rng.uniform(8.0, 12.0), 6),
                            "recovery_clamp": (i // 12) % 2 == 1}},
        })
        # A small h_max puts some answers above h_max / 2, where the
        # middle probe fails with its limit bound.
        h_max = (0.5, 0.1)[(i // 3) % 2]
        yield scenario, kind, sim, h_max, rng.uniform(-0.15, 1.15)


class TestDifferential:
    def test_sizer_equals_plain_bisection(self):
        reused = stopped = 0
        outcomes = set()
        for scenario, kind, sim, h_max, u in differential_queries():
            memo = {}
            lo = post_event_min(scenario, kind, 0.0, sim)
            hi = post_event_min(scenario, kind, h_max, sim)
            memo.update({0.0: lo, h_max: hi})
            query = HeadroomQuery(scenario=scenario, controller=kind,
                                  target_nadir_hz=lo + u * (hi - lo),
                                  h_max=h_max, tolerance=0.002)
            expected, plain_runs = plain_bisection(query, sim, memo)
            try:
                result = min_headroom_for_nadir(query, sim=sim)
            except (UnattainableError, NonMonotoneError) as exc:
                assert type(exc) is expected
                outcomes.add(expected.__name__)
                continue
            assert result.headroom == expected
            for h, value in result.evaluations.items():
                assert value == memo[h]
            # Both probe the same headrooms; each one the sizer probed is
            # either recorded (run or reused) or was a stopped run.
            n_stopped = plain_runs - len(result.evaluations)
            n_reused = plain_runs - result.n_runs
            assert n_stopped >= 0 and n_reused >= 0
            reused += n_reused > 0
            stopped += n_stopped > 0
            outcomes.add("h0" if expected == 0.0 else
                         "upper half" if expected > h_max / 2.0 else "bisect")
        # Every shortcut and every answer kind was exercised.
        assert reused > 0 and stopped > 0
        assert {"h0", "bisect", "upper half", "UnattainableError"} \
            <= outcomes


class TestSweepParam:
    def test_h_sys_sweep_is_monotone(self):
        scenario = preset_scenario("ei80")
        rows = sweep_param(scenario, "none", "system.h_sys",
                           [2.0, 3.0, 4.0], sim=SIM)
        assert [v for v, _ in rows] == [2.0, 3.0, 4.0]
        nadirs = [m.nadir_hz for _, m in rows]
        assert nadirs == sorted(nadirs)

    def test_empty_values(self):
        scenario = preset_scenario("ei80")
        assert sweep_param(scenario, "none", "system.h_sys", [],
                           sim=SIM) == []

    def test_unknown_path_lists_valid_paths(self):
        scenario = preset_scenario("ei80")
        with pytest.raises(ValueError, match="system.h_sys"):
            sweep_param(scenario, "none", "nonexistent", [1.0], sim=SIM)

    def test_sweep_is_deterministic(self):
        scenario = preset_scenario("ercot80")
        rows1 = sweep_param(scenario, "droop", "system.pv.headroom",
                            [0.0, 0.05], sim=SIM)
        rows2 = sweep_param(scenario, "droop", "system.pv.headroom",
                            [0.0, 0.05], sim=SIM)
        assert rows1 == rows2
