import math
import random
import time

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import gridfreq.headroom as headroom
from gridfreq.engine import run_simulation
from gridfreq.headroom import (HeadroomQuery, NonMonotoneError,
                               UnattainableError, bisect_min_headroom,
                               compare_controllers, min_headroom_for_nadir,
                               sweep_param)
from gridfreq.metrics import compute_frequency_metrics
from gridfreq.scenario import (CONTROLLER_KINDS, preset_scenario,
                               scenario_from_dict, set_param)


def preset(name, kind="none"):
    """A preset scenario under ``kind``, cut to a 30 s horizon."""
    return set_param(preset_scenario(name, kind), "sim.t_end", 30.0)


def bisect(nadir, target):
    """The bisection core over [0, 0.5] to 0.001, reading the pass bit
    from ``nadir`` itself."""
    return bisect_min_headroom(nadir, target, h_max=0.5, tolerance=0.001,
                               meets=lambda h: nadir(h) >= target)


class TestBisectionCore:
    def test_target_met_at_zero(self):
        assert bisect(lambda h: 59.9, target=59.5) == 0.0

    def test_unattainable(self):
        with pytest.raises(UnattainableError):
            bisect(lambda h: 59.0 + 0.2 * h, target=59.5)

    def test_non_monotone_probe_fails(self):
        def bumpy(h):
            return 59.4 + h - 0.8 * max(0.0, h - 0.2)

        # decreasing between h=0.25 and h=0.5 at the probe points
        with pytest.raises(NonMonotoneError):
            bisect(lambda h: 59.4 - h + 4 * h * (0.5 - h), target=59.5)
        assert bumpy(0.5) > bumpy(0.25) > bumpy(0.0)  # sanity: bumpy is fine

    def test_result_brackets_target(self):
        calls = []

        def nadir(h):
            calls.append(h)
            return 59.0 + 1.2 * h

        target = 59.5  # exact crossing at h = 0.41666...
        h = bisect(nadir, target)
        assert nadir(h) >= target
        assert nadir(h - 0.002) < target
        assert abs(h - 0.5 / 1.2) <= 0.001

    def test_run_budget(self):
        calls = []

        def nadir(h):
            calls.append(h)
            return 59.0 + 1.2 * h

        bisect(nadir, 59.5)
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

    def test_zero_probe_is_read_in_full_once_the_middle_passes(self):
        exact = []

        def nadir(h):
            exact.append(h)
            return 59.4 + 1.2 * h

        def meets(h):
            return 59.4 + 1.2 * h >= 59.5

        bisect_min_headroom(nadir, 59.5, h_max=0.5, tolerance=0.001,
                            meets=meets)
        assert exact == [0.5, 0.25, 0.0]
        # a bottom probe that meets the target is read exactly, so a
        # non-monotone h = 0 value is still caught
        with pytest.raises(NonMonotoneError):
            bisect_min_headroom(lambda h: 59.9 if h == 0.0 else 59.6,
                                59.5, h_max=0.5, tolerance=0.001,
                                meets=lambda h: True)


    def test_tolerance_below_float_spacing_ends(self):
        # Once lo and hi are adjacent floats, their midpoint is one of
        # them; the bisection must stop there instead of looping.
        calls = []

        def meets(h):
            calls.append(h)
            if len(calls) > 200:
                raise AssertionError("bisection did not end")
            return 59.0 + h >= 59.25

        h = bisect_min_headroom(lambda h: 59.0 + h, 59.25, h_max=0.5,
                                tolerance=1e-30, meets=meets)
        # the smallest float that meets the target
        assert 59.0 + math.nextafter(h, 0.0) < 59.25 <= 59.0 + h
        assert len(set(calls)) == len(calls)


class TestHint:
    """A hint orders the tests and nothing else: with any hint, the
    bisection core returns what it returns without one, on a monotone
    nadir, and tests each headroom at most once."""

    @staticmethod
    def search(t, h_max, tolerance, hint):
        """The answer for a rising nadir that jumps over a 60 Hz target
        at h = t, and the headrooms ``meets`` was asked about."""
        calls = []

        def nadir(h):
            return 59.0 + h + (h >= t)

        def meets(h):
            calls.append(h)
            return nadir(h) >= 60.0

        h = bisect_min_headroom(nadir, 60.0, h_max=h_max,
                                tolerance=tolerance, meets=meets,
                                hint=None if hint is None
                                else lambda nadir0: hint)
        return h, calls

    @settings(max_examples=60)
    @given(h_max=st.sampled_from((0.5, 0.3, 0.1)),
           tolerance=st.sampled_from((0.001, 1e-30)),
           u=st.floats(0.0, 1.0, exclude_min=True))
    def test_hint_cannot_change_the_answer(self, h_max, tolerance, u):
        t = u * h_max
        expected, plain = self.search(t, h_max, tolerance, None)
        cell = max(tolerance, math.ulp(t))
        hints = [-1.0, 0.0, h_max, 2.0 * h_max, math.nan, math.inf,
                 -math.inf] + [t + k * cell for k in
                               (-40, -5, -2, -1, 0, 1, 2, 5, 40)]
        # A hint far from the answer moves out 1, 2, 4, ... cells and then
        # bisects the last move: at most about twice plain bisection's
        # ceil(log2(h_max / tolerance)) tests.
        budget = 2 * math.ceil(math.log2(h_max / tolerance)) + 2
        assert len(plain) <= budget / 2
        for hint in hints:
            h, calls = self.search(t, h_max, tolerance, hint)
            assert h == expected, hint
            assert len(set(calls)) == len(calls) <= budget, hint
        # The exact hint finds the answer's bracket at once: two tests.
        assert len(self.search(t, h_max, tolerance, t)[1]) <= 2


class TestMinHeadroomForNadir:
    def test_ercot_combined_result_brackets_target(self):
        scenario = preset("ercot80", "combined")
        query = HeadroomQuery(scenario=scenario, controller="combined",
                              target_nadir_hz=59.5)
        result = min_headroom_for_nadir(query)
        assert 0.0 < result.headroom < 0.5
        assert result.n_runs <= 3 + math.ceil(math.log2(0.5 / 0.001))

        def nadir(h):
            s = set_param(scenario, "system.pv.headroom", h)
            trace = run_simulation(s)
            return compute_frequency_metrics(trace, 1.0, f0=60.0).nadir_hz

        assert nadir(result.headroom) >= 59.5
        assert nadir(max(result.headroom - 2 * query.tolerance, 0.0)) < 59.5

    def test_bisection_matches_the_sweep(self):
        scenario = preset("ercot80", "combined")
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
            return compute_frequency_metrics(trace, 1.0, f0=60.0).nadir_hz

        # independent oracle: exhaustive 0.0005-step sweep from zero upward
        h_sweep = 0.0
        while nadir(h_sweep) < target:
            h_sweep = round(h_sweep + 0.0005, 6)
            assert h_sweep <= query.h_max
        diff = abs(result.headroom - h_sweep)
        detail = (f"bisection {result.headroom:.4f} vs sweep "
                  f"{h_sweep:.4f} (|diff| {diff:.4f} <= {query.tolerance})"
                  f"; {result.n_runs} runs (<=25); {elapsed:.2f}s (<30s)")
        assert diff <= query.tolerance, detail
        assert result.n_runs <= 25, detail
        assert elapsed < 30.0, detail

    def test_trivial_target_needs_no_headroom(self):
        scenario = preset("ercot80")
        query = HeadroomQuery(scenario=scenario, controller="combined",
                              target_nadir_hz=58.0)
        result = min_headroom_for_nadir(query)
        assert result.headroom == result.volume_bound == 0.0

    def test_unattainable_target(self):
        scenario = preset("ercot80")
        query = HeadroomQuery(scenario=scenario, controller="combined",
                              target_nadir_hz=59.95)
        with pytest.raises(UnattainableError):
            min_headroom_for_nadir(query)

    def test_query_validation(self):
        scenario = preset_scenario("ercot80")
        with pytest.raises(ValueError, match=r"^tolerance must be below "
                                             r"h_max \(0\.5\), got 0\.6$"):
            HeadroomQuery(scenario=scenario, controller="combined",
                          target_nadir_hz=59.5, h_max=0.5, tolerance=0.6)
        with pytest.raises(ValueError,
                           match=r"^target_nadir_hz must be below "
                                 r"scenario\.system\.f0 \(60\.0\), got "
                                 r"61\.0$"):
            HeadroomQuery(scenario=scenario, controller="combined",
                          target_nadir_hz=61.0)

    @pytest.mark.parametrize("changes, message", [
        ({"h_max": 1.0}, r"^h_max must be in \(0, 1\), got 1\.0$"),
        pytest.param({"controller": "none"},
                     "^controller must be one of droop, inertia, "
                     "combined, got 'none'$",
                     id="changes1-'none' has no response"),
        pytest.param({"controller": "bogus"},
                     "^controller must be one of droop, inertia, "
                     "combined, got 'bogus'$",
                     id="changes2-unknown controller kind 'bogus'"),
    ])
    def test_query_owns_the_sizer_input_rules(self, changes, message):
        # Each of these used to pass the query and fail only once the
        # sizer ran simulations.
        fields = {"scenario": preset_scenario("ercot80"),
                  "controller": "combined", "target_nadir_hz": 59.5}
        with pytest.raises(ValueError, match=message):
            HeadroomQuery(**{**fields, **changes})

    def test_counts_runs_and_exact_values_separately(self, monkeypatch):
        calls = []

        def counted(s, **kwargs):
            calls.append((s.system.pv.headroom, kwargs["stop_below_hz"]))
            return run_simulation(s, **kwargs)

        monkeypatch.setattr(headroom, "run_simulation", counted)
        scenario = preset("ercot80", "combined")
        query = HeadroomQuery(scenario=scenario, controller="combined",
                              target_nadir_hz=59.5)
        result = min_headroom_for_nadir(query)
        assert result.n_runs == len(calls)
        assert len({h for h, _ in calls}) == len(calls)  # none runs twice
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
            assert value == post_event_min(scenario, h)


class TestVolumeBound:
    """The volume bound from the h = 0 run, against values that a 40-step
    bisection on the event size dp gives on the presets (20 s horizons).
    The bound is empirical: it holds while the grid's response to added
    power does not undershoot."""

    @pytest.mark.parametrize("name, target, bound", [
        ("ercot80", 59.3, 0.0344), ("ercot80", 59.5, 0.0532),
        ("ercot80", 59.6, 0.0625), ("ei80", 59.85, 0.0072),
        ("ei80", 59.9, 0.0123)])
    def test_bound_matches_presets_and_stays_below_the_answer(
            self, name, target, bound):
        scenario = set_param(preset_scenario(name), "sim.t_end", 20.0)
        for kind in ("droop", "combined"):
            query = HeadroomQuery(scenario=scenario, controller=kind,
                                  target_nadir_hz=target)
            result = min_headroom_for_nadir(query)
            assert result.volume_bound == pytest.approx(bound, abs=1e-4)
            assert result.volume_bound <= result.headroom + query.tolerance

    # No shrinking, as in TestMonotoneNadir: each example is a sizing.
    @settings(max_examples=40, phases=[Phase.generate])
    @given(preset=st.sampled_from(("ei80", "ercot80")),
           kind=st.sampled_from(("droop", "combined")),
           h_sys=st.floats(1.0, 6.0), dp=st.floats(0.005, 0.06),
           c_pv=st.floats(0.1, 0.8), depth=st.floats(0.1, 0.9))
    def test_bound_stays_below_the_answer_beyond_the_presets(
            self, preset, kind, h_sys, dp, c_pv, depth):
        # The target lies ``depth`` of the way from f0 down to the nadir
        # without PV support; an unattainable target has no answer to
        # bound.
        scenario = scenario_from_dict({
            "preset": preset, "system": {"h_sys": h_sys, "pv": {"c_pv": c_pv}},
            "contingency": {"dp": dp}, "sim": {"t_end": 20.0}})
        f0 = scenario.system.f0
        target = f0 - depth * (f0 - post_event_min(scenario, 0.0))
        query = HeadroomQuery(scenario=scenario, controller=kind,
                              target_nadir_hz=target)
        try:
            result = min_headroom_for_nadir(query)
        except UnattainableError:
            return
        assert result.volume_bound <= result.headroom + query.tolerance


def post_event_min(scenario, h):
    s = set_param(scenario, "system.pv.headroom", h)
    trace = run_simulation(s)
    return min(f for t, f in zip(trace.t, trace.f_hz)
               if t >= s.contingency.t_event)


def plain_bisection(query, memo):
    """Full-run bisection as the sizer did it before any shortcut: probe
    0, h_max/2 and h_max, check monotonicity, then bisect."""
    runs = set()

    def nadir(h):
        runs.add(h)
        if h not in memo:
            memo[h] = post_event_min(query.scenario, h)
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
            "sim": {"t_end": 12.0},
        })
        # A small h_max puts some answers above h_max / 2, where the
        # middle probe fails with its limit bound.
        h_max = (0.5, 0.1)[(i // 3) % 2]
        yield scenario, kind, h_max, rng.uniform(-0.15, 1.15)


class TestDifferential:
    def test_sizer_equals_plain_bisection(self):
        saved_runs = saved_values = 0
        outcomes = set()
        for scenario, kind, h_max, u in differential_queries():
            memo = {}
            lo = post_event_min(scenario, 0.0)
            hi = post_event_min(scenario, h_max)
            memo.update({0.0: lo, h_max: hi})
            query = HeadroomQuery(scenario=scenario, controller=kind,
                                  target_nadir_hz=lo + u * (hi - lo),
                                  h_max=h_max, tolerance=0.002)
            expected, plain_runs = plain_bisection(query, memo)
            try:
                result = min_headroom_for_nadir(query)
            except (UnattainableError, NonMonotoneError) as exc:
                assert type(exc) is expected
                outcomes.add(expected.__name__)
                continue
            assert result.headroom == expected
            for h, value in result.evaluations.items():
                # The hinted search may record a headroom that plain
                # bisection never probed.
                assert value == (memo[h] if h in memo
                                 else post_event_min(scenario, h))
            # Plain bisection runs every headroom it probes in full. The
            # sizer records no more values and makes no more runs than that.
            fewer_values = plain_runs - len(result.evaluations)
            fewer_runs = plain_runs - result.n_runs
            assert fewer_values >= 0 and fewer_runs >= 0
            saved_runs += fewer_runs > 0
            saved_values += fewer_values > 0
            outcomes.add("h0" if expected == 0.0 else
                         "upper half" if expected > h_max / 2.0 else "bisect")
        # Some queries saved runs and some recorded fewer values than
        # plain bisection ran, and every answer kind was exercised.
        assert saved_runs > 0 and saved_values > 0
        assert {"h0", "bisect", "upper half", "UnattainableError"} \
            <= outcomes


class TestSweepParam:
    def test_h_sys_sweep_is_monotone(self):
        scenario = preset("ei80")
        rows = sweep_param(scenario, "system.h_sys", [2.0, 3.0, 4.0])
        assert [v for v, _ in rows] == [2.0, 3.0, 4.0]
        nadirs = [m.nadir_hz for _, m in rows]
        assert nadirs == sorted(nadirs)

    def test_empty_values(self):
        scenario = preset("ei80")
        assert sweep_param(scenario, "system.h_sys", []) == []

    def test_unknown_path_lists_valid_paths(self):
        scenario = preset("ei80")
        with pytest.raises(ValueError, match="system.h_sys"):
            sweep_param(scenario, "nonexistent", [1.0])

    def test_bad_value_is_rejected_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(headroom, "run_simulation", runs.append)
        with pytest.raises(ValueError, match="^system.h_sys must be a "
                                             "number, got 'abc'$"):
            sweep_param(preset("ei80"), "system.h_sys", [2.0, "abc"])
        assert runs == []

    def test_sweep_is_deterministic(self):
        scenario = preset("ercot80", "droop")
        rows1 = sweep_param(scenario, "system.pv.headroom", [0.0, 0.05])
        rows2 = sweep_param(scenario, "system.pv.headroom", [0.0, 0.05])
        assert rows1 == rows2


class TestCompareControllers:
    def test_fixed_order_and_determinism(self):
        s = preset("ei80")
        t1 = compare_controllers(s)
        t2 = compare_controllers(s)
        assert tuple(t1) == CONTROLLER_KINDS
        assert t1 == t2


@st.composite
def sized_scenarios(draw):
    """A scenario from the sizer's domain: either preset, a responsive
    kind, the recovery clamp on or off and an optional rate limit."""
    return scenario_from_dict({
        "preset": draw(st.sampled_from(("ei80", "ercot80"))),
        "system": {"pv": {"rate_limit": draw(
            st.one_of(st.none(), st.floats(0.2, 2.0)))}},
        "controller": {
            "kind": draw(st.sampled_from(("droop", "inertia", "combined"))),
            "droop": {"r": draw(st.floats(0.03, 0.08)),
                      "deadband": draw(st.floats(0.0, 0.001))},
            "inertia": {"k": draw(st.floats(5.0, 15.0)),
                        "recovery_clamp": draw(st.booleans())}},
        "sim": {"t_end": 15.0},
    })


class TestMonotoneNadir:
    """The sizer's bisection and its reuse of unclamped runs assume that
    the post-event minimum frequency never falls as headroom grows, and
    its probe checks only three headrooms."""

    # No shrinking: each example is six or more runs, and shrinking a
    # failure took minutes; the failing example is reported as drawn.
    @settings(max_examples=40, phases=[Phase.generate])
    @given(scenario=sized_scenarios(),
           inner=st.lists(st.floats(0.0, 0.45, exclude_min=True,
                                    exclude_max=True),
                          min_size=4, max_size=6, unique=True))
    def test_nadir_non_decreasing_in_headroom(self, scenario, inner):
        headrooms = sorted({0.0, 0.45, *inner})
        assert len(headrooms) >= 6
        nadirs = [post_event_min(scenario, h) for h in headrooms]
        assert all(a <= b + 1e-9 for a, b in zip(nadirs, nadirs[1:])), \
            list(zip(headrooms, nadirs))
