import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfreq.compliance import StepResponse, evaluate_compliance
from gridfreq.engine import Trace, run_simulation
from gridfreq.headroom import compare_controllers
from gridfreq.metrics import (_first_index_at_or_after,
                              compute_frequency_metrics)
from gridfreq.scenario import CONTROLLER_KINDS, preset_scenario, set_param
from trace_probes import initial_rocof, max_abs_rocof_within


def make_trace(f_values, sample_interval=0.01, rocof_window=0.1):
    """Trace with the documented windowed end-difference rocof column."""
    trace = Trace()
    w = max(1, round(rocof_window / sample_interval))
    for k, f in enumerate(f_values):
        trace.t.append(k * sample_interval)
        trace.f_hz.append(f)
        trace.dp_gov_pu.append(0.0)
        trace.dp_pv_pu.append(0.0)
        trace.dp_pv_droop_pu.append(0.0)
        trace.dp_pv_inertia_pu.append(0.0)
    for k in range(len(trace.t)):
        if k == 0:
            trace.rocof_hz_per_s.append(0.0)
            continue
        j = max(0, k - w)
        trace.rocof_hz_per_s.append(
            (trace.f_hz[k] - trace.f_hz[j]) / (trace.t[k] - trace.t[j]))
    return trace


class TestFrequencyMetrics:
    def test_flat_trace(self):
        trace = make_trace([60.0] * 1001)
        m = compute_frequency_metrics(trace, t_event=1.0, f0=60.0)
        assert m.nadir_hz == 60.0
        assert m.nadir_time_s == 0.0  # first post-event sample
        assert m.max_abs_rocof_hz_per_s == 0.0
        assert m.settling_freq_hz == 60.0

    def test_nadir_is_post_event_minimum(self):
        f = [60.0] * 200 + [59.9] * 100 + [59.7] * 100 + [59.8] * 601
        trace = make_trace(f)
        m = compute_frequency_metrics(trace, t_event=2.0, f0=60.0)
        assert m.nadir_hz == 59.7
        assert m.nadir_time_s == pytest.approx(3.0 - 2.0)

    def test_overfrequency_event_uses_maximum(self):
        f = [60.0] * 200 + [60.3] * 100 + [60.1] * 701
        trace = make_trace(f)
        m = compute_frequency_metrics(trace, t_event=2.0, f0=60.0)
        assert m.nadir_hz == 60.3

    def test_linear_descent_rocof(self):
        # 60 -> 59.4 over 1.2 s: slope -0.5 Hz/s
        f = [60.0] * 100
        for k in range(120):
            f.append(60.0 - 0.5 * (k + 1) * 0.01)
        f += [59.4] * 800
        trace = make_trace(f)
        m = compute_frequency_metrics(trace, t_event=1.0, f0=60.0)
        assert m.max_abs_rocof_hz_per_s == pytest.approx(0.5, rel=0.01)

    def test_settling_is_mean_of_tail(self):
        f = [60.0] * 500 + [59.9] * 501
        trace = make_trace(f)
        m = compute_frequency_metrics(trace, t_event=1.0, f0=60.0)
        assert m.settling_freq_hz == pytest.approx(59.9)

    def test_short_trace_rejected(self):
        trace = make_trace([60.0] * 100)  # spans 1 s < settling window
        with pytest.raises(ValueError, match="settling window"):
            compute_frequency_metrics(trace, t_event=0.1, f0=60.0)

    def test_event_after_trace_end_rejected(self):
        trace = make_trace([60.0] * 1001)
        with pytest.raises(ValueError, match="t_event"):
            compute_frequency_metrics(trace, t_event=20.0, f0=60.0)
        with pytest.raises(ValueError, match="t_event"):
            compute_frequency_metrics(trace, t_event=math.nan, f0=60.0)
        with pytest.raises(ValueError):
            initial_rocof(trace, t_event=20.0)
        m = compute_frequency_metrics(trace, t_event=trace.t[-1], f0=60.0)
        assert m.nadir_time_s == 0.0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(t=st.lists(st.floats(-10.0, 10.0), max_size=20).map(sorted),
           value=st.floats(-11.0, 11.0), near=st.booleans())
    def test_first_sample_search_equals_linear_scan(self, t, value, near):
        if near and t:  # a value within the 1e-12 tolerance of a sample
            value = t[len(t) // 2] + 1e-12
        linear = next((i for i, ti in enumerate(t) if ti >= value - 1e-12),
                      len(t))
        assert _first_index_at_or_after(array("d", t), value) == linear

    def test_settling_never_below_nadir_for_underfrequency(self):
        trace = make_trace([60.0] * 100 + [59.5] * 200 + [59.8] * 701)
        m = compute_frequency_metrics(trace, t_event=1.0, f0=60.0)
        assert m.settling_freq_hz >= m.nadir_hz

    def test_initial_rocof_single_interval(self):
        f = [60.0] * 101 + [59.99] + [59.98] * 899
        trace = make_trace(f)
        assert initial_rocof(trace, t_event=1.0) == pytest.approx(-1.0)

    def test_max_abs_rocof_within_window(self):
        f = [60.0] * 100
        for k in range(200):
            f.append(60.0 - 0.2 * (k + 1) * 0.01)
        f += [59.6] * 701
        trace = make_trace(f)
        assert max_abs_rocof_within(trace, 1.0, 0.5) == pytest.approx(
            0.2, rel=0.01)
        assert max_abs_rocof_within(trace, 10.0, 0.5) == 0.0

    def test_overfrequency_on_a_50_hz_grid(self):
        # Measured from 60 Hz, every sample of this 50 Hz trace is an
        # underfrequency and the extreme would be the pre-peak 50.0 Hz at
        # the event; measured from the grid's own f0 it is the peak.
        s = preset_scenario("ei80", "droop")
        for path, value in (("system.f0", 50.0), ("contingency.dp", -0.009),
                            ("sim.t_end", 30.0)):
            s = set_param(s, path, value)
        trace = run_simulation(s)
        m = compute_frequency_metrics(trace, s.contingency.t_event,
                                      f0=s.system.f0)
        assert m.nadir_hz == pytest.approx(50.0722, abs=5e-5)
        assert m.nadir_time_s == pytest.approx(1.27, abs=1e-9)
        with pytest.raises(TypeError, match="f0"):
            compute_frequency_metrics(trace, s.contingency.t_event)


def first_order(T, horizon, si=0.01):
    t = [i * si for i in range(round(horizon / si) + 1)]
    y = [1.0 - math.exp(-ti / T) for ti in t]
    return t, y


def grade(t, y, step_time=0.0):
    """The compliance report of a sampled response, default thresholds."""
    return evaluate_compliance(StepResponse(t, y, step_time, 0.002))


class TestStepResponseMetrics:
    @pytest.mark.parametrize("T, horizon", [(0.2, 8.0), (1.0, 30.0),
                                            (5.0, 120.0)])
    def test_first_order_closed_forms(self, T, horizon):
        si = 0.01
        t, y = first_order(T, horizon, si)
        m = grade(t, y).metrics
        tol = 2 * si
        assert m.reaction_time_s == pytest.approx(-T * math.log(0.98),
                                                  abs=tol)
        assert m.rise_time_s == pytest.approx(T * math.log(9.0), abs=tol)
        assert m.settling_time_s == pytest.approx(-T * math.log(0.025),
                                                  abs=tol)
        assert m.overshoot == 0.0
        assert m.final_value == pytest.approx(1.0, abs=1e-3)

    def test_first_order_unit_values(self):
        t, y = first_order(1.0, 30.0)
        m = grade(t, y).metrics
        assert m.reaction_time_s == pytest.approx(0.0202, abs=0.02)
        assert m.rise_time_s == pytest.approx(2.1972, abs=0.02)
        assert m.settling_time_s == pytest.approx(3.6889, abs=0.02)

    def test_second_order_overshoot(self):
        z, wn = 0.5, 1.0
        wd = wn * math.sqrt(1 - z * z)
        si = 0.01
        t = [i * si for i in range(4001)]
        y = [1 - math.exp(-z * wn * ti)
             * (math.cos(wd * ti) + z / wd * math.sin(wd * ti))
             for ti in t]
        m = grade(t, y).metrics
        expected = math.exp(-math.pi * z / math.sqrt(1 - z * z))
        assert m.overshoot == pytest.approx(expected, abs=0.005)
        assert m.overshoot == pytest.approx(0.1630, abs=0.005)

    def test_zero_response_is_no_response(self):
        t = [i * 0.01 for i in range(1000)]
        report = grade(t, [0.0] * 1000)
        assert report.failure_reason == "no_response"
        assert report.metrics is None

    def test_unsettled_response_is_not_settled(self):
        # T=5 truncated at 20 s still moves > 0.5% of the change
        t, y = first_order(5.0, 20.0)
        report = grade(t, y)
        assert report.failure_reason == "not_settled"
        assert report.metrics is None

    def test_negative_step_direction(self):
        t = [i * 0.01 for i in range(3001)]
        y = [-(1.0 - math.exp(-ti)) for ti in t]
        m = grade(t, y).metrics
        assert m.final_value == pytest.approx(-1.0, abs=1e-3)
        assert m.rise_time_s == pytest.approx(math.log(9.0), abs=0.02)
        assert m.overshoot == 0.0


class TestCompareControllers:
    def test_fixed_order_and_determinism(self):
        s = set_param(preset_scenario("ei80"), "sim.t_end", 30.0)
        t1 = compare_controllers(s)
        t2 = compare_controllers(s)
        assert tuple(t1) == CONTROLLER_KINDS
        assert t1 == t2

    def test_droop_improves_nadir(self):
        s = set_param(preset_scenario("ercot80"), "sim.t_end", 30.0)
        table = compare_controllers(s)
        assert table["droop"].nadir_hz > table["none"].nadir_hz

    def test_combined_delays_nadir(self):
        s = set_param(preset_scenario("ei80"), "sim.t_end", 30.0)
        table = compare_controllers(s)
        assert (table["combined"].nadir_time_s
                > table["droop"].nadir_time_s)
