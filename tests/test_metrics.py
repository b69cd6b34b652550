import math

import pytest

from gridfreq.engine import SimConfig, Trace
from gridfreq.metrics import (NoResponseError, NotSettledError,
                              compare_controllers, compute_frequency_metrics,
                              compute_step_response_metrics, initial_rocof,
                              max_abs_rocof_within)
from gridfreq.pv import CONTROLLER_KINDS
from gridfreq.scenario import preset_scenario


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
        m = compute_frequency_metrics(trace, t_event=1.0)
        assert m.nadir_hz == 60.0
        assert m.nadir_time_s == 0.0  # first post-event sample
        assert m.max_abs_rocof_hz_per_s == 0.0
        assert m.settling_freq_hz == 60.0

    def test_nadir_is_post_event_minimum(self):
        f = [60.0] * 200 + [59.9] * 100 + [59.7] * 100 + [59.8] * 601
        trace = make_trace(f)
        m = compute_frequency_metrics(trace, t_event=2.0)
        assert m.nadir_hz == 59.7
        assert m.nadir_time_s == pytest.approx(3.0 - 2.0)

    def test_overfrequency_event_uses_maximum(self):
        f = [60.0] * 200 + [60.3] * 100 + [60.1] * 701
        trace = make_trace(f)
        m = compute_frequency_metrics(trace, t_event=2.0)
        assert m.nadir_hz == 60.3

    def test_linear_descent_rocof(self):
        # 60 -> 59.4 over 1.2 s: slope -0.5 Hz/s
        f = [60.0] * 100
        for k in range(120):
            f.append(60.0 - 0.5 * (k + 1) * 0.01)
        f += [59.4] * 800
        trace = make_trace(f)
        m = compute_frequency_metrics(trace, t_event=1.0)
        assert m.max_abs_rocof_hz_per_s == pytest.approx(0.5, rel=0.01)

    def test_settling_is_mean_of_tail(self):
        f = [60.0] * 500 + [59.9] * 501
        trace = make_trace(f)
        m = compute_frequency_metrics(trace, t_event=1.0)
        assert m.settling_freq_hz == pytest.approx(59.9)

    def test_short_trace_rejected(self):
        trace = make_trace([60.0] * 100)  # spans 1 s < settling window
        with pytest.raises(ValueError, match="settling window"):
            compute_frequency_metrics(trace, t_event=0.1)

    def test_event_after_trace_end_rejected(self):
        trace = make_trace([60.0] * 1001)
        with pytest.raises(ValueError, match="t_event"):
            compute_frequency_metrics(trace, t_event=20.0)
        with pytest.raises(ValueError):
            initial_rocof(trace, t_event=20.0)

    def test_settling_never_below_nadir_for_underfrequency(self):
        trace = make_trace([60.0] * 100 + [59.5] * 200 + [59.8] * 701)
        m = compute_frequency_metrics(trace, t_event=1.0)
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


def first_order(T, horizon, si=0.01):
    t = [i * si for i in range(round(horizon / si) + 1)]
    y = [1.0 - math.exp(-ti / T) for ti in t]
    return t, y


class TestStepResponseMetrics:
    @pytest.mark.parametrize("T, horizon", [(0.2, 8.0), (1.0, 30.0),
                                            (5.0, 120.0)])
    def test_first_order_closed_forms(self, T, horizon):
        si = 0.01
        t, y = first_order(T, horizon, si)
        m = compute_step_response_metrics(t, y, step_time=0.0)
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
        m = compute_step_response_metrics(t, y, step_time=0.0)
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
        m = compute_step_response_metrics(t, y, step_time=0.0)
        expected = math.exp(-math.pi * z / math.sqrt(1 - z * z))
        assert m.overshoot == pytest.approx(expected, abs=0.005)
        assert m.overshoot == pytest.approx(0.1630, abs=0.005)

    def test_zero_response_raises(self):
        t = [i * 0.01 for i in range(1000)]
        with pytest.raises(NoResponseError):
            compute_step_response_metrics(t, [0.0] * 1000, step_time=0.0)

    def test_unsettled_response_raises(self):
        # T=5 truncated at 20 s still moves > 0.5% of the change
        t, y = first_order(5.0, 20.0)
        with pytest.raises(NotSettledError):
            compute_step_response_metrics(t, y, step_time=0.0)

    def test_negative_step_direction(self):
        t = [i * 0.01 for i in range(3001)]
        y = [-(1.0 - math.exp(-ti)) for ti in t]
        m = compute_step_response_metrics(t, y, step_time=0.0)
        assert m.final_value == pytest.approx(-1.0, abs=1e-3)
        assert m.rise_time_s == pytest.approx(math.log(9.0), abs=0.02)
        assert m.overshoot == 0.0


class TestCompareControllers:
    def test_fixed_order_and_determinism(self):
        s = preset_scenario("ei80")
        sim = SimConfig(t_end=30.0)
        t1 = compare_controllers(s, sim=sim)
        t2 = compare_controllers(s, sim=sim)
        assert tuple(t1) == CONTROLLER_KINDS
        assert t1 == t2

    def test_droop_improves_nadir(self):
        s = preset_scenario("ercot80")
        table = compare_controllers(s, sim=SimConfig(t_end=30.0))
        assert table["droop"].nadir_hz > table["none"].nadir_hz

    def test_combined_delays_nadir(self):
        s = preset_scenario("ei80")
        table = compare_controllers(s, sim=SimConfig(t_end=30.0))
        assert (table["combined"].nadir_time_s
                > table["droop"].nadir_time_s)
