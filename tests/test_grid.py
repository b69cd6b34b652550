import math

import pytest

from gridfreq.engine import SimConfig, run_simulation
from gridfreq.grid import (Contingency, GovernorFleet, PRESETS,
                           SystemParams, preset_params,
                           steady_state_deviation)
from gridfreq.scenario import preset_scenario, set_param


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

    def test_invalid_fleet(self):
        with pytest.raises(ValueError):
            GovernorFleet(kappa=1.5)
        with pytest.raises(ValueError):
            GovernorFleet(r_gov=0.0)
        with pytest.raises(ValueError):
            GovernorFleet(t_gov=-1.0)


class TestSteadyStateDeviation:
    def test_without_pv(self):
        params = SystemParams(h_sys=3.0, d_load=1.0)
        dev = steady_state_deviation(params, 0.02)
        assert dev == pytest.approx(-0.0028571, abs=1e-7)
        assert dev * 60.0 == pytest.approx(-0.17143, abs=1e-5)

    def test_with_pv_droop(self):
        params = SystemParams(h_sys=3.0, d_load=1.0)
        dev = steady_state_deviation(params, 0.02, include_pv_droop=True,
                                     r_droop=0.05)
        # denominator 0.3/0.05 + 1 + 0.4/0.05 = 15
        assert dev == pytest.approx(-0.0013333, abs=1e-7)
        assert dev * 60.0 == pytest.approx(-0.08, abs=1e-5)

    def test_zero_disturbance(self):
        params = SystemParams(h_sys=3.0)
        assert steady_state_deviation(params, 0.0) == 0.0

    def test_zero_denominator_rejected(self):
        params = SystemParams(
            h_sys=3.0, d_load=0.0,
            governor=GovernorFleet(kappa=0.0))
        with pytest.raises(ValueError, match="no responsive"):
            steady_state_deviation(params, 0.02)

    @pytest.mark.parametrize("dp", [math.nan, math.inf, -math.inf])
    def test_non_finite_disturbance_rejected(self, dp):
        with pytest.raises(ValueError, match=r"^dp must be finite, got "):
            steady_state_deviation(SystemParams(h_sys=3.0), dp)

    @pytest.mark.parametrize("r_droop", [math.nan, math.inf, -math.inf,
                                         0.0])
    def test_droop_outside_open_interval_rejected(self, r_droop):
        # r_droop=inf used to drop the PV droop term without a word
        with pytest.raises(ValueError, match=r"^r_droop must be > 0 and "
                                             r"finite, got "):
            steady_state_deviation(SystemParams(h_sys=3.0), 0.02,
                                   include_pv_droop=True, r_droop=r_droop)


class TestPresets:
    def test_ei80_values(self):
        system, contingency = preset_params("ei80")
        assert system.h_sys == 2.0
        assert system.d_load == 1.0
        assert contingency.dp == 0.009

    def test_ercot80_values(self):
        system, contingency = preset_params("ercot80")
        assert system.h_sys == 1.5
        assert contingency.dp == 0.04

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_params("wecc")

    def test_error_lists_valid_presets(self):
        with pytest.raises(ValueError, match="ei80"):
            preset_params("wecc")

    def test_preset_table_complete(self):
        for name in PRESETS:
            system, contingency = preset_params(name)
            assert system.h_sys > 0
            assert contingency.dp > 0


class TestParamValidation:
    def test_h_sys_positive(self):
        with pytest.raises(ValueError, match="h_sys must be > 0"):
            SystemParams(h_sys=-1.0)

    def test_d_load_non_negative(self):
        with pytest.raises(ValueError):
            SystemParams(h_sys=2.0, d_load=-0.1)

    def test_t_event_non_negative(self):
        with pytest.raises(ValueError):
            Contingency(dp=0.01, t_event=-1.0)
