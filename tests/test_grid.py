import math

import pytest

from gridfreq.engine import run_simulation, steady_state_deviation
from gridfreq.scenario import (Contingency, ControllerSpec, DroopConfig,
                               GovernorFleet, Scenario, ScenarioError,
                               SimConfig, SystemParams, preset_scenario,
                               set_param)


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


class TestPresets:
    def test_ei80_values(self):
        s = preset_scenario("ei80")
        assert s.system.h_sys == 2.0
        assert s.system.d_load == 1.0
        assert s.contingency.dp == 0.009

    def test_ercot80_values(self):
        s = preset_scenario("ercot80")
        assert s.system.h_sys == 1.5
        assert s.contingency.dp == 0.04

    def test_unknown_preset_rejected(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            preset_scenario("wecc")

    def test_error_lists_valid_presets(self):
        with pytest.raises(ScenarioError,
                           match="valid presets: ei80, ercot80$"):
            preset_scenario("wecc")

    def test_preset_table_complete(self):
        # Every preset the error names builds a valid scenario.
        with pytest.raises(ScenarioError) as info:
            preset_scenario("wecc")
        names = str(info.value).split("valid presets: ")[1].split(", ")
        for name in names:
            s = preset_scenario(name)
            assert s.system.h_sys > 0
            assert s.contingency.dp > 0


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
