import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfreq.pv import (CombinedController, ControllerSpec, DroopConfig,
                         DroopController, InertiaConfig, InertiaController,
                         PVPlant, PVPlantConfig, make_controller,
                         validate_kind)


def settle(controller, delta_f, dt=0.005, seconds=25.0):
    out = 0.0
    for _ in range(round(seconds / dt)):
        out = controller.step(delta_f, dt)
    return out


class TestDroopController:
    def test_steady_state_underfrequency(self):
        ctl = DroopController(DroopConfig(r=0.05, deadband=0.0006))
        assert settle(ctl, -0.002) == pytest.approx(0.028, abs=1e-9)

    def test_inside_deadband(self):
        ctl = DroopController(DroopConfig(r=0.05, deadband=0.0006))
        assert settle(ctl, 0.0004) == 0.0

    def test_odd_symmetry(self):
        ctl = DroopController(DroopConfig(r=0.05, deadband=0.0006))
        assert settle(ctl, 0.002) == pytest.approx(-0.028, abs=1e-9)

    def test_steady_gain_linear_in_deviation(self):
        """Settled magnitude is (|df| - band)/r over a grid of deviations."""
        cfg = DroopConfig(r=0.04, deadband=0.0005)
        for i in range(1, 11):
            df = -0.0005 - i * 0.0004
            ctl = DroopController(cfg)
            expected = (abs(df) - cfg.deadband) / cfg.r
            assert settle(ctl, df) == pytest.approx(expected, abs=1e-9)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DroopConfig(r=0.0)
        with pytest.raises(ValueError):
            DroopConfig(deadband=-1e-4)


class TestInertiaController:
    def test_constant_deviation_washes_out(self):
        cfg = InertiaConfig(k=10.0)
        ctl = InertiaController(cfg)
        out = settle(ctl, -0.003, dt=0.005, seconds=30 * cfg.t_washout + 1)
        assert abs(out) < 1e-9

    def test_sustained_rocof_response(self):
        # ROCOF of -0.5 Hz/s on a 60 Hz base, k=10 -> +0.0833 plant pu
        cfg = InertiaConfig(k=10.0)
        ctl = InertiaController(cfg)
        slope = -0.5 / 60.0
        dt = 0.0005
        out = 0.0
        for k in range(round(1.5 / dt)):
            out = ctl.step(slope * (k + 1) * dt, dt)
        assert out == pytest.approx(-10.0 * slope, rel=0.01)
        assert out == pytest.approx(0.08333, rel=0.01)

    def test_recovery_clamp_zeroes_opposing_output(self):
        # recovering underfrequency: rising frequency, still below nominal
        slope = 0.2 / 60.0
        dt = 0.0005

        def drive(ctl):
            out = 0.0
            for k in range(round(0.5 / dt)):
                out = ctl.step((-0.2 + 0.2 * (k + 1) * dt) / 60.0, dt)
            return out

        unclamped = drive(InertiaController(InertiaConfig(k=10.0)))
        assert unclamped == pytest.approx(-10.0 * slope, rel=0.01)
        assert unclamped == pytest.approx(-0.0333, rel=0.01)
        clamped = drive(InertiaController(
            InertiaConfig(k=10.0, recovery_clamp=True)))
        assert clamped == 0.0

    def test_recovery_clamp_never_negative_during_underfrequency(self):
        ctl = InertiaController(InertiaConfig(k=10.0, recovery_clamp=True))
        dt = 0.001
        # dip to -0.15 Hz then recover to -0.01 Hz: output stays >= 0
        for k in range(2000):
            t = (k + 1) * dt
            df_hz = -0.15 * min(t / 0.5, 1.0) + 0.14 * max(0.0, (t - 0.5)) / 1.5
            out = ctl.step(min(df_hz, -0.01) / 60.0, dt)
            assert out >= 0.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            InertiaConfig(k=-1.0)
        with pytest.raises(ValueError):
            InertiaConfig(t_washout=0.0)


class TestCombinedController:
    @given(st.lists(st.floats(min_value=-0.01, max_value=0.01),
                    min_size=1, max_size=50))
    def test_superposition(self, deviations):
        dcfg = DroopConfig()
        icfg = InertiaConfig()
        combined = CombinedController(dcfg, icfg)
        droop = DroopController(dcfg)
        inertia = InertiaController(icfg)
        for df in deviations:
            expected = droop.step(df, 0.01) + inertia.step(df, 0.01)
            assert combined.step(df, 0.01) == expected

    def test_zero_inertia_gain_degenerates_to_droop(self):
        dcfg = DroopConfig()
        combined = CombinedController(dcfg, InertiaConfig(k=0.0))
        droop = DroopController(dcfg)
        for k in range(200):
            df = -0.002 * math.sin(k * 0.05)
            assert combined.step(df, 0.01) == droop.step(df, 0.01)

    def test_disabled_droop_degenerates_to_inertia(self):
        # r = inf makes the proportional term exactly zero
        icfg = InertiaConfig()
        combined = CombinedController(DroopConfig(r=math.inf), icfg)
        inertia = InertiaController(icfg)
        for k in range(200):
            df = -0.002 * math.sin(k * 0.05)
            assert combined.step(df, 0.01) == inertia.step(df, 0.01)

    def test_superposed_steady_and_ramp(self):
        """A -0.5 Hz/s ramp evaluated as it passes -0.002 pu produces the
        sum of the two analytic path values, 0.028 + 0.08333.

        Filters much faster than the ramp keep the tracking error of the
        droop lag and the settling of the derivative chain below 1%.
        """
        dcfg = DroopConfig(r=0.05, deadband=0.0006, t_lag=0.001)
        icfg = InertiaConfig(k=10.0, deadband=0.0, t_lag=0.005,
                             t_washout=0.01)
        ctl = CombinedController(dcfg, icfg)
        slope = -0.5 / 60.0
        dt = 1e-4
        n = round(((0.002 - 0.0006) / abs(slope)) / dt)
        out = 0.0
        for k in range(1, n + 1):
            out = ctl.step(-0.0006 + slope * k * dt, dt)
        assert -0.0006 + slope * n * dt == pytest.approx(-0.002, abs=1e-9)
        assert out == pytest.approx(0.028 + 0.083333, rel=0.01)
        assert out == pytest.approx(0.11133, rel=0.01)


class TestPVPlant:
    def test_headroom_saturation(self):
        cfg = PVPlantConfig(headroom=0.1, available_power=1.0)
        assert cfg.limits().apply(0.15, 0.0, 0.01) == pytest.approx(0.10)

    def test_curtail_floor(self):
        cfg = PVPlantConfig(headroom=0.1, available_power=1.0)
        assert cfg.limits().apply(-1.2, 0.0, 0.01) == pytest.approx(-0.9)

    def test_system_base_scaling(self):
        plant = PVPlant(PVPlantConfig(c_pv=0.4, headroom=0.05))
        out = 0.0
        for _ in range(2000):
            out = plant.step(0.028, 0.005)
        assert out == pytest.approx(0.4 * 0.028, abs=1e-9)
        assert out == pytest.approx(0.0112, abs=1e-9)

    def test_no_headroom_means_no_upward_response(self):
        plant = PVPlant(PVPlantConfig(headroom=0.0))
        for k in range(500):
            out = plant.step(0.01 + 0.001 * k, 0.01)
            assert out == 0.0

    def test_downward_response_still_allowed_without_headroom(self):
        plant = PVPlant(PVPlantConfig(headroom=0.0))
        out = 0.0
        for _ in range(3000):
            out = plant.step(-2.0, 0.01)
        assert out == pytest.approx(-plant.cfg.c_pv * 1.0, abs=1e-6)

    def test_rate_limit_bounds_command_slew(self):
        plant = PVPlant(PVPlantConfig(headroom=0.5, rate_limit=0.1))
        prev = 0.0
        for _ in range(100):
            plant.step(1.0, 0.01)
            now = plant._prev
            assert now - prev <= 0.1 * 0.01 + 1e-15
            prev = now

    def test_operating_point_fields(self):
        cfg = PVPlantConfig(headroom=0.2, available_power=0.9)
        assert cfg.operating_point == pytest.approx(0.72)
        assert cfg.up_limit == pytest.approx(0.18)
        assert cfg.down_limit == pytest.approx(-0.72)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PVPlantConfig(headroom=1.0)
        with pytest.raises(ValueError):
            PVPlantConfig(c_pv=0.0)
        with pytest.raises(ValueError):
            PVPlantConfig(t_inv=0.0)


class TestControllerFactory:
    def test_kinds(self):
        spec = ControllerSpec(kind="combined")
        assert isinstance(make_controller(spec), CombinedController)
        assert make_controller(ControllerSpec(kind="none")).step(
            -0.01, 0.01) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown controller kind"):
            validate_kind("sync")
        with pytest.raises(ValueError):
            ControllerSpec(kind="sync")
