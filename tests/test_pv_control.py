import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfreq.compliance
from gridfreq.compliance import make_controller, run_step_test
from gridfreq.engine import run_simulation
from gridfreq.scenario import (ControllerSpec, DroopConfig, InertiaConfig,
                               PVPlantConfig, SimConfig, preset_scenario)
from zoh_reference import reference_controller


def per_step(hold):
    """``hold`` as a ``step(delta_f) -> cmd`` function: each call holds
    ``delta_f`` for one step."""
    return lambda delta_f: hold(delta_f, 1)[0]


def droop(cfg=DroopConfig(), dt=0.005):
    return per_step(make_controller(ControllerSpec(kind="droop", droop=cfg),
                                    dt))


def inertia(cfg=InertiaConfig(), dt=0.005):
    return per_step(make_controller(ControllerSpec(kind="inertia",
                                                   inertia=cfg), dt))


def combined(dcfg=DroopConfig(), icfg=InertiaConfig(), dt=0.005):
    return per_step(make_controller(ControllerSpec(kind="combined",
                                                   droop=dcfg,
                                                   inertia=icfg), dt))


def settle(step, delta_f, dt=0.005, seconds=25.0):
    out = 0.0
    for _ in range(round(seconds / dt)):
        out = step(delta_f)
    return out


class TestDroopController:
    def test_steady_state_underfrequency(self):
        ctl = droop(DroopConfig(r=0.05, deadband=0.0006))
        assert settle(ctl, -0.002) == pytest.approx(0.028, abs=1e-9)

    def test_inside_deadband(self):
        ctl = droop(DroopConfig(r=0.05, deadband=0.0006))
        assert settle(ctl, 0.0004) == 0.0

    def test_odd_symmetry(self):
        ctl = droop(DroopConfig(r=0.05, deadband=0.0006))
        assert settle(ctl, 0.002) == pytest.approx(-0.028, abs=1e-9)

    def test_steady_gain_linear_in_deviation(self):
        """Settled magnitude is (|df| - band)/r over a grid of deviations."""
        cfg = DroopConfig(r=0.04, deadband=0.0005)
        for i in range(1, 11):
            df = -0.0005 - i * 0.0004
            expected = (abs(df) - cfg.deadband) / cfg.r
            assert settle(droop(cfg), df) == pytest.approx(expected,
                                                           abs=1e-9)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DroopConfig(r=0.0)
        with pytest.raises(ValueError):
            DroopConfig(deadband=-1e-4)


class TestInertiaController:
    def test_constant_deviation_washes_out(self):
        cfg = InertiaConfig(k=10.0)
        out = settle(inertia(cfg), -0.003, seconds=30 * cfg.t_washout + 1)
        assert abs(out) < 1e-9

    def test_sustained_rocof_response(self):
        # ROCOF of -0.5 Hz/s on a 60 Hz base, k=10 -> +0.0833 plant pu
        dt = 0.0005
        ctl = inertia(InertiaConfig(k=10.0), dt)
        slope = -0.5 / 60.0
        out = 0.0
        for k in range(round(1.5 / dt)):
            out = ctl(slope * (k + 1) * dt)
        assert out == pytest.approx(-10.0 * slope, rel=0.01)
        assert out == pytest.approx(0.08333, rel=0.01)

    def test_recovery_clamp_zeroes_opposing_output(self):
        # recovering underfrequency: rising frequency, still below nominal
        slope = 0.2 / 60.0
        dt = 0.0005

        def drive(ctl):
            out = 0.0
            for k in range(round(0.5 / dt)):
                out = ctl((-0.2 + 0.2 * (k + 1) * dt) / 60.0)
            return out

        unclamped = drive(inertia(InertiaConfig(k=10.0), dt))
        assert unclamped == pytest.approx(-10.0 * slope, rel=0.01)
        assert unclamped == pytest.approx(-0.0333, rel=0.01)
        clamped = drive(inertia(InertiaConfig(k=10.0, recovery_clamp=True),
                                dt))
        assert clamped == 0.0

    def test_recovery_clamp_never_negative_during_underfrequency(self):
        dt = 0.001
        ctl = inertia(InertiaConfig(k=10.0, recovery_clamp=True), dt)
        # dip to -0.15 Hz then recover to -0.01 Hz: output stays >= 0
        for k in range(2000):
            t = (k + 1) * dt
            df_hz = -0.15 * min(t / 0.5, 1.0) + 0.14 * max(0.0, (t - 0.5)) / 1.5
            assert ctl(min(df_hz, -0.01) / 60.0) >= 0.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            InertiaConfig(k=-1.0)
        with pytest.raises(ValueError):
            InertiaConfig(t_washout=0.0)


class TestCombinedController:
    @given(st.lists(st.floats(min_value=-0.01, max_value=0.01),
                    min_size=1, max_size=50))
    def test_superposition(self, deviations):
        both, d, i = combined(dt=0.01), droop(dt=0.01), inertia(dt=0.01)
        for df in deviations:
            assert both(df) == d(df) + i(df)

    def test_zero_inertia_gain_degenerates_to_droop(self):
        both = combined(icfg=InertiaConfig(k=0.0), dt=0.01)
        d = droop(dt=0.01)
        for k in range(200):
            df = -0.002 * math.sin(k * 0.05)
            assert both(df) == d(df)

    def test_disabled_droop_degenerates_to_inertia(self):
        # a deadband wider than every |df| below holds the droop input,
        # and so its command, at exactly zero
        both = combined(dcfg=DroopConfig(deadband=1.0), dt=0.01)
        i = inertia(dt=0.01)
        for k in range(200):
            df = -0.002 * math.sin(k * 0.05)
            assert both(df) == i(df)

    def test_superposed_steady_and_ramp(self):
        """A -0.5 Hz/s ramp evaluated as it passes -0.002 pu produces the
        sum of the two analytic path values, 0.028 + 0.08333.

        Filters much faster than the ramp keep the tracking error of the
        droop lag and the settling of the derivative chain below 1%.
        """
        dt = 1e-4
        ctl = combined(DroopConfig(r=0.05, deadband=0.0006, t_lag=0.001),
                       InertiaConfig(k=10.0, deadband=0.0, t_lag=0.005,
                                     t_washout=0.01), dt)
        slope = -0.5 / 60.0
        n = round(((0.002 - 0.0006) / abs(slope)) / dt)
        out = 0.0
        for k in range(1, n + 1):
            out = ctl(-0.0006 + slope * k * dt)
        assert -0.0006 + slope * n * dt == pytest.approx(-0.002, abs=1e-9)
        assert out == pytest.approx(0.028 + 0.083333, rel=0.01)
        assert out == pytest.approx(0.11133, rel=0.01)


KINDS = st.sampled_from(["none", "droop", "inertia", "combined"])
DROOPS = st.builds(DroopConfig, r=st.floats(0.02, 0.1),
                   deadband=st.floats(0.0, 0.003),
                   t_lag=st.floats(0.01, 1.0))
INERTIAS = st.builds(InertiaConfig, k=st.floats(0.0, 15.0),
                     deadband=st.floats(0.0, 0.003),
                     t_lag=st.floats(0.01, 0.2),
                     t_washout=st.floats(0.02, 0.5),
                     recovery_clamp=st.booleans())
DTS = st.sampled_from([0.001, 0.005, 0.02])
# zeros of both signs hold the recovery clamp off
DEVIATIONS = st.one_of(st.floats(-0.01, 0.01), st.sampled_from([0.0, -0.0]))


def signed(values):
    """``values`` with each zero's sign made visible to ``==``."""
    return [(v, math.copysign(1.0, v)) for v in values]


class TestReferenceDifferential:
    """``hold`` equals the block-per-object reference bit for bit on any
    deviation sequence, including ones that trip the recovery clamp (an
    open-loop step never does)."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(KINDS, DROOPS, INERTIAS, DTS,
           st.lists(st.floats(-0.01, 0.01), min_size=1, max_size=200))
    def test_equals_reference(self, kind, dcfg, icfg, dt, deviations):
        spec = ControllerSpec(kind=kind, droop=dcfg, inertia=icfg)
        step = per_step(make_controller(spec, dt))
        ref = reference_controller(spec)
        for df in deviations:
            assert step(df) == ref.step(df, dt)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(KINDS, DROOPS, INERTIAS, DTS,
           st.lists(st.tuples(DEVIATIONS, st.integers(1, 50)), min_size=1,
                    max_size=20))
    def test_held_runs_equal_reference(self, kind, dcfg, icfg, dt, runs):
        spec = ControllerSpec(kind=kind, droop=dcfg, inertia=icfg)
        hold = make_controller(spec, dt)
        ref = reference_controller(spec)
        for df, n in runs:
            want = [ref.step(df, dt) for _ in range(n)]
            assert signed(hold(df, n)) == signed(want)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(KINDS, DROOPS, INERTIAS, DTS, DEVIATIONS, st.integers(0, 50),
           st.integers(0, 50))
    def test_split_hold_equals_one_hold(self, kind, dcfg, icfg, dt, df, m,
                                        n):
        spec = ControllerSpec(kind=kind, droop=dcfg, inertia=icfg)
        split = make_controller(spec, dt)
        whole = make_controller(spec, dt)
        assert signed(split(df, m) + split(df, n)) == signed(
            whole(df, m + n))


def stub_controller(monkeypatch, cmd):
    """Replace the controller that ``run_step_test`` builds with one that
    commands ``cmd`` once the step is on, to drive the plant envelope
    directly."""
    def hold(delta_f, n):
        return [cmd if delta_f else 0.0] * n

    monkeypatch.setattr(gridfreq.compliance, "make_controller",
                        lambda spec, dt: hold)


def step_response(plant, spec=ControllerSpec(kind="droop"), **sim):
    return run_step_test(spec, plant, sim=SimConfig(**{"t_end": 20.0,
                                                       **sim}))


class TestPVPlant:
    """The envelope inside ``run_step_test``: clamp, rate limit, lag."""

    def test_headroom_saturation(self):
        # 0.002 / 0.01 = 0.2 plant pu demanded against 0.1 of headroom
        spec = ControllerSpec(kind="droop",
                              droop=DroopConfig(r=0.01, deadband=0.0))
        resp = step_response(PVPlantConfig(headroom=0.1), spec)
        assert max(resp.y) <= 0.1
        assert resp.y[-1] == pytest.approx(0.10, abs=1e-12)

    def test_curtail_floor(self, monkeypatch):
        stub_controller(monkeypatch, -1.2)
        resp = step_response(PVPlantConfig(headroom=0.1,
                                           available_power=1.0))
        assert min(resp.y) >= -0.9
        assert resp.y[-1] == pytest.approx(-0.9, abs=1e-12)

    def test_no_headroom_means_no_upward_response(self):
        resp = step_response(PVPlantConfig(headroom=0.0),
                             ControllerSpec(kind="combined"))
        assert all(y == 0.0 for y in resp.y)

    def test_downward_response_still_allowed_without_headroom(self,
                                                              monkeypatch):
        stub_controller(monkeypatch, -2.0)
        resp = step_response(PVPlantConfig(headroom=0.0))
        assert resp.y[-1] == pytest.approx(-1.0, abs=1e-12)

    def test_rate_limit_bounds_command_slew(self, monkeypatch):
        # The limited command moves at most 0.02 * dt per step; the
        # inverter lag of that command moves no faster.
        stub_controller(monkeypatch, 1.0)
        plant = PVPlantConfig(headroom=0.5, rate_limit=0.02, t_inv=0.01)
        resp = step_response(plant, sample_interval=0.005)
        slews = [b - a for a, b in zip(resp.y, resp.y[1:])]
        assert max(slews) <= 0.02 * 0.005 + 1e-15
        # the ramp sets the pace: 19 s at 0.02/s, less the lag's 0.01 s
        # delay, stays below the 0.5 headroom
        assert resp.y[-1] == pytest.approx(0.02 * (19.0 - 0.01), abs=1e-3)
        unlimited = step_response(PVPlantConfig(headroom=0.5, t_inv=0.01),
                                  sample_interval=0.005)
        assert unlimited.y[-1] == pytest.approx(0.5, abs=1e-12)

    def test_step_response_is_on_plant_base(self):
        # run_step_test reports plant pu: c_pv does not scale it
        spec = ControllerSpec(kind="droop", droop=DroopConfig(r=0.05))
        small = step_response(PVPlantConfig(c_pv=0.2, headroom=0.05), spec)
        large = step_response(PVPlantConfig(c_pv=0.4, headroom=0.05), spec)
        assert small.y == large.y
        assert large.y[-1] == pytest.approx(0.028, abs=1e-9)

    def test_system_base_scaling(self):
        # closed loop: settled dp_pv_pu is c_pv times the plant-pu droop
        s = preset_scenario("ei80", controller="droop")
        trace = run_simulation(s)
        df_ss = trace.f_hz[-1] / 60.0 - 1.0
        dcfg = s.controller.droop
        plant_pu = (abs(df_ss) - dcfg.deadband) / dcfg.r
        assert trace.dp_pv_pu[-1] == pytest.approx(
            s.system.pv.c_pv * plant_pu, rel=1e-6)

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
        assert per_step(make_controller(ControllerSpec(kind="none"),
                                        0.01))(-0.01) == 0.0
        both, d, i = combined(dt=0.01), droop(dt=0.01), inertia(dt=0.01)
        assert both(-0.01) == d(-0.01) + i(-0.01)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError,
                           match="^kind must be one of none, droop, inertia, "
                                 "combined, got 'sync'$"):
            ControllerSpec(kind="sync")
        with pytest.raises(ValueError):
            ControllerSpec(kind="")

