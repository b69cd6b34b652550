"""Tests of ``gridfreq.compliance``, the open-loop step test.

In order: the shipped blocks (the deadband, and the droop and inertia
paths of ``make_controller`` reduced to a bare lag and a bare washout),
the three controllers, the plant envelope inside ``run_step_test`` (fed
scripted requests by a stub controller where the envelope alone is
under test), the step test itself, and its grading. The two
differentials compare the controller and the step test with the
block-per-object reference in ``tests/zoh_reference.py``.
"""

import dataclasses
import math
import random
import re
import tracemalloc
from itertools import islice, repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridfreq.compliance
from gridfreq.compliance import (REACTION_FRACTION, RISE_FRACTIONS,
                                 SETTLE_CHECK_FRACTION, SETTLE_CHECK_LIMIT,
                                 ComplianceThresholds, StepResponse,
                                 StepResponseMetrics, _baseline, _deadband,
                                 _step_response_metrics, _Ungradable,
                                 evaluate_compliance, format_report,
                                 make_controller, run_step_test)
from gridfreq.scenario import (ControllerSpec, DroopConfig, InertiaConfig,
                               PVPlantConfig, SimConfig)
from work_count import pinned, step_work
from zoh_reference import reference_controller, reference_step_test, signed

# The horizon of the step tests that take no other: 20 s settles every
# default droop response.
SIM = SimConfig(t_end=20.0)
LENGTH_RULE = "response must have matching t/y of length >= 3"


def droop_spec(r=0.05, deadband=0.0, t_lag=0.2):
    return ControllerSpec(kind="droop",
                          droop=DroopConfig(r=r, deadband=deadband,
                                            t_lag=t_lag))


def controller(dt=0.005, kind="droop", droop=DroopConfig(),
               inertia=InertiaConfig()):
    """``make_controller``'s controller for these settings, as
    ``ctl(delta_f, n=1)``: it holds ``delta_f`` for ``n`` steps and
    returns the ``n`` commands."""
    hold = make_controller(ControllerSpec(kind=kind, droop=droop,
                                          inertia=inertia), dt)
    return lambda delta_f, n=1: hold(delta_f, n)


def settle(ctl, delta_f, dt=0.005, seconds=25.0):
    """The command after ``ctl`` holds ``delta_f`` for ``seconds``."""
    return ctl(delta_f, round(seconds / dt))[-1]


def stub_controller(monkeypatch, requests):
    """Replace the controller that ``run_step_test`` builds with one that
    commands 0.0 before the step and ``requests``, in order, from the step
    on, to drive the plant envelope directly."""
    def stub(spec, dt):
        script = iter(requests)

        def hold(delta_f, n):
            return [0.0] * n if delta_f == 0.0 else list(islice(script, n))
        return hold

    monkeypatch.setattr(gridfreq.compliance, "make_controller", stub)


def envelope(monkeypatch, requests, headroom, rate_limit=None, dt=0.1):
    """The step test's plant output when its controller requests
    ``requests`` from the step on: an inverter lag so fast that its update
    coefficient is exactly 1 delivers each enveloped request as the next
    sample."""
    stub_controller(monkeypatch, requests)
    plant = PVPlantConfig(headroom=headroom, t_inv=1e-9,
                          rate_limit=rate_limit)
    n = len(requests)
    response = run_step_test(
        ControllerSpec(kind="droop"), plant,
        sim=SimConfig(dt=dt, t_end=(n + 1) * dt, sample_interval=dt),
        step_time=dt)
    return response.y[2:]


def synthetic_first_order(T, horizon=30.0, si=0.01, step_time=0.0):
    t = [i * si for i in range(round(horizon / si) + 1)]
    y = [1.0 - math.exp(-max(ti - step_time, 0.0) / T) for ti in t]
    return StepResponse(t=t, y=y, step_time=step_time,
                        step_magnitude=0.002)


class TestDeadband:
    @pytest.mark.parametrize(
        "width, u, expected",
        [
            (0.0006, 0.0003, 0.0),       # inside the band
            (0.0006, 0.0006, 0.0),       # exactly on the boundary
            (0.0006, -0.002, -0.0014),   # offset, not truncation
            (0.0006, 0.002, 0.0014),
            (0.0, 0.5, 0.5),             # zero-width band passes through
        ],
    )
    def test_values(self, width, u, expected):
        assert _deadband(u, width) == pytest.approx(expected, abs=1e-15)

    @given(st.floats(min_value=-10, max_value=10),
           st.floats(min_value=0, max_value=1))
    def test_odd_function(self, u, width):
        assert _deadband(-u, width) == -_deadband(u, width)

    @given(st.floats(min_value=-10, max_value=10),
           st.floats(min_value=1e-6, max_value=1))
    def test_continuous_at_band_edge(self, u, width):
        out = _deadband(u, width)
        if abs(u) <= width:
            assert out == 0.0
        else:
            # magnitude shrinks by exactly the width: no jump at the edge
            assert abs(out) == pytest.approx(abs(u) - width, abs=1e-12)


class TestFirstOrderLag:
    """The droop path as a bare lag: with no deadband and r = 1, each
    command is exactly minus the lag's state."""

    @staticmethod
    def lag(t_lag):
        return DroopConfig(r=1.0, deadband=0.0, t_lag=t_lag)

    def test_single_step_analytic(self):
        cmd, = controller(0.1, droop=self.lag(1.0))(1.0)
        assert -cmd == pytest.approx(1.0 - math.exp(-0.1), abs=1e-12)
        assert -cmd == pytest.approx(0.0951626, abs=1e-7)

    def test_fixed_point(self):
        for dt in (0.001, 0.1, 3.0):
            lag = controller(dt, droop=self.lag(0.7))
            cmd = lag(0.5, 3)[-1]
            assert lag(-cmd, 4) == [cmd] * 4

    def test_pass_through_limit(self):
        cmd, = controller(1.0, droop=self.lag(0.001))(1.0)
        assert -cmd == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(min_value=0.05, max_value=5),
           st.floats(min_value=0.001, max_value=0.5),
           st.integers(min_value=1, max_value=200),
           st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-2, max_value=2))
    def test_exact_exponential_convergence(self, t_const, dt, n, y0, u):
        """|y(n dt) - u| = |y0 - u| exp(-n dt / T): discretization exact,
        from the state y0 one step toward an earlier input leaves."""
        lag = controller(dt, droop=self.lag(t_const))
        y0 = -lag(y0)[-1]
        y = -lag(u, n)[-1]
        expected = u + (y0 - u) * math.exp(-n * dt / t_const)
        assert y == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=-1, max_value=1),
           st.floats(min_value=-1, max_value=1),
           st.floats(min_value=0.01, max_value=1))
    def test_stays_within_envelope(self, y0, u, dt):
        lag = controller(dt, droop=self.lag(0.3))
        y0 = -lag(y0)[-1]
        lo, hi = min(y0, u), max(y0, u)
        for cmd in lag(u, 50):
            assert lo - 1e-12 <= -cmd <= hi + 1e-12


class TestWashout:
    """The inertia path as a bare washout: with no deadband, k = 1 and a
    lag so fast that its update coefficient is exactly 1, the lag passes
    its input through, and each command is exactly minus the washout's
    output (u - x)/T."""

    @staticmethod
    def washout(t_washout):
        return InertiaConfig(k=1.0, deadband=0.0, t_lag=1e-9,
                             t_washout=t_washout)

    def test_constant_input_at_equilibrium(self):
        washout = controller(0.05, "inertia", inertia=self.washout(0.1))
        assert washout(0.0, 3) == [0.0] * 3
        # a held 0.42 settles to zero within the rounding of its state
        assert abs(washout(0.42, 200)[-1]) <= 1e-14

    def test_step_response_decays_analytically(self):
        # step 0 -> 1 with T=0.1: output 10 exp(-t/0.1) at the samples
        dt = 0.02
        washout = controller(dt, "inertia", inertia=self.washout(0.1))
        for k, cmd in enumerate(washout(1.0, 19), 1):
            assert -cmd == pytest.approx(10.0 * math.exp(-k * dt / 0.1),
                                         abs=1e-10)

    def test_ramp_settles_to_slope(self):
        washout = controller(0.001, "inertia", inertia=self.washout(0.1))
        m = -0.00833
        dt = 0.001
        cmd = 0.0
        for k in range(2000):  # 2 s = 20 washout time constants
            cmd, = washout(m * k * dt)
        assert -cmd == pytest.approx(m, rel=0.01)


class TestDroopController:
    def test_steady_state_underfrequency(self):
        ctl = controller(droop=DroopConfig(r=0.05, deadband=0.0006))
        assert settle(ctl, -0.002) == pytest.approx(0.028, abs=1e-9)

    def test_inside_deadband(self):
        ctl = controller(droop=DroopConfig(r=0.05, deadband=0.0006))
        assert settle(ctl, 0.0004) == 0.0

    def test_odd_symmetry(self):
        ctl = controller(droop=DroopConfig(r=0.05, deadband=0.0006))
        assert settle(ctl, 0.002) == pytest.approx(-0.028, abs=1e-9)

    def test_steady_gain_linear_in_deviation(self):
        """Settled magnitude is (|df| - band)/r over a grid of deviations."""
        cfg = DroopConfig(r=0.04, deadband=0.0005)
        for i in range(1, 11):
            df = -0.0005 - i * 0.0004
            expected = (abs(df) - cfg.deadband) / cfg.r
            assert settle(controller(droop=cfg), df) == pytest.approx(
                expected, abs=1e-9)


class TestInertiaController:
    def test_constant_deviation_washes_out(self):
        cfg = InertiaConfig(k=10.0)
        out = settle(controller(kind="inertia", inertia=cfg), -0.003,
                     seconds=30 * cfg.t_washout + 1)
        assert abs(out) < 1e-9

    def test_sustained_rocof_response(self):
        # ROCOF of -0.5 Hz/s on a 60 Hz base, k=10 -> +0.0833 plant pu
        dt = 0.0005
        ctl = controller(dt, "inertia", inertia=InertiaConfig(k=10.0))
        slope = -0.5 / 60.0
        out = 0.0
        for k in range(round(1.5 / dt)):
            out, = ctl(slope * (k + 1) * dt)
        assert out == pytest.approx(-10.0 * slope, rel=0.01)
        assert out == pytest.approx(0.08333, rel=0.01)

    def test_recovery_clamp_zeroes_opposing_output(self):
        # recovering underfrequency: rising frequency, still below nominal
        slope = 0.2 / 60.0
        dt = 0.0005

        def drive(cfg):
            ctl = controller(dt, "inertia", inertia=cfg)
            out = 0.0
            for k in range(round(0.5 / dt)):
                out, = ctl((-0.2 + 0.2 * (k + 1) * dt) / 60.0)
            return out

        unclamped = drive(InertiaConfig(k=10.0))
        assert unclamped == pytest.approx(-10.0 * slope, rel=0.01)
        assert unclamped == pytest.approx(-0.0333, rel=0.01)
        clamped = drive(InertiaConfig(k=10.0, recovery_clamp=True))
        assert clamped == 0.0

    def test_recovery_clamp_never_negative_during_underfrequency(self):
        dt = 0.001
        ctl = controller(dt, "inertia",
                         inertia=InertiaConfig(k=10.0, recovery_clamp=True))
        # dip to -0.15 Hz then recover to -0.01 Hz: output stays >= 0
        for k in range(2000):
            t = (k + 1) * dt
            df_hz = -0.15 * min(t / 0.5, 1.0) + 0.14 * max(0.0, (t - 0.5)) / 1.5
            assert ctl(min(df_hz, -0.01) / 60.0)[0] >= 0.0


class TestCombinedController:
    @given(st.lists(st.floats(min_value=-0.01, max_value=0.01),
                    min_size=1, max_size=50))
    def test_superposition(self, deviations):
        both = controller(0.01, "combined")
        d, i = controller(0.01), controller(0.01, "inertia")
        for df in deviations:
            assert both(df)[0] == d(df)[0] + i(df)[0]

    def test_zero_inertia_gain_degenerates_to_droop(self):
        both = controller(0.01, "combined", inertia=InertiaConfig(k=0.0))
        d = controller(0.01)
        for k in range(200):
            df = -0.002 * math.sin(k * 0.05)
            assert both(df) == d(df)

    def test_disabled_droop_degenerates_to_inertia(self):
        # a deadband wider than every |df| below holds the droop input,
        # and so its command, at exactly zero
        both = controller(0.01, "combined", droop=DroopConfig(deadband=1.0))
        i = controller(0.01, "inertia")
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
        ctl = controller(dt, "combined",
                         DroopConfig(r=0.05, deadband=0.0006, t_lag=0.001),
                         InertiaConfig(k=10.0, deadband=0.0, t_lag=0.005,
                                       t_washout=0.01))
        slope = -0.5 / 60.0
        n = round(((0.002 - 0.0006) / abs(slope)) / dt)
        out = 0.0
        for k in range(1, n + 1):
            out, = ctl(-0.0006 + slope * k * dt)
        assert -0.0006 + slope * n * dt == pytest.approx(-0.002, abs=1e-9)
        assert out == pytest.approx(0.028 + 0.083333, rel=0.01)
        assert out == pytest.approx(0.11133, rel=0.01)


class TestControllerFactory:
    def test_kinds(self):
        assert controller(0.01, "none")(-0.01) == [0.0]
        both = controller(0.01, "combined")
        d, i = controller(0.01), controller(0.01, "inertia")
        assert both(-0.01)[0] == d(-0.01)[0] + i(-0.01)[0]


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


class TestReferenceDifferential:
    """``hold`` equals the block-per-object reference bit for bit on any
    deviation sequence, including ones that trip the recovery clamp (an
    open-loop step never does)."""

    @settings(max_examples=200)
    @given(KINDS, DROOPS, INERTIAS, DTS,
           st.lists(st.floats(-0.01, 0.01), min_size=1, max_size=200))
    def test_equals_reference(self, kind, dcfg, icfg, dt, deviations):
        spec = ControllerSpec(kind=kind, droop=dcfg, inertia=icfg)
        hold = make_controller(spec, dt)
        ref = reference_controller(spec)
        for df in deviations:
            assert hold(df, 1) == [ref.step(df, dt)]

    @settings(max_examples=200)
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

    @settings(max_examples=100)
    @given(KINDS, DROOPS, INERTIAS, DTS, DEVIATIONS, st.integers(0, 50),
           st.integers(0, 50))
    def test_split_hold_equals_one_hold(self, kind, dcfg, icfg, dt, df, m,
                                        n):
        spec = ControllerSpec(kind=kind, droop=dcfg, inertia=icfg)
        split = make_controller(spec, dt)
        whole = make_controller(spec, dt)
        assert signed(split(df, m) + split(df, n)) == signed(
            whole(df, m + n))

    def test_fixed_point_repeats_one_command_object(self):
        # Once a step leaves the filter states as they were, hold stops
        # updating them and repeats that step's command.
        spec = ControllerSpec(kind="combined", droop=DroopConfig(t_lag=0.01),
                              inertia=InertiaConfig(t_lag=0.01,
                                                    t_washout=0.02))
        hold = make_controller(spec, 0.001)
        hold(-0.002, 10000)
        cmds = hold(-0.002, 5)
        assert len(cmds) == 5
        assert all(cmd is cmds[0] for cmd in cmds)


class TestLimitSpec:
    # headroom 0.1 of available power 1: the envelope is [-0.9, 0.1]; with
    # no headroom it is [-1, 0], and a downward request still reaches -1
    @pytest.mark.parametrize(
        "cmd, expected, headroom",
        [(0.05, 0.05, 0.1), (0.15, 0.1, 0.1), (-1.2, -0.9, 0.1),
         (-2.0, -1.0, 0.0)],
        ids=["0.05-0.05", "0.15-0.1", "-1.2--0.9", "-2.0--1.0-no_headroom"])
    def test_magnitude_clamp(self, monkeypatch, cmd, expected, headroom):
        assert envelope(monkeypatch, [cmd], headroom) == [expected]

    @pytest.mark.parametrize("held, delivered, dip",
                             [(0.0, 0.0, 0.0625), (0.25, 0.1, 0.0625),
                              (-1.0, -0.9, -0.5)])
    def test_requests_across_held_chunks(self, monkeypatch, held,
                                         delivered, dip):
        # 600 requests reach the envelope in three calls of the stub after
        # the step. The last call starts where the output has settled and
        # ends on the same envelope value, with one request inside the
        # band between. Neighbouring samples are 0.0 or within a factor
        # of 2 of each other, so their differences, and the samples, are
        # exact.
        assert envelope(monkeypatch, [held] * 552 + [dip]
                        + [held] * 47, headroom=0.1) == (
            [delivered] * 552 + [dip] + [delivered] * 47)

    def test_rate_limit(self, monkeypatch):
        y, = envelope(monkeypatch, [0.2], headroom=0.5, rate_limit=0.5,
                      dt=0.1)
        assert y == pytest.approx(0.05)

    @given(st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-1, max_value=1),
           st.floats(min_value=0.01, max_value=1))
    def test_output_within_limits(self, cmd, prev, dt):
        with pytest.MonkeyPatch.context() as monkeypatch:
            out = envelope(monkeypatch, [prev, cmd], headroom=0.5,
                           rate_limit=2.0, dt=dt)
        steps = [b - a for a, b in zip([0.0] + out, out)]
        assert all(-0.5 - 1e-12 <= y <= 0.5 + 1e-12 for y in out)
        assert all(abs(d) <= 2.0 * dt + 1e-12 for d in steps)

    @given(st.floats(min_value=-0.5, max_value=0.5))
    def test_idempotent_when_feasible(self, cmd):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert envelope(monkeypatch, [cmd], headroom=0.5) == [cmd]


class TestPVPlant:
    """The envelope inside ``run_step_test``: clamp, rate limit, lag."""

    def test_headroom_saturation(self):
        # 0.002 / 0.01 = 0.2 plant pu demanded against 0.1 of headroom
        spec = ControllerSpec(kind="droop",
                              droop=DroopConfig(r=0.01, deadband=0.0))
        resp = run_step_test(spec, PVPlantConfig(headroom=0.1), sim=SIM)
        assert max(resp.y) <= 0.1
        assert resp.y[-1] == pytest.approx(0.10, abs=1e-12)

    def test_no_headroom_means_no_upward_response(self):
        resp = run_step_test(ControllerSpec(kind="combined"),
                             PVPlantConfig(headroom=0.0), sim=SIM)
        assert all(y == 0.0 for y in resp.y)

    def test_rate_limit_bounds_command_slew(self, monkeypatch):
        # The limited command moves at most 0.02 * dt per step; the
        # inverter lag of that command moves no faster.
        stub_controller(monkeypatch, repeat(1.0))
        spec = ControllerSpec(kind="droop")
        sim = SimConfig(t_end=20.0, sample_interval=0.005)
        plant = PVPlantConfig(headroom=0.5, rate_limit=0.02, t_inv=0.01)
        resp = run_step_test(spec, plant, sim=sim)
        slews = [b - a for a, b in zip(resp.y, resp.y[1:])]
        assert max(slews) <= 0.02 * 0.005 + 1e-15
        # the ramp sets the pace: 19 s at 0.02/s, less the lag's 0.01 s
        # delay, stays below the 0.5 headroom
        assert resp.y[-1] == pytest.approx(0.02 * (19.0 - 0.01), abs=1e-3)
        unlimited = run_step_test(spec, PVPlantConfig(headroom=0.5,
                                                      t_inv=0.01), sim=sim)
        assert unlimited.y[-1] == pytest.approx(0.5, abs=1e-12)

    def test_step_response_is_on_plant_base(self):
        # run_step_test reports plant pu: c_pv does not scale it
        spec = ControllerSpec(kind="droop", droop=DroopConfig(r=0.05))
        small = run_step_test(spec, PVPlantConfig(c_pv=0.2, headroom=0.05),
                              sim=SIM)
        large = run_step_test(spec, PVPlantConfig(c_pv=0.4, headroom=0.05),
                              sim=SIM)
        assert small.y == large.y
        assert large.y[-1] == pytest.approx(0.028, abs=1e-9)


class TestRunStepTest:
    def test_droop_final_value(self):
        resp = run_step_test(droop_spec(), PVPlantConfig(headroom=0.1),
                             sim=SIM)
        # -0.002 pu step, 5% droop: 0.002/0.05 = 0.04 plant pu
        assert resp.y[-1] == pytest.approx(0.04, abs=1e-9)
        assert max(resp.y) <= 0.04 + 1e-9  # first-order cascade: no overshoot

    def test_memory_per_step(self):
        # Sampled at every step, the float lists of t and y peak at about
        # 56 B per step here (commands are held 256 at a time, and the
        # settled tail shares one y object); 128 B bounds it.
        sim = SimConfig(dt=0.001, sample_interval=0.001, t_end=10.0)
        assert self.traced_peak(droop_spec(), sim, 10001) / 10000 <= 128

    def test_memory_at_a_coarse_stride_is_the_samples_only(self):
        # A 5 s lag cannot settle exactly in 100 s at dt 0.001, so every
        # step is iterated; with 1001 samples kept, about 0.8 B per step
        # remains (40 B when all the commands were held at once).
        sim = SimConfig(dt=0.001, sample_interval=0.1, t_end=100.0)
        assert self.traced_peak(droop_spec(t_lag=5.0), sim, 1001) / 1e5 <= 2

    def test_grading_memory_per_sample(self):
        # Grading reads y only where its scans look and copies the last
        # tenth's references: about 0.9 B per sample. A per-sample
        # progress list took about 33 B.
        sim = SimConfig(dt=0.001, sample_interval=0.001, t_end=200.0)
        resp = run_step_test(droop_spec(), PVPlantConfig(headroom=0.1),
                             sim=sim)
        evaluate_compliance(resp)
        tracemalloc.start()
        try:
            report = evaluate_compliance(resp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and len(resp.y) == 200001
        assert peak / len(resp.y) <= 2

    @staticmethod
    def traced_peak(spec, sim, n_samples):
        """The tracemalloc peak of a step test run after a warm-up run."""
        plant = PVPlantConfig(headroom=0.1)
        run_step_test(spec, plant, sim=sim)
        tracemalloc.start()
        try:
            resp = run_step_test(spec, plant, sim=sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(resp.t) == n_samples
        return peak

    def test_droop_report_passes_defaults(self):
        resp = run_step_test(droop_spec(), PVPlantConfig(headroom=0.1),
                             sim=SIM)
        report = evaluate_compliance(resp)
        assert report.passed
        assert set(report.criteria) == {"reaction_time", "rise_time",
                                        "settling_time", "overshoot"}

    def test_pure_inertia_has_no_sustained_response(self):
        spec = ControllerSpec(kind="inertia", inertia=InertiaConfig(k=10.0))
        resp = run_step_test(spec, PVPlantConfig(headroom=0.1), sim=SIM)
        report = evaluate_compliance(resp)
        assert not report.passed
        assert report.failure_reason == "no_response"

    def test_step_inside_deadband_gives_zero_response(self):
        spec = droop_spec(deadband=0.003)  # wider than the 0.002 step
        resp = run_step_test(spec, PVPlantConfig(headroom=0.1), sim=SIM)
        assert all(y == 0.0 for y in resp.y)
        report = evaluate_compliance(resp)
        assert not report.passed
        assert report.failure_reason == "no_response"

    def test_horizon_comes_only_from_sim(self):
        # No second default horizon: the caller passes the scenario's sim.
        with pytest.raises(TypeError, match="sim"):
            run_step_test(droop_spec(), PVPlantConfig(headroom=0.1))

    def test_none_controller_rejected(self):
        with pytest.raises(ValueError, match="none"):
            run_step_test(ControllerSpec(kind="none"),
                          PVPlantConfig(headroom=0.1), sim=SIM)

    @pytest.mark.parametrize("t_end", [0.5, 1.0])
    def test_horizon_without_the_step_rejected(self, t_end):
        with pytest.raises(ValueError,
                           match=r"sim\.t_end .* step_time \(1\.0\)"):
            run_step_test(droop_spec(), PVPlantConfig(headroom=0.1),
                          sim=SimConfig(t_end=t_end))

    def test_off_grid_step_needs_one_step_of_horizon(self):
        plant = PVPlantConfig(headroom=0.1)
        sim = SimConfig(t_end=1.0, sample_interval=0.005)
        # 0.997 starts at the step boundary t = 1.0, the horizon's end
        with pytest.raises(ValueError, match="step_time"):
            run_step_test(droop_spec(), plant, sim=sim, step_time=0.997)
        resp = run_step_test(droop_spec(), plant, sim=sim,
                             step_time=0.994)
        assert resp.y[-2] == 0.0 < resp.y[-1]

    @pytest.mark.parametrize("step_time", [-0.5, -0.0025, math.nan])
    def test_negative_or_non_finite_step_time_rejected(self, step_time):
        # A negative time would switch the step on at t = 0 (or round
        # -0.0025 up to step 1) and grade every time that late.
        with pytest.raises(ValueError, match="^step_time must be finite "
                                             "and >= 0"):
            run_step_test(droop_spec(), PVPlantConfig(headroom=0.1),
                          sim=SIM, step_time=step_time)

    def test_step_after_last_sample_rejected(self):
        # 2.01 is before t_end but after the last whole sample, t = 2.0.
        sim = SimConfig(t_end=2.035, sample_interval=0.04)
        with pytest.raises(ValueError,
                           match=r"sim\.t_end .* step_time \(2\.01\)"):
            run_step_test(droop_spec(), PVPlantConfig(headroom=0.1),
                          sim=sim, step_time=2.01)

    def test_builds_one_controller_per_test(self, monkeypatch):
        # The benchmark's tracer times the controller layer by wrapping
        # this module attribute; a test that bypassed it would read 0.
        calls = []
        real = gridfreq.compliance.make_controller

        def counting(spec, dt):
            calls.append(dt)
            return real(spec, dt)

        monkeypatch.setattr(gridfreq.compliance, "make_controller",
                            counting)
        run_step_test(droop_spec(), PVPlantConfig(headroom=0.1),
                      sim=SimConfig(t_end=2.0))
        assert calls == [0.005]


def _bands():
    # zero, inside the 0.0015-0.003 step, and wider than it
    return st.one_of(st.just(0.0), st.floats(0.0, 0.004))


@st.composite
def step_cases(draw):
    dt = draw(st.sampled_from([0.001, 0.005, 0.01]))
    stride = draw(st.integers(1, 4))
    step_time = draw(st.floats(0.0, 1.0))
    first = math.ceil((step_time + dt) / (stride * dt))
    t_end = stride * dt * (first + draw(st.integers(0, 300)))
    spec = ControllerSpec(
        kind=draw(st.sampled_from(["droop", "inertia", "combined"])),
        droop=DroopConfig(r=draw(st.floats(0.02, 0.1)),
                          deadband=draw(_bands()),
                          t_lag=draw(st.floats(0.01, 1.0))),
        inertia=InertiaConfig(k=draw(st.floats(0.0, 15.0)),
                              deadband=draw(_bands()),
                              t_lag=draw(st.floats(0.01, 0.2)),
                              t_washout=draw(st.floats(0.02, 0.5)),
                              recovery_clamp=draw(st.booleans())))
    plant = PVPlantConfig(
        headroom=draw(st.floats(0.0, 0.3)),
        t_inv=draw(st.floats(0.01, 0.3)),
        rate_limit=draw(st.one_of(st.none(), st.floats(0.01, 1.0))))
    thresholds = ComplianceThresholds(
        step_magnitude=draw(st.floats(0.0015, 0.003)))
    sim = SimConfig(dt=dt, t_end=t_end, sample_interval=stride * dt)
    return spec, plant, thresholds, sim, step_time


_COMBINED = ControllerSpec(
    kind="combined", droop=DroopConfig(deadband=0.001),
    inertia=InertiaConfig(deadband=0.0025, recovery_clamp=True))
_FAST = ControllerSpec(
    kind="combined", droop=DroopConfig(t_lag=0.01),
    inertia=InertiaConfig(t_lag=0.01, t_washout=0.02))


class TestOracleDifferential:
    """The one-loop test equals the block-per-object reference bit for
    bit, zero signs included: same float operations in the same order."""

    @settings(max_examples=150)
    @given(step_cases())
    @example((_COMBINED, PVPlantConfig(headroom=0.02, rate_limit=0.05),
              ComplianceThresholds(), SimConfig(t_end=6.0,
                                                sample_interval=0.02),
              0.9973))
    @example((ControllerSpec(kind="inertia"), PVPlantConfig(),
              ComplianceThresholds(), SimConfig(t_end=3.0), 1.0))
    # no headroom: the up limit is 0.0 and every upward command is cut;
    # its 800 steps span 4 chunks
    @example((_COMBINED, PVPlantConfig(headroom=0.0),
              ComplianceThresholds(), SimConfig(t_end=4.0), 1.0))
    # a slow rate limit: 0.04 pu at 0.01 pu/s binds for 4 of the 4.5 s
    @example((droop_spec(t_lag=0.05), PVPlantConfig(rate_limit=0.01),
              ComplianceThresholds(), SimConfig(t_end=5.0), 0.5))
    # both deadbands wider than the step: the response stays zero
    @example((ControllerSpec(kind="combined",
                             droop=DroopConfig(deadband=0.004),
                             inertia=InertiaConfig(deadband=0.003)),
              PVPlantConfig(), ComplianceThresholds(), SimConfig(t_end=3.0),
              1.0))
    # two samples, too few to grade
    @example((ControllerSpec(kind="droop"), PVPlantConfig(),
              ComplianceThresholds(), SimConfig(dt=0.001, t_end=0.001,
                                                sample_interval=0.001),
              0.0))
    # The examples below span at least 3 chunks of held commands and reach
    # the settled tail that run_step_test fills in without iterating.
    # Fast lags: the controller reaches its fixed point in about a second.
    @example((_FAST, PVPlantConfig(t_inv=0.01), ComplianceThresholds(),
              SimConfig(dt=0.001, t_end=10.0, sample_interval=0.001), 1.0))
    # 0.2 pu demanded of 0.01 headroom: the commands are past the up limit
    # within 0.1 s while the 2 s droop lag moves to the end.
    @example((droop_spec(r=0.01, t_lag=2.0),
              PVPlantConfig(headroom=0.01, t_inv=0.01),
              ComplianceThresholds(), SimConfig(t_end=10.0), 1.0))
    # 0.04 pu at 0.02 pu/s: the rate limit binds for 2 s, then settles
    @example((droop_spec(t_lag=0.05), PVPlantConfig(rate_limit=0.02),
              ComplianceThresholds(), SimConfig(t_end=8.0), 0.5))
    # strides that do not divide the chunk, and a step at t = 0
    @example((_FAST, PVPlantConfig(t_inv=0.01), ComplianceThresholds(),
              SimConfig(dt=0.001, t_end=3.0, sample_interval=0.003), 0.0))
    @example((_FAST, PVPlantConfig(t_inv=0.01, rate_limit=0.5),
              ComplianceThresholds(), SimConfig(dt=0.001, t_end=3.5,
                                                sample_interval=0.007),
              0.0))
    def test_equals_reference(self, case):
        spec, plant, thresholds, sim, step_time = case
        want = reference_step_test(spec, plant, thresholds, sim=sim,
                                   step_time=step_time)
        if len(want.t) < 3:
            # too few samples to grade: rejected before the loop runs
            with pytest.raises(ValueError, match=r"sim\.t_end.*"
                               r"sim\.sample_interval"):
                run_step_test(spec, plant, thresholds, sim=sim,
                              step_time=step_time)
            return
        got = run_step_test(spec, plant, thresholds, sim=sim,
                            step_time=step_time)
        assert signed(got.t) == signed(want.t)
        assert signed(got.y) == signed(want.y)
        assert (got.step_time, got.step_magnitude) == (
            want.step_time, want.step_magnitude)


class TestEvaluateCompliance:
    @pytest.mark.parametrize("T, horizon", [(0.2, 8.0), (1.0, 30.0),
                                            (5.0, 120.0)])
    def test_first_order_closed_forms(self, T, horizon):
        # At T = 1: -ln 0.98 = 0.0202, ln 9 = 2.1972, -ln 0.025 = 3.6889.
        m = evaluate_compliance(synthetic_first_order(T, horizon)).metrics
        tol = 2 * 0.01  # two samples
        assert m.reaction_time_s == pytest.approx(-T * math.log(0.98),
                                                  abs=tol)
        assert m.rise_time_s == pytest.approx(T * math.log(9.0), abs=tol)
        assert m.settling_time_s == pytest.approx(-T * math.log(0.025),
                                                  abs=tol)
        assert m.overshoot == 0.0
        assert m.final_value == pytest.approx(1.0, abs=1e-3)

    def test_second_order_overshoot(self):
        z, wn = 0.5, 1.0
        wd = wn * math.sqrt(1 - z * z)
        t = [i * 0.01 for i in range(4001)]
        y = [1 - math.exp(-z * wn * ti)
             * (math.cos(wd * ti) + z / wd * math.sin(wd * ti))
             for ti in t]
        m = evaluate_compliance(StepResponse(t, y, 0.0, 0.002)).metrics
        expected = math.exp(-math.pi * z / math.sqrt(1 - z * z))
        assert m.overshoot == pytest.approx(expected, abs=0.005)
        assert m.overshoot == pytest.approx(0.1630, abs=0.005)

    def test_negative_step_direction(self):
        resp = synthetic_first_order(1.0)
        falling = dataclasses.replace(resp, y=[-y for y in resp.y])
        m = evaluate_compliance(falling).metrics
        assert m.final_value == pytest.approx(-1.0, abs=1e-3)
        assert m.rise_time_s == pytest.approx(math.log(9.0), abs=0.02)
        assert m.overshoot == 0.0

    def test_first_order_t1_passes_defaults(self):
        report = evaluate_compliance(synthetic_first_order(1.0))
        assert report.passed
        assert report.criteria["rise_time"].value == pytest.approx(
            2.1972, abs=0.02)
        assert report.criteria["settling_time"].value == pytest.approx(
            3.6889, abs=0.02)

    def test_first_order_t5_fails_rise_time(self):
        report = evaluate_compliance(synthetic_first_order(5.0,
                                                           horizon=60.0))
        assert not report.passed
        rise = report.criteria["rise_time"]
        assert not rise.passed
        assert rise.value == pytest.approx(5.0 * math.log(9.0), abs=0.02)
        assert rise.value > 4.0

    def test_zero_response_is_overall_fail(self):
        t = [i * 0.01 for i in range(2001)]
        resp = StepResponse(t=t, y=[0.0] * len(t), step_time=1.0,
                            step_magnitude=0.002)
        report = evaluate_compliance(resp)
        assert not report.passed
        assert report.failure_reason == "no_response"
        assert report.criteria == {}
        assert report.metrics is None

    def test_unsettled_response_is_overall_fail(self):
        # T = 5 cut at 20 s still moves > 0.5% of the change in its tail.
        report = evaluate_compliance(synthetic_first_order(5.0, 20.0))
        assert not report.passed
        assert report.failure_reason == "not_settled"
        assert report.criteria == {}
        assert report.metrics is None
        assert "metrics" not in report.as_dict()

    def test_ending_outside_a_band_below_the_tail_check_is_not_settled(
            self):
        # The last tenth varies by 0.2% of the change, inside the 0.5%
        # tail check, so the default band grades it; the last sample is
        # 0.09% past the final value, outside a 0.05% band.
        resp = synthetic_first_order(5.0, horizon=30.0)
        assert evaluate_compliance(resp).metrics is not None
        report = evaluate_compliance(
            resp, ComplianceThresholds(settling_band=0.0005))
        assert report.failure_reason == "not_settled"
        assert report.metrics is None

    def test_loosening_thresholds_never_flips_pass_to_fail(self):
        resp = synthetic_first_order(2.0)
        base = ComplianceThresholds()
        report = evaluate_compliance(resp, base)
        for factor in (1.5, 2.0, 10.0):
            looser = ComplianceThresholds(
                step_magnitude=base.step_magnitude,
                max_reaction=base.max_reaction * factor,
                max_rise=base.max_rise * factor,
                max_settling=base.max_settling * factor,
                max_overshoot=base.max_overshoot * factor,
                settling_band=base.settling_band,
            )
            relaxed = evaluate_compliance(resp, looser)
            for name, c in report.criteria.items():
                if c.passed:
                    assert relaxed.criteria[name].passed
            if report.passed:
                assert relaxed.passed

    def test_report_dict_round_trips_to_json(self):
        import json

        report = evaluate_compliance(synthetic_first_order(1.0))
        blob = json.dumps(report.as_dict())
        parsed = json.loads(blob)
        assert parsed["passed"] is True
        assert parsed["criteria"]["rise_time"]["passed"] is True

    def test_report_dict_keys(self):
        report = evaluate_compliance(synthetic_first_order(1.0))
        m = report.metrics
        assert report.as_dict() == {
            "passed": True, "failure_reason": None,
            "criteria": {name: {"value": c.value, "limit": c.limit,
                                "passed": c.passed}
                         for name, c in report.criteria.items()},
            "metrics": {"reaction_time_s": m.reaction_time_s,
                        "rise_time_s": m.rise_time_s,
                        "settling_time_s": m.settling_time_s,
                        "overshoot": m.overshoot,
                        "final_value": m.final_value},
        }

    # Graded as numbers, a NaN in y or t reads as a pass, an inf in y as
    # an infinite overshoot and a late NaN in y as not settled. Each edit
    # sets column[index] = value.
    @pytest.mark.parametrize("edits, message", [
        ({"y": (100, math.nan)}, "step response y[100] must be finite, "
                                 "got nan"),
        ({"t": (100, math.nan)}, "step response t[100] must be finite, "
                                 "got nan"),
        ({"y": (100, math.inf)}, "step response y[100] must be finite, "
                                 "got inf"),
        ({"y": (-5, math.nan)}, "step response y[2996] must be finite, "
                                "got nan"),
        ({"y": (slice(3000, None), [])}, LENGTH_RULE),
        ({"t": (slice(2, None), []), "y": (slice(2, None), [])},
         LENGTH_RULE),
    ], ids=["nan_y", "nan_t", "inf_y", "late_nan_y", "lengths_differ",
            "two_samples"])
    def test_ungradable_response_rejected(self, edits, message):
        resp = synthetic_first_order(1.0)
        for column, (index, value) in edits.items():
            getattr(resp, column)[index] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_compliance(resp)

    # A finite response whose tail, or whose samples before the step, sum
    # past the float range is graded as its copy scaled to 1.0 is.
    @pytest.mark.parametrize("y, scaled, step_time", [
        ([0.0] + [1.7e308] * 19, [0.0] + [1.0] * 19, 0.0),
        ([1.7e308] * 5 + [0.0] * 15, [1.0] * 5 + [0.0] * 15, 0.45),
    ], ids=["tail", "pre_step"])
    def test_overflowing_sum_is_graded_as_its_scaled_copy(self, y, scaled,
                                                           step_time):
        t = [k * 0.1 for k in range(20)]
        got, want = (evaluate_compliance(StepResponse(t, column, step_time,
                                                      0.002))
                     for column in (y, scaled))
        # the criteria hold the three times and the overshoot
        assert got.passed and got.criteria == want.criteria
        assert got.metrics.final_value == 1.7e308 * want.metrics.final_value

    def test_format_report_mentions_overall(self):
        report = evaluate_compliance(synthetic_first_order(1.0))
        text = format_report(report)
        assert "overall: PASS" in text
        assert "rise_time" in text


def reference_metrics(t, y, step_time, settling_band):
    """The grader with a per-sample progress list, three first-crossing
    scans and a forward settling scan: the oracle for the shipped one."""
    n_tail = max(1, int(len(t) * SETTLE_CHECK_FRACTION))
    tail = y[-n_tail:]
    final = sum(tail) / len(tail)
    baseline = _baseline(t, y, step_time)
    change = final - baseline
    if abs(change) < 1e-6:
        raise _Ungradable("no_response")
    if (max(tail) - min(tail)) >= SETTLE_CHECK_LIMIT * abs(change):
        raise _Ungradable("not_settled")

    sign = 1.0 if change > 0.0 else -1.0
    prog = [sign * (yi - baseline) / abs(change) for yi in y]
    reaction = _first_crossing(t, prog, REACTION_FRACTION) - step_time
    t_lo = _first_crossing(t, prog, RISE_FRACTIONS[0])
    t_hi = _first_crossing(t, prog, RISE_FRACTIONS[1])
    settling = _settling_time(t, prog, settling_band) - step_time
    overshoot = max(0.0, max(prog) - 1.0)
    if overshoot < 1e-9:
        overshoot = 0.0
    return StepResponseMetrics(reaction_time_s=reaction,
                               rise_time_s=t_hi - t_lo,
                               settling_time_s=settling,
                               overshoot=overshoot, final_value=final)


def _first_crossing(t, prog, level):
    if prog[0] >= level:
        return t[0]
    for i in range(1, len(prog)):
        if prog[i] >= level:
            frac = (level - prog[i - 1]) / (prog[i] - prog[i - 1])
            return t[i - 1] + frac * (t[i] - t[i - 1])
    raise _Ungradable("not_settled")


def _settling_time(t, prog, band):
    outside = None
    for i, pi in enumerate(prog):
        if abs(pi - 1.0) > band:
            outside = i
    if outside is None:
        return t[0]
    if outside + 1 >= len(prog):
        raise _Ungradable("not_settled")
    p0 = abs(prog[outside] - 1.0)
    p1 = abs(prog[outside + 1] - 1.0)
    frac = (p0 - band) / (p0 - p1) if p0 != p1 else 1.0
    return t[outside] + frac * (t[outside + 1] - t[outside])


def _graded(grader, t, y, step_time, band):
    """The grader's metrics, or its failure reason, as repr text, so that
    zero signs count."""
    try:
        return repr(grader(t, y, step_time, band))
    except _Ungradable as exc:
        return repr(str(exc))


@st.composite
def graded_responses(draw):
    """First-order or overshooting second-order responses, rising or
    falling, with flat or noisy samples before the step and optional noise
    after it, graded in a settling band from 1e-12 to 0.5."""
    n = draw(st.integers(3, 400))
    si = draw(st.sampled_from([0.001, 0.01, 0.1]))
    k_step = draw(st.integers(0, n // 2))
    gain = draw(st.floats(1e-7, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
    offset = draw(st.floats(-1.0, 1.0))
    tau = draw(st.floats(0.2, max(0.2, n / 8)))  # in samples
    zeta = draw(st.one_of(st.none(), st.floats(0.05, 0.95)))
    pre_noise = draw(st.sampled_from([0.0, 1e-4, 0.05])) * abs(gain)
    post_noise = draw(st.sampled_from([0.0, 1e-9, 1e-4])) * abs(gain)
    rng = random.Random(draw(st.integers(0, 2**32)))
    y = [offset + pre_noise * rng.uniform(-1.0, 1.0) for _ in range(k_step)]
    for k in range(n - k_step):
        x = k / tau
        if zeta is None:
            shape = -math.expm1(-x)
        else:
            wd = math.sqrt(1.0 - zeta * zeta)
            shape = 1.0 - math.exp(-zeta * x) * (
                math.cos(wd * x) + zeta / wd * math.sin(wd * x))
        y.append(offset + gain * shape + post_noise * rng.uniform(-1.0, 1.0))
    band = 10.0 ** draw(st.floats(-12.0, math.log10(0.5)))
    return [k * si for k in range(n)], y, k_step * si, band


class TestGradingOracle:
    """The shipped grader equals the progress-list grader it replaced:
    the same metrics bit for bit, or the same failure reason."""

    @settings(max_examples=300)
    @given(graded_responses())
    # reaches 0.9 only at its last sample, the whole tail
    @example(([0.0, 0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.5, 0.5, 1.0], 0.1,
              0.025))
    # a band wider than the whole response: settled from the first sample
    @example(([0.0, 0.1, 0.2, 0.3], [0.0, 1.0, 1.0, 1.0], 0.0, 1.5))
    # the last two samples lie exactly on the edges of a 2**-10 band,
    # which counts as inside it
    @example(([k * 0.1 for k in range(20)],
              [0.0] + [1.0] * 17 + [1.0 - 2.0**-10, 1.0 + 2.0**-10], 0.0,
              2.0**-10))
    # the sum of y overflows, but its one-sample tail's does not
    @example(([0.0, 0.1, 0.2, 0.3], [0.0, 1e308, 1e308, 1e308], 0.0, 0.1))
    def test_equals_the_progress_list_grader(self, case):
        assert (_graded(_step_response_metrics, *case)
                == _graded(reference_metrics, *case))


class TestCascadeMonotonicity:
    def test_doubling_lag_never_decreases_rise_time(self):
        plant = PVPlantConfig(headroom=0.1)
        sim = SimConfig(t_end=40.0)
        rises = []
        for t_lag in (0.1, 0.2, 0.4, 0.8):
            resp = run_step_test(droop_spec(t_lag=t_lag), plant, sim=sim)
            report = evaluate_compliance(resp)
            rises.append(report.criteria["rise_time"].value)
        assert rises == sorted(rises)


class TestThresholdValidation:
    def test_default_step_magnitude(self):
        assert ComplianceThresholds().step_magnitude == 0.002


class TestWorkCount:
    """The opcodes ``gridfreq.compliance`` executes per iterated step of
    the step test (see ``tests/work_count.py``). A change to the loop
    updates the table and states the change per case."""

    # Opcodes of steps 769-1280 at dt 0.001 and sample stride 2, the step
    # at 0.256 s on a chunk boundary, by Python version. None of those
    # 512 steps settles, so every one is iterated.
    OPCODES = {(3, 11): {
        "droop": 32854, "droop+rate": 40022, "inertia": 45142,
        "inertia+rate": 52310, "combined": 53334, "combined+rate": 60502}}

    def test_opcodes_per_iterated_step(self):
        table = {}
        for kind in ("droop", "inertia", "combined"):
            for rate in (None, 0.5):
                plant = PVPlantConfig(headroom=0.1, rate_limit=rate)

                def run(n, kind=kind, plant=plant):
                    sim = SimConfig(dt=0.001, sample_interval=0.002,
                                    t_end=0.001 * (256 + n))
                    run_step_test(ControllerSpec(kind=kind), plant, sim=sim,
                                  step_time=0.256)

                name = kind + "+rate" * (rate is not None)
                table[name], repeats = step_work(
                    run, 512, gridfreq.compliance.__file__)
                assert repeats, name
        assert table == pinned(table, self.OPCODES)
        kinds = [table[kind] for kind in ("droop", "inertia", "combined")]
        assert kinds == sorted(set(kinds))
