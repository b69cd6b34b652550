"""Analytic checks of the shipped control blocks.

The deadband is ``compliance._deadband``. The lag and the washout are the
droop and inertia paths of ``compliance.make_controller``'s held-input
controller, reduced to the bare block by their gains. The plant envelope is the magnitude clamp
and rate limit inside ``compliance.run_step_test``, fed scripted commands
by a stub controller.
"""

import math
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfreq import compliance
from gridfreq.compliance import _deadband, make_controller, run_step_test
from gridfreq.scenario import (ControllerSpec, DroopConfig, InertiaConfig,
                               PVPlantConfig, SimConfig)


def droop_lag(t_const, dt):
    """The droop path as a bare lag: no deadband and r = 1, so each
    command is exactly minus the lag state. ``lag(u, n)`` holds ``u`` for
    ``n`` steps and returns the sampled states."""
    hold = make_controller(ControllerSpec(
        kind="droop",
        droop=DroopConfig(r=1.0, deadband=0.0, t_lag=t_const)), dt)
    return lambda u, n=1: [-c for c in hold(u, n)]


def inertia_washout(t_washout, dt):
    """The inertia path as a bare washout: no deadband, k = 1 and a lag
    so fast that its update coefficient is exactly 1, so the lag passes
    its input through. ``washout(u, n)`` returns the sampled outputs
    (u - x)/T, minus the commands."""
    hold = make_controller(ControllerSpec(
        kind="inertia",
        inertia=InertiaConfig(k=1.0, deadband=0.0, t_lag=1e-9,
                              t_washout=t_washout)), dt)
    return lambda u, n=1: [-c for c in hold(u, n)]


def envelope(monkeypatch, cmds, headroom, rate_limit=None, dt=0.1):
    """The step test's plant output when its controller requests ``cmds``
    from the step on: a stub replaces the controller, and an inverter lag
    so fast that its update coefficient is exactly 1 delivers each
    enveloped command as the next sample."""
    def stub(spec, step):
        requests = iter(cmds)

        def hold(delta_f, n):
            return [0.0] * n if delta_f == 0.0 else list(islice(requests, n))
        return hold

    monkeypatch.setattr(compliance, "make_controller", stub)
    plant = PVPlantConfig(headroom=headroom, t_inv=1e-9,
                          rate_limit=rate_limit)
    n = len(cmds)
    response = run_step_test(
        ControllerSpec(kind="droop"), plant,
        sim=SimConfig(dt=dt, t_end=(n + 1) * dt, sample_interval=dt),
        step_time=dt)
    return response.y[2:]


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
    def test_single_step_analytic(self):
        y, = droop_lag(1.0, 0.1)(1.0)
        assert y == pytest.approx(1.0 - math.exp(-0.1), abs=1e-12)
        assert y == pytest.approx(0.0951626, abs=1e-7)

    def test_fixed_point(self):
        for dt in (0.001, 0.1, 3.0):
            lag = droop_lag(0.7, dt)
            y = lag(0.5, 3)[-1]
            assert lag(y, 4) == [y] * 4

    def test_pass_through_limit(self):
        y, = droop_lag(0.001, 1.0)(1.0)
        assert y == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(min_value=0.05, max_value=5),
           st.floats(min_value=0.001, max_value=0.5),
           st.integers(min_value=1, max_value=200),
           st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-2, max_value=2))
    def test_exact_exponential_convergence(self, t_const, dt, n, y0, u):
        """|y(n dt) - u| = |y0 - u| exp(-n dt / T): discretization exact,
        from the state y0 one step toward an earlier input leaves."""
        lag = droop_lag(t_const, dt)
        y0 = lag(y0)[-1]
        y = lag(u, n)[-1]
        expected = u + (y0 - u) * math.exp(-n * dt / t_const)
        assert y == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=-1, max_value=1),
           st.floats(min_value=-1, max_value=1),
           st.floats(min_value=0.01, max_value=1))
    def test_stays_within_envelope(self, y0, u, dt):
        lag = droop_lag(0.3, dt)
        y0 = lag(y0)[-1]
        lo, hi = min(y0, u), max(y0, u)
        for y in lag(u, 50):
            assert lo - 1e-12 <= y <= hi + 1e-12


class TestWashout:
    def test_constant_input_at_equilibrium(self):
        washout = inertia_washout(0.1, 0.05)
        assert washout(0.0, 3) == [0.0] * 3
        # a held 0.42 settles to zero within the rounding of its state
        assert abs(washout(0.42, 200)[-1]) <= 1e-14

    def test_step_response_decays_analytically(self):
        # step 0 -> 1 with T=0.1: output 10 exp(-t/0.1) at the samples
        dt = 0.02
        for k, y in enumerate(inertia_washout(0.1, dt)(1.0, 19), 1):
            assert y == pytest.approx(10.0 * math.exp(-k * dt / 0.1),
                                      abs=1e-10)

    def test_constant_decays_below_threshold(self):
        y = inertia_washout(0.1, 0.01)(1.0, 300)[-1]
        assert abs(y) < 1e-9

    def test_ramp_settles_to_slope(self):
        washout = inertia_washout(0.1, 0.001)
        m = -0.00833
        dt = 0.001
        y = 0.0
        for k in range(2000):  # 2 s = 20 washout time constants
            y, = washout(m * k * dt)
        assert y == pytest.approx(m, rel=0.01)


class TestLimitSpec:
    @pytest.mark.parametrize(
        "cmd, expected",
        [(0.05, 0.05), (0.15, 0.1), (-1.2, -0.9)],
    )
    def test_magnitude_clamp(self, monkeypatch, cmd, expected):
        # headroom 0.1 of available power 1: the envelope is [-0.9, 0.1]
        assert envelope(monkeypatch, [cmd], headroom=0.1) == [expected]

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
