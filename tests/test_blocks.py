import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zoh_reference import Deadband, FirstOrderLag, LimitSpec, Washout


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
        assert Deadband(width).apply(u) == pytest.approx(expected,
                                                         abs=1e-15)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            Deadband(-0.001)

    @given(st.floats(min_value=-10, max_value=10),
           st.floats(min_value=0, max_value=1))
    def test_odd_function(self, u, width):
        db = Deadband(width)
        assert db.apply(-u) == -db.apply(u)

    @given(st.floats(min_value=-10, max_value=10),
           st.floats(min_value=1e-6, max_value=1))
    def test_continuous_at_band_edge(self, u, width):
        db = Deadband(width)
        out = db.apply(u)
        if abs(u) <= width:
            assert out == 0.0
        else:
            # magnitude shrinks by exactly the width: no jump at the edge
            assert abs(out) == pytest.approx(abs(u) - width, abs=1e-12)


class TestFirstOrderLag:
    def test_single_step_analytic(self):
        lag = FirstOrderLag(1.0)
        y = lag.step(1.0, 0.1)
        assert y == pytest.approx(1.0 - math.exp(-0.1), abs=1e-12)
        assert y == pytest.approx(0.0951626, abs=1e-7)

    def test_fixed_point(self):
        lag = FirstOrderLag(0.7, y0=0.5)
        for dt in (0.001, 0.1, 3.0):
            assert lag.step(0.5, dt) == 0.5

    def test_pass_through_limit(self):
        lag = FirstOrderLag(0.001)
        assert lag.step(1.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_non_positive_time_constant_rejected(self):
        with pytest.raises(ValueError):
            FirstOrderLag(0.0)
        with pytest.raises(ValueError):
            FirstOrderLag(-1.0)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            FirstOrderLag(1.0).step(0.0, -0.1)

    @given(st.floats(min_value=0.05, max_value=5),
           st.floats(min_value=0.001, max_value=0.5),
           st.integers(min_value=1, max_value=200),
           st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-2, max_value=2))
    def test_exact_exponential_convergence(self, t_const, dt, n, y0, u):
        """|y(n dt) - u| = |y0 - u| exp(-n dt / T): discretization exact."""
        lag = FirstOrderLag(t_const, y0=y0)
        for _ in range(n):
            lag.step(u, dt)
        expected = u + (y0 - u) * math.exp(-n * dt / t_const)
        assert lag.y == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=-1, max_value=1),
           st.floats(min_value=-1, max_value=1),
           st.floats(min_value=0.01, max_value=1))
    def test_stays_within_envelope(self, y0, u, dt):
        lag = FirstOrderLag(0.3, y0=y0)
        lo, hi = min(y0, u), max(y0, u)
        for _ in range(50):
            y = lag.step(u, dt)
            assert lo - 1e-12 <= y <= hi + 1e-12


class TestWashout:
    def test_constant_input_at_equilibrium(self):
        w = Washout(0.1, x0=0.42)
        assert w.step(0.42, 0.05) == 0.0

    def test_step_response_decays_analytically(self):
        # step 0 -> 1 with T=0.1: output 10 exp(-t/0.1) at the samples
        w = Washout(0.1)
        assert w.output(1.0) == pytest.approx(10.0, abs=1e-12)
        dt = 0.02
        for k in range(1, 20):
            y = w.step(1.0, dt)
            assert y == pytest.approx(10.0 * math.exp(-k * dt / 0.1),
                                      abs=1e-10)

    def test_constant_decays_below_threshold(self):
        w = Washout(0.1)
        y = 1e9
        t = 0.0
        while t < 30 * 0.1:
            y = w.step(1.0, 0.01)
            t += 0.01
        assert abs(y) < 1e-9

    def test_ramp_settles_to_slope(self):
        w = Washout(0.1)
        m = -0.00833
        dt = 0.001
        y = 0.0
        for k in range(2000):  # 2 s = 20 washout time constants
            y = w.step(m * k * dt, dt)
        assert y == pytest.approx(m, rel=0.01)

    def test_non_positive_time_constant_rejected(self):
        with pytest.raises(ValueError):
            Washout(0.0)


class TestLimitSpec:
    @pytest.mark.parametrize(
        "cmd, expected",
        [(0.05, 0.05), (0.15, 0.1), (-1.2, -0.9)],
    )
    def test_magnitude_clamp(self, cmd, expected):
        spec = LimitSpec(up_limit=0.1, down_limit=-0.9)
        assert spec.apply(cmd) == expected

    def test_rate_limit(self):
        spec = LimitSpec(up_limit=1.0, down_limit=-1.0, rate_limit=0.5)
        assert spec.apply(0.2, prev=0.0, dt=0.1) == pytest.approx(0.05)

    def test_rate_limit_requires_dt(self):
        spec = LimitSpec(up_limit=1.0, down_limit=-1.0, rate_limit=0.5)
        with pytest.raises(ValueError):
            spec.apply(0.2, prev=0.0, dt=0.0)

    def test_inverted_limits_rejected(self):
        with pytest.raises(ValueError):
            LimitSpec(up_limit=-0.5, down_limit=0.5)

    def test_non_positive_rate_rejected(self):
        with pytest.raises(ValueError):
            LimitSpec(up_limit=1.0, down_limit=-1.0, rate_limit=0.0)

    @given(st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-1, max_value=1),
           st.floats(min_value=0.01, max_value=1))
    def test_output_within_limits(self, cmd, prev, dt):
        spec = LimitSpec(up_limit=1.0, down_limit=-1.0, rate_limit=2.0)
        out = spec.apply(cmd, prev, dt)
        assert -1.0 <= out <= 1.0
        assert abs(out - prev) <= 2.0 * dt + 1e-12

    @given(st.floats(min_value=-1, max_value=1))
    def test_idempotent_when_feasible(self, cmd):
        spec = LimitSpec(up_limit=1.0, down_limit=-1.0)
        assert spec.apply(cmd) == cmd
