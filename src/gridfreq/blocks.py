"""Elementary signal-processing blocks used by the frequency controllers.

All blocks operate on per-unit signals and are advanced with explicit time
steps. The dynamic blocks (lag, washout) use the exact zero-order-hold
discretization, so a constant input reproduces the continuous-time response
exactly at the sample instants and the update is unconditionally stable for
any step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Deadband:
    """Offset-style deadband: zero inside the band, shifted linear outside.

    The offset form is continuous at the band edge, so the downstream power
    command never jumps when the input crosses +/-width.
    """

    width: float = 0.0

    def __post_init__(self) -> None:
        if self.width < 0.0:
            raise ValueError(f"deadband width must be >= 0, got {self.width}")

    def apply(self, u: float) -> float:
        if u > self.width:
            return u - self.width
        if u < -self.width:
            return u + self.width
        return 0.0


class FirstOrderLag:
    """Unit-gain low-pass filter 1/(1 + sT) with internal state ``y``."""

    def __init__(self, time_constant: float, y0: float = 0.0):
        if time_constant <= 0.0:
            raise ValueError(
                f"lag time constant must be > 0, got {time_constant}"
            )
        self.time_constant = time_constant
        self.y = y0

    def step(self, u: float, dt: float) -> float:
        """Advance the state by ``dt`` with input ``u`` held constant.

        Exact update: y <- y + (u - y) * (1 - exp(-dt/T)).
        """
        if dt < 0.0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        self.y += (u - self.y) * -math.expm1(-dt / self.time_constant)
        return self.y


class Washout:
    """High-pass filter s/(1 + sT), a finite-bandwidth derivative estimator.

    The state ``x`` tracks the low-pass-filtered input; the output is
    (u - x)/T. A constant input decays to zero output, a ramp of slope m
    settles to output m.
    """

    def __init__(self, time_constant: float, x0: float = 0.0):
        if time_constant <= 0.0:
            raise ValueError(
                f"washout time constant must be > 0, got {time_constant}"
            )
        self.time_constant = time_constant
        self.x = x0

    def output(self, u: float) -> float:
        """Instantaneous output for input ``u`` at the current state."""
        return (u - self.x) / self.time_constant

    def step(self, u: float, dt: float) -> float:
        """Advance by ``dt`` with ``u`` held constant; return the sampled
        (post-update) output."""
        if dt < 0.0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        self.x = u + (self.x - u) * math.exp(-dt / self.time_constant)
        return (u - self.x) / self.time_constant


@dataclass(frozen=True)
class LimitSpec:
    """Magnitude limits with an optional rate limit (None = unlimited)."""

    up_limit: float
    down_limit: float
    rate_limit: float | None = None

    def __post_init__(self) -> None:
        if self.up_limit < self.down_limit:
            raise ValueError(
                f"up_limit {self.up_limit} < down_limit {self.down_limit}"
            )
        if self.rate_limit is not None and self.rate_limit <= 0.0:
            raise ValueError(f"rate_limit must be > 0, got {self.rate_limit}")

    def apply(self, cmd: float, prev: float = 0.0, dt: float = 0.0) -> float:
        """Clamp ``cmd`` into the magnitude band, then limit the change from
        ``prev`` to +/- rate_limit * dt."""
        out = min(max(cmd, self.down_limit), self.up_limit)
        if self.rate_limit is not None:
            if dt <= 0.0:
                raise ValueError("dt must be > 0 when rate limiting")
            max_delta = self.rate_limit * dt
            out = min(max(out, prev - max_delta), prev + max_delta)
        return out
