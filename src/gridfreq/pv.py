"""PV plant frequency controllers: configuration and the discrete controller.

Three controller topologies are supported:

* droop       -- deadband -> low-pass lag -> gain 1/r, proportional support.
* inertia     -- deadband -> low-pass lag -> gain k -> washout, a synthetic
                 inertia response proportional to -d(delta_f)/dt.
* combined    -- the sum of the droop and inertia paths.

The deadband is offset-style (zero inside the band, shifted linear outside),
so commands never jump at the band edge. Commands are in plant per-unit on
the nameplate base (P_min = 0, P_max = 1 times available power). The plant
envelope clamps commands into the headroom band, optionally rate-limits
them, applies the inverter lag, and scales to the system base.

``make_controller`` is the discrete controller of the open-loop compliance
test, which runs it and the plant envelope in one loop
(``compliance.run_step_test``). Its lags and washout use the exact
zero-order-hold update, so a held input reproduces the continuous response
at the sample instants for any step size. The closed-loop engine integrates
the same paths as continuous states with RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CONTROLLER_KINDS = ("none", "droop", "inertia", "combined")


def validate_kind(kind: str) -> str:
    if kind not in CONTROLLER_KINDS:
        raise ValueError(
            f"unknown controller kind {kind!r}; "
            f"expected one of {', '.join(CONTROLLER_KINDS)}"
        )
    return kind


@dataclass(frozen=True)
class DroopConfig:
    """Proportional droop path. ``r`` is the droop on the plant nameplate
    base (0.05 = 5%: a 5% frequency deviation commands 100% of nameplate)."""

    r: float = 0.05
    deadband: float = 0.0006
    t_lag: float = 0.1

    def __post_init__(self) -> None:
        if self.r <= 0.0:
            raise ValueError(f"droop r must be > 0, got {self.r}")
        if self.deadband < 0.0:
            raise ValueError(f"deadband must be >= 0, got {self.deadband}")
        if self.t_lag <= 0.0:
            raise ValueError(f"t_lag must be > 0, got {self.t_lag}")


@dataclass(frozen=True)
class InertiaConfig:
    """Synthetic inertia path. ``k`` has units pu*s and is interpretable as
    twice the emulated inertia constant on the plant base.

    The deadband defaults to zero: the derivative path exists to act in the
    first instants of an event, and any band leaves it blind exactly then.
    A non-zero band remains available for noisy frequency feeds.
    """

    k: float = 10.0
    deadband: float = 0.0
    t_lag: float = 0.02
    t_washout: float = 0.05
    recovery_clamp: bool = False

    def __post_init__(self) -> None:
        if self.k < 0.0:
            raise ValueError(f"inertia k must be >= 0, got {self.k}")
        if self.deadband < 0.0:
            raise ValueError(f"deadband must be >= 0, got {self.deadband}")
        if self.t_lag <= 0.0:
            raise ValueError(f"t_lag must be > 0, got {self.t_lag}")
        if self.t_washout <= 0.0:
            raise ValueError(f"t_washout must be > 0, got {self.t_washout}")


@dataclass(frozen=True)
class PVPlantConfig:
    """Aggregated PV plant envelope.

    ``c_pv`` is plant nameplate over system base. ``headroom`` is the
    curtailed fraction of available power held for upward response: the
    plant operates at P0 = available_power * (1 - headroom), can move up by
    headroom * available_power and down by -P0 (to zero output).
    """

    c_pv: float = 0.4
    headroom: float = 0.05
    available_power: float = 1.0
    t_inv: float = 0.05
    rate_limit: float | None = None

    def __post_init__(self) -> None:
        if self.c_pv <= 0.0:
            raise ValueError(f"c_pv must be > 0, got {self.c_pv}")
        if not 0.0 <= self.headroom < 1.0:
            raise ValueError(
                f"headroom must be in [0, 1), got {self.headroom}"
            )
        if self.available_power <= 0.0:
            raise ValueError(
                f"available_power must be > 0, got {self.available_power}"
            )
        if self.t_inv <= 0.0:
            raise ValueError(f"t_inv must be > 0, got {self.t_inv}")
        if self.rate_limit is not None and self.rate_limit <= 0.0:
            raise ValueError(f"rate_limit must be > 0, got {self.rate_limit}")

    @property
    def operating_point(self) -> float:
        """Pre-event output P0 in plant pu."""
        return self.available_power * (1.0 - self.headroom)

    @property
    def up_limit(self) -> float:
        """Largest upward command in plant pu (the headroom)."""
        return self.available_power * self.headroom

    @property
    def down_limit(self) -> float:
        """Largest downward command in plant pu (curtail to zero)."""
        return -self.operating_point


@dataclass(frozen=True)
class ControllerSpec:
    """Controller selection plus the parameters of both paths."""

    kind: str = "none"
    droop: DroopConfig = DroopConfig()
    inertia: InertiaConfig = InertiaConfig()

    def __post_init__(self) -> None:
        validate_kind(self.kind)


def make_controller(spec: ControllerSpec, dt: float):
    """Discrete controller for a fixed step ``dt``: returns a
    ``step(delta_f) -> cmd`` closure holding the three filter states.

    Each call holds ``delta_f`` for one step and returns the sampled
    post-update command in plant pu. Droop: deadband -> lag -> -1/r, so a
    steady deviation df beyond the band settles to -(df -/+ band)/r.
    Inertia: deadband -> lag -> gain k -> washout (output (u - x)/T), which
    settles to -k * d(delta_f)/dt on a ramp. With ``recovery_clamp`` on,
    inertia output whose sign would oppose arresting the event is zeroed:
    clamped to >= 0 while delta_f < 0 and <= 0 while delta_f > 0. Combined
    is the droop command plus the inertia command; kind ``"none"`` has both
    paths off and returns 0.0.
    """
    kind = validate_kind(spec.kind)
    droop_on = kind in ("droop", "combined")
    inertia_on = kind in ("inertia", "combined")
    dcfg = spec.droop
    icfg = spec.inertia
    r = dcfg.r
    db_d = dcfg.deadband
    a_d = -math.expm1(-dt / dcfg.t_lag)
    k = icfg.k
    db_i = icfg.deadband
    a_i = -math.expm1(-dt / icfg.t_lag)
    t_w = icfg.t_washout
    e_w = math.exp(-dt / t_w)
    clamp = icfg.recovery_clamp
    y_d = y_i = x_w = 0.0

    def step(delta_f: float) -> float:
        nonlocal y_d, y_i, x_w
        cmd = 0.0
        if droop_on:
            if delta_f > db_d:
                u = delta_f - db_d
            elif delta_f < -db_d:
                u = delta_f + db_d
            else:
                u = 0.0
            y_d += (u - y_d) * a_d
            cmd = -y_d / r
        if inertia_on:
            if delta_f > db_i:
                u = delta_f - db_i
            elif delta_f < -db_i:
                u = delta_f + db_i
            else:
                u = 0.0
            y_i += (u - y_i) * a_i
            u_w = k * y_i
            x_w = u_w + (x_w - u_w) * e_w
            c_i = -((u_w - x_w) / t_w)
            if clamp:
                if delta_f < 0.0:
                    c_i = max(c_i, 0.0)
                elif delta_f > 0.0:
                    c_i = min(c_i, 0.0)
            # 0.0 + c_i would turn a -0.0 command into 0.0
            cmd = cmd + c_i if droop_on else c_i
        return cmd

    return step
