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
test (``compliance.run_step_test``), whose input is held over runs of
steps: ``hold(delta_f, n)`` returns the n commands of one run. Its lags and
washout use the exact zero-order-hold update, so a held input reproduces
the continuous response at the sample instants for any step size. The
closed-loop engine integrates the same paths as continuous states with RK4.

The config dataclasses here and in ``grid``, ``engine``, ``compliance`` and
``headroom`` declare each number field's constraint in its annotation, and
``check_fields`` rejects, naming the field, a value that is not finite or
breaks it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass
from typing import Annotated

CONTROLLER_KINDS = ("none", "droop", "inertia", "combined")

# Number-field constraints, declared in the field's annotation as
# ``Annotated[float, <text>, <test>]`` and enforced by ``check_fields``.
# Each test also fails NaN and +/-inf.
Positive = Annotated[float, "> 0", lambda v: 0.0 < v < math.inf]
NonNegative = Annotated[float, ">= 0", lambda v: 0.0 <= v < math.inf]
Fraction = Annotated[float, "in [0, 1]", lambda v: 0.0 <= v <= 1.0]
FractionBelowOne = Annotated[float, "in [0, 1)", lambda v: 0.0 <= v < 1.0]


@functools.cache
def _number_rules(cls: type) -> tuple[tuple, ...]:
    """``(field, optional, text, test)`` for each number field of
    dataclass ``cls``, read once from its annotations."""
    hints = typing.get_type_hints(cls, include_extras=True)
    rules = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        optional = type(None) in args
        if optional:  # X | None
            hint, = (a for a in args if a is not type(None))
        text, test = "finite", math.isfinite
        if typing.get_origin(hint) is Annotated:
            hint, text, test = typing.get_args(hint)
        if hint is float:
            rules.append((f.name, optional, text, test))
    return tuple(rules)


def check_fields(self) -> None:
    """Reject any number field of config dataclass ``self`` that is not
    finite or breaks its annotation's constraint, with ``ValueError("<field>
    must be <text>, got <value>")``; ``None`` passes an optional field."""
    for name, optional, text, test in _number_rules(type(self)):
        value = getattr(self, name)
        if not ((value is None and optional) or test(value)):
            rule = text if math.isfinite(value) else "finite"
            raise ValueError(f"{name} must be {rule}, got {value}")


def validate_kind(kind: str) -> str:
    if kind not in CONTROLLER_KINDS:
        raise ValueError(
            f"unknown controller kind {kind!r}; "
            f"expected one of {', '.join(CONTROLLER_KINDS)}"
        )
    return kind


def validate_responsive_kind(kind: str) -> str:
    """``validate_kind``, also rejecting ``"none"``, which has no response."""
    if validate_kind(kind) == "none":
        raise ValueError("controller kind 'none' has no response; choose "
                         "droop, inertia or combined")
    return kind


@dataclass(frozen=True)
class DroopConfig:
    """Proportional droop path. ``r`` is the droop on the plant nameplate
    base (0.05 = 5%: a 5% frequency deviation commands 100% of nameplate)."""

    r: Positive = 0.05
    deadband: NonNegative = 0.0006
    t_lag: Positive = 0.1

    __post_init__ = check_fields


@dataclass(frozen=True)
class InertiaConfig:
    """Synthetic inertia path. ``k`` has units pu*s and is interpretable as
    twice the emulated inertia constant on the plant base.

    The deadband defaults to zero: the derivative path exists to act in the
    first instants of an event, and any band leaves it blind exactly then.
    A non-zero band remains available for noisy frequency feeds.
    """

    k: NonNegative = 10.0
    deadband: NonNegative = 0.0
    t_lag: Positive = 0.02
    t_washout: Positive = 0.05
    recovery_clamp: bool = False

    __post_init__ = check_fields


@dataclass(frozen=True)
class PVPlantConfig:
    """Aggregated PV plant envelope.

    ``c_pv`` is plant nameplate over system base. ``headroom`` is the
    curtailed fraction of available power held for upward response: the
    plant operates at P0 = available_power * (1 - headroom), can move up by
    headroom * available_power and down by -P0 (to zero output).
    """

    c_pv: Positive = 0.4
    headroom: FractionBelowOne = 0.05
    available_power: Positive = 1.0
    t_inv: Positive = 0.05
    rate_limit: Positive | None = None

    __post_init__ = check_fields

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
    ``hold(delta_f, n) -> cmds`` closure holding the three filter states.

    Each call holds ``delta_f`` for ``n`` steps and returns the ``n``
    sampled post-update commands in plant pu; the deadbands and the
    recovery-clamp direction are evaluated once per call. Droop: deadband
    -> lag -> -1/r, so a steady deviation df beyond the band settles to
    -(df -/+ band)/r. Inertia: deadband -> lag -> gain k -> washout (output
    (u - x)/T), which settles to -k * d(delta_f)/dt on a ramp. With
    ``recovery_clamp`` on, inertia output whose sign would oppose arresting
    the event is zeroed: clamped to >= 0 while delta_f < 0 and <= 0 while
    delta_f > 0. Combined is the droop command plus the inertia command;
    kind ``"none"`` has both paths off and commands 0.0.
    """
    kind = spec.kind
    droop_on = kind in ("droop", "combined")
    inertia_on = kind in ("inertia", "combined")
    dcfg = spec.droop
    icfg = spec.inertia
    r = dcfg.r
    a_d = -math.expm1(-dt / dcfg.t_lag)
    k = icfg.k
    a_i = -math.expm1(-dt / icfg.t_lag)
    t_w = icfg.t_washout
    e_w = math.exp(-dt / t_w)
    clamp = icfg.recovery_clamp
    y_d = y_i = x_w = 0.0

    def hold(delta_f: float, n: int) -> list[float]:
        nonlocal y_d, y_i, x_w
        u_d = _deadband(delta_f, dcfg.deadband)
        u_i = _deadband(delta_f, icfg.deadband)
        # the recovery clamp zeroes an inertia command of delta_f's sign;
        # side is 0.0 when it is off or delta_f is zero
        side = float((delta_f > 0.0) - (delta_f < 0.0)) if clamp else 0.0
        cmds = []
        for _ in range(n):
            cmd = 0.0
            if droop_on:
                y_d += (u_d - y_d) * a_d
                cmd = -y_d / r
            if inertia_on:
                y_i += (u_i - y_i) * a_i
                u_w = k * y_i
                x_w = u_w + (x_w - u_w) * e_w
                c_i = -((u_w - x_w) / t_w)
                if c_i * side > 0.0:
                    c_i = 0.0
                # 0.0 + c_i would turn a -0.0 command into 0.0
                cmd = cmd + c_i if droop_on else c_i
            cmds.append(cmd)
        return cmds

    return hold


def _deadband(delta_f: float, band: float) -> float:
    """Offset-style deadband: zero inside +/-band, shifted linear outside."""
    if delta_f > band:
        return delta_f - band
    if delta_f < -band:
        return delta_f + band
    return 0.0
