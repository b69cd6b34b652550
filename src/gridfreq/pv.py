"""PV plant frequency controllers and the plant output envelope.

Three controller topologies are supported:

* droop       -- deadband -> low-pass lag -> gain 1/r, proportional support.
* inertia     -- deadband -> low-pass lag -> gain k -> washout, a synthetic
                 inertia response proportional to -d(delta_f)/dt.
* combined    -- the sum of the droop and inertia paths.

Commands are in plant per-unit on the nameplate base (P_min = 0, P_max = 1
times available power). The plant envelope clamps commands into the headroom
band, optionally rate-limits them, applies the inverter lag, and scales to
the system base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import Deadband, FirstOrderLag, LimitSpec, Washout

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

    def limits(self) -> LimitSpec:
        return LimitSpec(up_limit=self.up_limit, down_limit=self.down_limit,
                         rate_limit=self.rate_limit)


@dataclass(frozen=True)
class ControllerSpec:
    """Controller selection plus the parameters of both paths."""

    kind: str = "none"
    droop: DroopConfig = DroopConfig()
    inertia: InertiaConfig = InertiaConfig()

    def __post_init__(self) -> None:
        validate_kind(self.kind)


class DroopController:
    """Deadband -> lag -> gain. Output opposes the frequency deviation:
    a steady deviation df beyond the band settles to -(df -/+ band)/r."""

    def __init__(self, cfg: DroopConfig):
        self.cfg = cfg
        self._db = Deadband(cfg.deadband)
        self._lag = FirstOrderLag(cfg.t_lag)

    def step(self, delta_f: float, dt: float) -> float:
        return -self._lag.step(self._db.apply(delta_f), dt) / self.cfg.r


class InertiaController:
    """Deadband -> lag -> gain -> washout. Once the filters settle the
    output approximates -k * d(delta_f)/dt.

    With ``recovery_clamp`` on, output whose sign would oppose arresting the
    event is zeroed: clamped to >= 0 while delta_f < 0 and <= 0 while
    delta_f > 0, so the plant never withdraws support during recovery.
    """

    def __init__(self, cfg: InertiaConfig):
        self.cfg = cfg
        self._db = Deadband(cfg.deadband)
        self._lag = FirstOrderLag(cfg.t_lag)
        self._wash = Washout(cfg.t_washout)

    def step(self, delta_f: float, dt: float) -> float:
        filtered = self._lag.step(self._db.apply(delta_f), dt)
        cmd = -self._wash.step(self.cfg.k * filtered, dt)
        if self.cfg.recovery_clamp:
            if delta_f < 0.0:
                cmd = max(cmd, 0.0)
            elif delta_f > 0.0:
                cmd = min(cmd, 0.0)
        return cmd


class CombinedController:
    """Sum of an independent droop path and an independent inertia path."""

    def __init__(self, droop_cfg: DroopConfig, inertia_cfg: InertiaConfig):
        self.droop = DroopController(droop_cfg)
        self.inertia = InertiaController(inertia_cfg)

    def step(self, delta_f: float, dt: float) -> float:
        return self.droop.step(delta_f, dt) + self.inertia.step(delta_f, dt)


class ZeroController:
    """No frequency response (the default PV behaviour)."""

    def step(self, delta_f: float, dt: float) -> float:
        return 0.0


def make_controller(spec: ControllerSpec):
    """Instantiate the controller selected by ``spec.kind``."""
    kind = validate_kind(spec.kind)
    if kind == "none":
        return ZeroController()
    if kind == "droop":
        return DroopController(spec.droop)
    if kind == "inertia":
        return InertiaController(spec.inertia)
    return CombinedController(spec.droop, spec.inertia)


class PVPlant:
    """Plant envelope: headroom/curtailment clamp, optional rate limit,
    inverter lag, and scaling from plant to system base."""

    def __init__(self, cfg: PVPlantConfig):
        self.cfg = cfg
        self._limits = cfg.limits()
        self._lag = FirstOrderLag(cfg.t_inv)
        self._prev = 0.0

    @property
    def output_plant_pu(self) -> float:
        """Current output deviation in plant pu (post inverter lag)."""
        return self._lag.y

    def step(self, cmd: float, dt: float) -> float:
        """Apply the envelope to ``cmd`` (plant pu) and advance the inverter
        lag; returns the plant output deviation in system pu."""
        limited = self._limits.apply(cmd, self._prev, dt)
        self._prev = limited
        return self.cfg.c_pv * self._lag.step(limited, dt)
