"""Block-per-object zero-order-hold (ZOH) reference for the PV controller
and plant envelope.

An independent oracle for the shipped held-input controller (``gridfreq
.compliance.make_controller``) and the one-loop open-loop test
(``gridfreq.compliance.run_step_test``): every filter is its own object
that recomputes its coefficient and re-applies the deadband and recovery
clamp on each step, and the envelope applies the magnitude clamp and rate
limit through ``LimitSpec``'s ``min``/``max``. The step grid (the
step count, the sample stride and the first step at or after
``step_time``) is ``SimConfig.step_grid``'s, as in the shipped loop.
The tests compare the two with ``==`` on ``signed`` values, so zero signs
count too; both keep the same float operation order, so they agree bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from gridfreq.compliance import ComplianceThresholds, StepResponse
from gridfreq.scenario import (ControllerSpec, DroopConfig, InertiaConfig,
                               PVPlantConfig, SimConfig)


def signed(values):
    """``values`` with each zero's sign made visible to ``==``."""
    return [(v, math.copysign(1.0, v)) for v in values]


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
    """Deadband -> lag -> gain -> washout, with the optional recovery
    clamp (output >= 0 while delta_f < 0, <= 0 while delta_f > 0)."""

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
    """No frequency response."""

    def step(self, delta_f: float, dt: float) -> float:
        return 0.0


def reference_controller(spec: ControllerSpec):
    """The block controller selected by ``spec.kind``."""
    if spec.kind == "none":
        return ZeroController()
    if spec.kind == "droop":
        return DroopController(spec.droop)
    if spec.kind == "inertia":
        return InertiaController(spec.inertia)
    return CombinedController(spec.droop, spec.inertia)


class PVPlant:
    """Plant envelope: headroom/curtailment clamp, optional rate limit,
    inverter lag, and scaling from plant to system base."""

    def __init__(self, cfg: PVPlantConfig):
        self.cfg = cfg
        self._limits = LimitSpec(up_limit=cfg.up_limit,
                                 down_limit=cfg.down_limit,
                                 rate_limit=cfg.rate_limit)
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


def reference_step_test(controller_spec: ControllerSpec,
                        plant_cfg: PVPlantConfig,
                        thresholds: ComplianceThresholds | None = None,
                        *, sim: SimConfig,
                        step_time: float = 1.0) -> StepResponse:
    """The open-loop step test on the block objects: same arguments and
    sample grid as ``run_step_test``, without its controller-kind check."""
    thr = thresholds or ComplianceThresholds()
    controller = reference_controller(controller_spec)
    plant = PVPlant(plant_cfg)
    dt = sim.dt
    n_steps, stride, k_step = sim.step_grid(step_time, "step_time")
    t_list = [0.0]
    y_list = [0.0]
    for k in range(n_steps):
        delta_f = -thr.step_magnitude if k >= k_step else 0.0
        plant.step(controller.step(delta_f, dt), dt)
        if (k + 1) % stride == 0:
            t_list.append((k + 1) * dt)
            y_list.append(plant.output_plant_pu)
    return StepResponse(t=t_list, y=y_list, step_time=step_time,
                        step_magnitude=thr.step_magnitude)
