"""Aggregated single-bus frequency dynamics.

The interconnection is reduced to one swing equation with load damping, a
partially responsive governor fleet modelled as a single first-order path,
and one equivalent PV plant. Deviations are per-unit on the system base;
frequency deviation is per-unit on the nominal frequency. Each number
field's annotation declares its constraint, and ``pv.check_fields``
rejects a value that breaks it or is not finite, naming the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .pv import (Fraction, NonNegative, Positive, PVPlantConfig,
                 check_fields)


@dataclass(frozen=True)
class GovernorFleet:
    """Responsive share of the synchronous fleet behind one governor lag.

    ``kappa`` is the fraction of synchronous generation that responds,
    ``r_gov`` its droop, ``t_gov`` the turbine-governor time constant and
    ``reserve_limit`` the cap on the mechanical power deviation.
    """

    kappa: Fraction = 0.3
    r_gov: Positive = 0.05
    t_gov: Positive = 8.0
    reserve_limit: Positive = 0.2

    __post_init__ = check_fields


@dataclass(frozen=True)
class SystemParams:
    """Aggregated grid parameters on the system base."""

    h_sys: Positive
    d_load: NonNegative = 1.0
    f0: Positive = 60.0
    governor: GovernorFleet = field(default_factory=GovernorFleet)
    pv: PVPlantConfig = field(default_factory=PVPlantConfig)

    __post_init__ = check_fields


@dataclass(frozen=True)
class Contingency:
    """A step generation/load imbalance: dp > 0 removes generation
    (underfrequency), dp < 0 removes load (overfrequency)."""

    dp: float
    t_event: NonNegative = 1.0

    __post_init__ = check_fields


def steady_state_deviation(params: SystemParams, dp: float,
                           include_pv_droop: bool = False,
                           r_droop: float = 0.05) -> float:
    """Quasi-steady frequency deviation (pu) after primary response settles.

    Analytic balance neglecting deadbands and limits:
    delta_f = -dp / (kappa/r_gov + d_load [+ c_pv/r_droop]). A non-finite
    ``dp``, or with ``include_pv_droop`` an ``r_droop`` outside (0, inf),
    raises ``ValueError`` naming the argument.
    """
    if not math.isfinite(dp):
        raise ValueError(f"dp must be finite, got {dp}")
    denom = params.governor.kappa / params.governor.r_gov + params.d_load
    if include_pv_droop:
        if not 0.0 < r_droop < math.inf:
            raise ValueError(f"r_droop must be > 0 and finite, got {r_droop}")
        denom += params.pv.c_pv / r_droop
    if denom == 0.0:
        raise ValueError(
            "no responsive resources: kappa/r_gov + d_load is zero"
        )
    return -dp / denom


# Desk-scale stand-ins for high-renewable interconnection equivalents.
# ei80 is a large high-inertia grid with a relatively shallow worst event;
# ercot80 a small low-inertia grid with a deep one that needs more PV
# reserve. The numbers are synthetic calibration targets, not measurements
# of any real system.
PRESETS: dict[str, dict[str, float]] = {
    "ei80": {"h_sys": 2.0, "d_load": 1.0, "dp": 0.009, "headroom": 0.05},
    "ercot80": {"h_sys": 1.5, "d_load": 1.0, "dp": 0.04, "headroom": 0.1},
}


def preset_params(name: str) -> tuple[SystemParams, Contingency]:
    """System parameters and design contingency for a named preset."""
    if name not in PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; valid presets: "
            f"{', '.join(sorted(PRESETS))}"
        )
    entry = PRESETS[name]
    system = SystemParams(h_sys=entry["h_sys"], d_load=entry["d_load"],
                          pv=PVPlantConfig(headroom=entry["headroom"]))
    contingency = Contingency(dp=entry["dp"], t_event=1.0)
    return system, contingency
