"""Aggregated single-bus frequency dynamics.

The interconnection is reduced to one swing equation with load damping, a
partially responsive governor fleet modelled as a single first-order path,
and one equivalent PV plant. Deviations are per-unit on the system base;
frequency deviation is per-unit on the nominal frequency. Each field's
annotation states its type and any constraint, and ``pv.check_fields``
rejects, naming the field, a value of the wrong type, a number that is
not finite, or one that breaks its constraint. The named presets that
fill these classes are ``scenario.preset_scenario``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .pv import (_KIND_PATHS, Fraction, NonNegative, Positive,
                 PVPlantConfig, check_fields)

if TYPE_CHECKING:
    from .scenario import Scenario


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


def steady_state_deviation(scenario: "Scenario") -> float:
    """Quasi-steady frequency deviation (pu) after primary response settles.

    Analytic balance of ``scenario``'s contingency, neglecting deadbands
    and limits: delta_f = -dp / (kappa/r_gov + d_load [+ c_pv/r]), where
    the PV droop term, with the droop path's ``r``, counts when the
    controller kind is droop or combined. With no responsive resource the
    denominator is zero and ``ValueError`` is raised.
    """
    system = scenario.system
    denom = system.governor.kappa / system.governor.r_gov + system.d_load
    if _KIND_PATHS[scenario.controller.kind][0]:
        denom += system.pv.c_pv / scenario.controller.droop.r
    if denom == 0.0:
        raise ValueError(
            "no responsive resources: kappa/r_gov + d_load is zero"
        )
    return -scenario.contingency.dp / denom

