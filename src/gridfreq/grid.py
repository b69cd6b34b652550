"""Aggregated single-bus frequency dynamics.

The interconnection is reduced to one swing equation with load damping, a
partially responsive governor fleet modelled as a single first-order path,
and one equivalent PV plant. Deviations are per-unit on the system base;
frequency deviation is per-unit on the nominal frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pv import PVPlantConfig


@dataclass(frozen=True)
class GovernorFleet:
    """Responsive share of the synchronous fleet behind one governor lag.

    ``kappa`` is the fraction of synchronous generation that responds,
    ``r_gov`` its droop, ``t_gov`` the turbine-governor time constant and
    ``reserve_limit`` the cap on the mechanical power deviation.
    """

    kappa: float = 0.3
    r_gov: float = 0.05
    t_gov: float = 8.0
    reserve_limit: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must be in [0, 1], got {self.kappa}")
        if self.r_gov <= 0.0:
            raise ValueError(f"r_gov must be > 0, got {self.r_gov}")
        if self.t_gov <= 0.0:
            raise ValueError(f"t_gov must be > 0, got {self.t_gov}")
        if self.reserve_limit <= 0.0:
            raise ValueError(
                f"reserve_limit must be > 0, got {self.reserve_limit}"
            )


@dataclass(frozen=True)
class SystemParams:
    """Aggregated grid parameters on the system base."""

    h_sys: float
    d_load: float = 1.0
    f0: float = 60.0
    governor: GovernorFleet = field(default_factory=GovernorFleet)
    pv: PVPlantConfig = field(default_factory=PVPlantConfig)

    def __post_init__(self) -> None:
        if self.h_sys <= 0.0:
            raise ValueError(f"h_sys must be > 0, got {self.h_sys}")
        if self.d_load < 0.0:
            raise ValueError(f"d_load must be >= 0, got {self.d_load}")
        if self.f0 <= 0.0:
            raise ValueError(f"f0 must be > 0, got {self.f0}")


@dataclass(frozen=True)
class Contingency:
    """A step generation/load imbalance: dp > 0 removes generation
    (underfrequency), dp < 0 removes load (overfrequency)."""

    dp: float
    t_event: float = 1.0

    def __post_init__(self) -> None:
        if self.t_event < 0.0:
            raise ValueError(f"t_event must be >= 0, got {self.t_event}")


def steady_state_deviation(params: SystemParams, dp: float,
                           include_pv_droop: bool = False,
                           r_droop: float = 0.05) -> float:
    """Quasi-steady frequency deviation (pu) after primary response settles.

    Analytic balance neglecting deadbands and limits:
    delta_f = -dp / (kappa/r_gov + d_load [+ c_pv/r_droop]).
    """
    denom = params.governor.kappa / params.governor.r_gov + params.d_load
    if include_pv_droop:
        if r_droop <= 0.0:
            raise ValueError(f"r_droop must be > 0, got {r_droop}")
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
