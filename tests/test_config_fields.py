"""Every number field of every config dataclass rejects NaN and +/-inf,
however the config is built, with a ``ValueError`` naming the field."""

import dataclasses
import math
import re

import pytest

from gridfreq.compliance import ComplianceThresholds
from gridfreq.engine import SimConfig
from gridfreq.grid import Contingency, GovernorFleet, SystemParams
from gridfreq.headroom import HeadroomQuery
from gridfreq.pv import DroopConfig, InertiaConfig, PVPlantConfig
from gridfreq.scenario import preset_scenario

# One valid instance per config dataclass, with every optional number set.
VALID = [
    DroopConfig(),
    InertiaConfig(),
    PVPlantConfig(rate_limit=0.5),
    GovernorFleet(),
    SystemParams(h_sys=2.0),
    Contingency(dp=0.01),
    SimConfig(),
    ComplianceThresholds(),
    HeadroomQuery(scenario=preset_scenario("ei80"), controller="droop",
                  target_nadir_hz=59.5),
]

NUMBER_FIELDS = [
    (config, f.name) for config in VALID for f in dataclasses.fields(config)
    if type(getattr(config, f.name)) is float]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "config, name", NUMBER_FIELDS,
    ids=[f"{type(c).__name__}.{name}" for c, name in NUMBER_FIELDS])
def test_non_finite_number_is_rejected(config, name, bad):
    with pytest.raises(ValueError,
                       match=f"^{name} must be finite, got "
                             f"{re.escape(str(bad))}$"):
        dataclasses.replace(config, **{name: bad})
