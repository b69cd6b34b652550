"""Every field of every config dataclass rejects a value of the wrong type,
and every number field NaN and +/-inf, however the config is built, with a
``ValueError`` naming the field. A scenario rejection names the field by
its dotted path, once, on every input path."""

import dataclasses
import math
import re

import pytest

from gridfreq.compliance import ComplianceThresholds
from gridfreq.engine import SimConfig
from gridfreq.grid import Contingency, GovernorFleet, SystemParams
from gridfreq.headroom import HeadroomQuery
from gridfreq.pv import (ControllerSpec, DroopConfig, InertiaConfig,
                         PVPlantConfig)
from gridfreq.scenario import (ScenarioError, preset_scenario,
                               scenario_from_dict, set_param,
                               valid_param_paths)

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
    ControllerSpec(),
    preset_scenario("ei80"),
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


# Fields that take None as a value.
OPTIONAL = {(PVPlantConfig, "rate_limit")}


def wrong_values(config, name):
    """Values of the wrong type for field ``name`` of ``config``: None
    where the field is required, True and "1" for a number, 1.0 for a
    boolean or a string, and another class or a plain dict for a
    section."""
    value = getattr(config, name)
    bad = [] if (type(config), name) in OPTIONAL else [None]
    if type(value) is float:
        return bad + [True, "1"]
    if type(value) in (bool, str):
        return bad + [1.0]
    assert dataclasses.is_dataclass(value), (type(config), name)
    other = SimConfig() if type(value) is not SimConfig else DroopConfig()
    return bad + [other, {}]


WRONG_TYPES = [(config, f.name, bad) for config in VALID
               for f in dataclasses.fields(config)
               for bad in wrong_values(config, f.name)]


@pytest.mark.parametrize(
    "config, name, bad", WRONG_TYPES,
    ids=[f"{type(c).__name__}.{name}={bad!r}"
         for c, name, bad in WRONG_TYPES])
def test_wrong_type_is_rejected(config, name, bad):
    with pytest.raises(ValueError,
                       match=f"^{name} must be .*, got "
                             f"{re.escape(repr(bad))}$"):
        dataclasses.replace(config, **{name: bad})


def test_int_number_is_stored_as_float():
    # A document's 2 and Python's 2 give the same config as 2.0.
    system = SystemParams(h_sys=2)
    assert type(system.h_sys) is float and system == SystemParams(h_sys=2.0)


def test_int_beyond_float_range_is_not_finite():
    # float() of such an int raises OverflowError, which used to escape
    # as a traceback from a document's 400-digit integer.
    with pytest.raises(ValueError, match="^h_sys must be finite, got inf$"):
        SystemParams(h_sys=10 ** 400)


def nested(path, value):
    """The document that sets dotted ``path`` to ``value``."""
    doc = value
    for key in reversed(path.split(".")):
        doc = {key: doc}
    return doc


# A rejected value per field that is not a string: one of the wrong type
# and one that breaks the field's rule; every number rule rejects NaN.
BAD_VALUES = [(path, bad) for path in valid_param_paths()
              if path != "controller.kind"
              for bad in ((1.0,) if path.endswith("recovery_clamp")
                          else ("1", math.nan))]
# The string fields; the controller kind is also a set_param path.
STRING_BAD_VALUES = [("controller.kind", 1.0), ("controller.kind", "sync"),
                     ("name", 1.0), ("name", {"a": 1})]


def assert_names_path_once(exc, path):
    message = str(exc)
    assert message.startswith(f"{path} must be "), message
    assert message.count(path) == 1, message


@pytest.mark.parametrize("path, bad", BAD_VALUES + STRING_BAD_VALUES)
def test_document_rejection_names_dotted_path_once(path, bad):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict({"preset": "ei80", **nested(path, bad)})
    assert_names_path_once(info.value, path)


@pytest.mark.parametrize("path, bad", BAD_VALUES + STRING_BAD_VALUES[:2])
def test_set_param_rejection_names_dotted_path_once(path, bad):
    with pytest.raises(ScenarioError) as info:
        set_param(preset_scenario("ei80"), path, bad)
    assert_names_path_once(info.value, path)


def test_cross_field_rejection_names_dotted_path_once():
    # SimConfig's own rule between two fields takes the same form.
    for build in (lambda: scenario_from_dict(
                      {"preset": "ei80", "sim": {"dt": 0.02}}),
                  lambda: set_param(preset_scenario("ei80"), "sim.dt",
                                    0.02)):
        with pytest.raises(ScenarioError) as info:
            build()
        assert_names_path_once(info.value, "sim.sample_interval")
