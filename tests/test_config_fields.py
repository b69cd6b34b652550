"""Every field of every config dataclass rejects a value of the wrong type,
and every number field NaN and +/-inf, however the config is built, with a
``ValueError`` naming the field; every field that declares a rule also
rejects a value just outside it and accepts the rule's inclusive bounds.
A scenario rejection names the field by its dotted path, once, on every
input path."""

import dataclasses
import functools
import math
import re

import pytest

import gridfreq
from gridfreq.compliance import ComplianceThresholds
from gridfreq.headroom import HeadroomQuery
from gridfreq.scenario import (Contingency, ControllerSpec, DroopConfig,
                               GovernorFleet, InertiaConfig, PVPlantConfig,
                               ScenarioError, SimConfig, SystemParams,
                               _field_contracts, preset_scenario,
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
    SimConfig(dt=1e-6, t_end=1.0),  # so sample_interval may reach 1e-6
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


# Every field that declares a rule, by the rule's text: (the values just
# outside the rule, which each field rejects; the rule's inclusive bounds,
# which each field accepts; the fields).
RULES = {
    "> 0": ((0.0, -1.0), (), """
        DroopConfig.r DroopConfig.t_lag InertiaConfig.t_lag
        InertiaConfig.t_washout PVPlantConfig.c_pv
        PVPlantConfig.available_power PVPlantConfig.t_inv
        PVPlantConfig.rate_limit GovernorFleet.r_gov GovernorFleet.t_gov
        GovernorFleet.reserve_limit SystemParams.h_sys SystemParams.f0
        SimConfig.dt SimConfig.t_end SimConfig.rocof_window
        ComplianceThresholds.step_magnitude ComplianceThresholds.max_reaction
        ComplianceThresholds.max_rise ComplianceThresholds.max_settling
        ComplianceThresholds.max_overshoot ComplianceThresholds.settling_band
        HeadroomQuery.tolerance"""),
    ">= 0": ((-1e-9, -1.0), (0.0,), """DroopConfig.deadband InertiaConfig.k
        InertiaConfig.deadband SystemParams.d_load Contingency.t_event"""),
    "in [0, 1]": ((-0.1, 1.5), (0.0, 1.0), "GovernorFleet.kappa"),
    "in [0, 1)": ((1.0, -0.1), (0.0,), "PVPlantConfig.headroom"),
    "in (0, 1)": ((1.0, 0.0), (), "HeadroomQuery.h_max"),
    ">= 1e-06": ((5e-7, 0.0), (1e-6,), "SimConfig.sample_interval"),
    "one of none, droop, inertia, combined": (("sync",), (),
                                              "ControllerSpec.kind"),
    "one of droop, inertia, combined": (("none",), (),
                                        "HeadroomQuery.controller"),
}
RULE_OF = {field: rule for rule, (_, _, fields) in RULES.items()
           for field in fields.split()}


def test_rule_table_covers_every_declared_rule():
    # A field declares a rule when its test is not None or math.isfinite.
    assert RULE_OF == {
        f"{cls.__name__}.{name}": rule
        for cls in map(gridfreq.__dict__.get, gridfreq.__all__)
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        for name, *_, rule, test in _field_contracts(cls)
        if test not in (None, math.isfinite)}


def build(field, value):
    """The valid instance of ``Class.field``'s class, the field set."""
    cls, name = field.split(".")
    config, = (c for c in VALID if type(c).__name__ == cls)
    return dataclasses.replace(config, **{name: value})


@pytest.mark.parametrize("field, bad", [
    (field, bad) for field, rule in RULE_OF.items() for bad in RULES[rule][0]])
def test_value_outside_rule_is_rejected(field, bad):
    message = f"{field.split('.')[1]} must be {RULE_OF[field]}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(field, bad)


@pytest.mark.parametrize("field, bound", [
    (field, bound) for field, rule in RULE_OF.items()
    for bound in RULES[rule][1]])
def test_inclusive_bound_is_accepted(field, bound):
    # VALID meets each rule between two fields at a bound (see SimConfig).
    assert getattr(build(field, bound), field.split(".")[1]) == bound


def nested(path, value):
    """The document that sets dotted ``path`` to ``value``."""
    doc = value
    for key in reversed(path.split(".")):
        doc = {key: doc}
    return doc


def rule_of(path):
    """The rule of the scenario field at dotted ``path``, or None."""
    *sections, name = path.split(".")
    config = functools.reduce(getattr, sections, preset_scenario("ei80"))
    return RULE_OF.get(f"{type(config).__name__}.{name}")


# A rejected value per field that is not a string: one of the wrong type
# and, for a number, NaN.
BAD_VALUES = [(path, bad) for path in valid_param_paths()
              if path != "controller.kind"
              for bad in ((1.0,) if path.endswith("recovery_clamp")
                          else ("1", math.nan))]
# The string fields; the controller kind is also a set_param path.
STRING_BAD_VALUES = [("controller.kind", 1.0), ("controller.kind", "sync"),
                     ("name", 1.0), ("name", {"a": 1})]
# The first value outside the rule of each number field that has one.
RULE_BAD_VALUES = [(path, RULES[rule_of(path)][0][0])
                   for path in valid_param_paths()
                   if rule_of(path) and path != "controller.kind"]


def assert_names_path_once(exc, path, bad=None):
    message = str(exc)
    assert message.startswith(f"{path} must be "), message
    assert message.count(path) == 1, message
    rule = rule_of(path)
    if rule and bad in RULES[rule][0]:
        assert message == f"{path} must be {rule}, got {bad!r}"


@pytest.mark.parametrize("path, bad",
                         BAD_VALUES + STRING_BAD_VALUES + RULE_BAD_VALUES)
def test_document_rejection_names_dotted_path_once(path, bad):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict({"preset": "ei80", **nested(path, bad)})
    assert_names_path_once(info.value, path, bad)


@pytest.mark.parametrize("path, bad",
                         BAD_VALUES + STRING_BAD_VALUES[:2] + RULE_BAD_VALUES)
def test_set_param_rejection_names_dotted_path_once(path, bad):
    with pytest.raises(ScenarioError) as info:
        set_param(preset_scenario("ei80"), path, bad)
    assert_names_path_once(info.value, path, bad)


def test_cross_field_rejection_names_dotted_path_once():
    # SimConfig's own rule between two fields takes the same form.
    for build in (lambda: scenario_from_dict(
                      {"preset": "ei80", "sim": {"dt": 0.02}}),
                  lambda: set_param(preset_scenario("ei80"), "sim.dt",
                                    0.02)):
        with pytest.raises(ScenarioError) as info:
            build()
        assert_names_path_once(info.value, "sim.sample_interval")
