"""The scenario schema: the field contract, every section, and documents.

Each config dataclass, here and in ``compliance`` and ``headroom``, states
each field's whole contract in its annotation: its type (a number, an
optional number, a boolean, a string or a nested section) and any
constraint. ``_field_contracts`` reads the annotations once, and
``check_fields`` rejects, naming the field, a value of the wrong type, a
number that is not finite, or one that breaks its constraint.

A scenario is a single JSON document with four sections (system,
controller, contingency, sim) plus a name, and it is the whole description
of a run: the engine, the sizer, the sweeps and the CLI take the controller
kind and the integration settings from it. The config dataclasses are the
schema: a section's keys are its dataclass's fields, and each value passes
unchanged to the dataclass, whose annotations state and check its type and
constraint; unknown and repeated keys are rejected so typos fail loudly. A
named preset (``ei80``, ``ercot80``) is a partial document of the same
shape, merged beneath the given one object by object; ``preset_scenario``
builds one with a controller kind. Every section field, the controller kind
included, also has a dotted path (``system.h_sys``, ``controller.kind``)
for ``set_param``, ``--set`` and sweeps. Every rejected field is named by
its dotted path: ``system.pv.headroom must be in [0, 1), got 1.5``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field
from typing import Annotated, Any

# Each controller kind's paths: (droop path on, inertia path on).
_KIND_PATHS = {"none": (False, False), "droop": (True, False),
               "inertia": (False, True), "combined": (True, True)}
CONTROLLER_KINDS = tuple(_KIND_PATHS)

# A field's annotation is its whole contract: its type -- float (a
# number), float | None, bool, str, or a config dataclass (a nested
# section) -- and, for a number or a string, an optional constraint
# declared as ``Annotated[<type>, <text>, <test>]``. ``check_fields``
# enforces both. Each number test also fails NaN and +/-inf.
Positive = Annotated[float, "> 0", lambda v: 0.0 < v < math.inf]
NonNegative = Annotated[float, ">= 0", lambda v: 0.0 <= v < math.inf]
Fraction = Annotated[float, "in [0, 1]", lambda v: 0.0 <= v <= 1.0]
FractionBelowOne = Annotated[float, "in [0, 1)", lambda v: 0.0 <= v < 1.0]
Kind = Annotated[str, "one of " + ", ".join(CONTROLLER_KINDS),
                 _KIND_PATHS.__contains__]
# A kind with a response to size or test: every kind but the first, "none".
ResponsiveKind = Annotated[str, "one of " + ", ".join(CONTROLLER_KINDS[1:]),
                           CONTROLLER_KINDS[1:].__contains__]

_TYPE_RULES = {float: "a number", bool: "true or false", str: "a string"}


@functools.cache
def _field_contracts(cls: type) -> tuple[tuple, ...]:
    """``(field, type, optional, type_rule, rule, test)`` for each field of
    dataclass ``cls``, read once from its annotations: ``type`` is float,
    bool, str or a section's dataclass, ``type_rule`` the text naming it,
    and ``test`` (``None`` for no test) checks the ``rule`` constraint."""
    hints = typing.get_type_hints(cls, include_extras=True)
    contracts = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        optional = type(None) in args
        if optional:  # X | None
            hint, = (a for a in args if a is not type(None))
        rule, test = "finite", (math.isfinite if hint is float else None)
        if typing.get_origin(hint) is Annotated:
            hint, rule, test = typing.get_args(hint)
        type_rule = _TYPE_RULES.get(hint) or f"of type {hint.__name__}"
        contracts.append((f.name, hint, optional, type_rule, rule, test))
    return tuple(contracts)


def check_fields(self) -> None:
    """Reject any field of config dataclass ``self`` that breaks its
    annotation -- the wrong type, a number that is not finite, or a failed
    constraint -- with ``ValueError("<field> must be <rule>, got
    <value>")``. ``None`` passes an optional field, and an int given for
    a number is stored as a float."""
    for name, kind, optional, type_rule, rule, test in _field_contracts(
            type(self)):
        value = getattr(self, name)
        if value is None and optional:
            continue
        # bool is an int subclass, but only a boolean field takes one
        accepted = (int, float) if kind is float else kind
        if (not isinstance(value, accepted)
                or isinstance(value, bool) and kind is not bool):
            raise ValueError(f"{name} must be {type_rule}, got {value!r}")
        if kind is float and type(value) is not float:
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf if value > 0 else -math.inf
            object.__setattr__(self, name, value)
        if test is not None and not test(value):
            if kind is float and not math.isfinite(value):
                rule = "finite"
            raise ValueError(f"{name} must be {rule}, got {value!r}")


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

    kind: Kind = "none"
    droop: DroopConfig = DroopConfig()
    inertia: InertiaConfig = InertiaConfig()

    __post_init__ = check_fields


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


# The most steps of dt that t_end may span. It bounds a run's time and
# memory, so every run ends: a trace sampled at every step holds about
# 0.56 GB (seven columns of 8 B per sample), and the step test a traced
# peak of about 41 to 56 B per step (its float lists of t and y; it holds
# its commands 256 at a time).
_MAX_STEPS = 10**7

# The trace CSV writes t_s with six decimals, so a finer sample interval
# would write repeated times, which the trace reader rejects.
SampleInterval = Annotated[float, ">= 1e-06", lambda v: 1e-6 <= v < math.inf]


@dataclass(frozen=True)
class SimConfig:
    """Integration and sampling settings."""

    dt: Positive = 0.005
    t_end: Positive = 60.0
    sample_interval: SampleInterval = 0.01
    rocof_window: Positive = 0.1

    def __post_init__(self) -> None:
        check_fields(self)
        if self.sample_interval < self.dt:
            raise ValueError(f"sample_interval must be >= dt ({self.dt}), "
                             f"got {self.sample_interval!r}")
        _as_steps(self.sample_interval, self.dt, "sample_interval")
        if _as_steps(self.t_end, self.dt, "t_end") > _MAX_STEPS:
            raise ValueError(f"t_end must be at most {_MAX_STEPS} steps of "
                             f"dt ({self.dt}), got {self.t_end!r}")

    def step_grid(self, t_event: float,
                  event_field: str) -> tuple[int, int, int]:
        """The run's integer grid, ``(n_steps, stride, k_event)``, for an
        event at ``t_event``.

        A sample is taken every ``stride`` steps of ``dt``, and the run
        ends at the last whole sample at or before ``t_end``. The event
        switches on at step ``k_event``, the first step boundary at or
        after ``t_event``. An event time that is negative or not finite
        raises ``ValueError`` naming ``event_field``, and an event that
        would not switch on before the last sample raises one naming
        ``sim.t_end`` and ``event_field``.
        """
        if not 0.0 <= t_event < math.inf:
            raise ValueError(
                f"{event_field} must be finite and >= 0, got {t_event}")
        dt = self.dt
        stride = _as_steps(self.sample_interval, dt, "sample_interval")
        n_steps = _as_steps(self.t_end, dt, "t_end") // stride * stride
        n = t_event / dt
        k_event = round(n)
        if abs(n - k_event) > 1e-6 * max(1.0, abs(n)):
            k_event = int(n) + 1
        if k_event >= n_steps:
            raise ValueError(
                f"sim.t_end ({self.t_end}) must leave at least one sim.dt "
                f"({dt}) step after {event_field} ({t_event}) and before "
                f"the last whole sample (t = {n_steps * dt:g} s), or the "
                f"event never switches on"
            )
        return n_steps, stride, k_event


def _as_steps(total: float, dt: float, name: str) -> int:
    """Number of dt steps in ``total``, requiring an integer multiple."""
    n = total / dt
    r = round(n)
    if r < 1 or abs(n - r) > 1e-6 * max(1.0, abs(n)):
        raise ValueError(
            f"{name} must be a multiple of dt ({dt}), got {total!r}")
    return r


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field."""


@dataclass(frozen=True)
class Scenario:
    """A complete, validated unit of simulation."""

    system: SystemParams
    contingency: Contingency
    controller: ControllerSpec = field(default_factory=ControllerSpec)
    sim: SimConfig = field(default_factory=SimConfig)
    name: str = "scenario"

    __post_init__ = check_fields


# Desk-scale stand-ins for high-renewable interconnection equivalents.
# ei80 is a large high-inertia grid with a relatively shallow worst event;
# ercot80 a small low-inertia grid with a deep one that needs more PV
# reserve. The numbers are synthetic calibration targets, not measurements
# of any real system. Each preset is a partial scenario document.
_PRESETS: dict[str, dict[str, Any]] = {
    "ei80": {"system": {"h_sys": 2.0, "d_load": 1.0,
                        "pv": {"headroom": 0.05}},
             "contingency": {"dp": 0.009, "t_event": 1.0}},
    "ercot80": {"system": {"h_sys": 1.5, "d_load": 1.0,
                           "pv": {"headroom": 0.1}},
                "contingency": {"dp": 0.04, "t_event": 1.0}},
}


def preset_scenario(name: str, controller: str = "none") -> Scenario:
    """Build a full scenario from a named preset."""
    return scenario_from_dict({"preset": name,
                               "controller": {"kind": controller}})


# The scenario sections, read from Scenario's annotations: section ->
# its config dataclass.
_SCHEMA: dict[str, type] = {
    name: kind for name, kind, *_ in _field_contracts(Scenario)
    if dataclasses.is_dataclass(kind)}


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario JSON document."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    return scenario_from_dict(doc)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    # json.loads would keep the last of a repeated key's values.
    doc: dict[str, Any] = {}
    for key, value in pairs:
        if key in doc:
            raise ScenarioError(f"repeated key {key!r} in the scenario "
                                f"document")
        doc[key] = value
    return doc


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    """Build a scenario from a parsed document merged over its preset's."""
    doc = dict(doc)
    preset = doc.pop("preset", None)
    if preset is not None:
        preset = str(preset)
        if preset not in _PRESETS:
            raise ScenarioError(
                f"unknown preset {preset!r}; valid presets: "
                f"{', '.join(sorted(_PRESETS))}"
            )
        doc = _merge(_PRESETS[preset], doc)
    if doc.get("name") is None:
        doc["name"] = "scenario" if preset is None else preset
    return _build(Scenario, doc, "")


def _merge(base: dict[str, Any], doc: dict[str, Any]) -> dict[str, Any]:
    """``doc`` over ``base``: two objects merge key by key, and any other
    value replaces the old one."""
    merged = dict(base)
    for key, value in doc.items():
        old = merged.get(key)
        merged[key] = (_merge(old, value) if isinstance(old, dict)
                       and isinstance(value, dict) else value)
    return merged


def _build(cls: type, doc: Any, prefix: str):
    """Construct dataclass ``cls`` from the fields of section ``doc`` and
    the class defaults, building each nested section given as an object
    the same way; ``prefix`` is the section's dotted path plus a dot
    (``""`` at the document root), and every rejected key is named by its
    full path. A ``doc`` that is not an object is returned as it is, for
    the parent's check to reject by name."""
    if not isinstance(doc, dict):
        return doc
    contracts = _field_contracts(cls)
    names = [name for name, *_ in contracts]
    unknown = [key for key in doc if key not in names]
    if unknown:
        raise ScenarioError(
            f"unknown key {prefix}{unknown[0]}; valid keys: "
            f"{', '.join(sorted(names))}"
        )
    values = dict(doc)
    for name, kind, *_ in contracts:
        if dataclasses.is_dataclass(kind):
            values[name] = _build(kind, doc.get(name, {}),
                                  f"{prefix}{name}.")
    missing = [prefix + f.name for f in dataclasses.fields(cls)
               if f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING
               and f.name not in values]
    if missing:
        raise ScenarioError(
            f"{', '.join(missing)} is required without a preset")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(prefix + str(exc)) from None


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON document of ``scenario`` (no preset reference)."""
    return json.dumps(dataclasses.asdict(scenario), indent=2, sort_keys=True)


def _leaf_paths(cls: type, prefix: str):
    for name, kind, optional, *_ in _field_contracts(cls):
        if dataclasses.is_dataclass(kind):
            yield from _leaf_paths(kind, f"{prefix}{name}.")
        else:
            yield prefix + name, (kind, optional)


# The dotted path of every field of a section that set_param can replace,
# mapped to its (type, optional) from the field's annotation.
_PARAMS = dict(sorted(entry for section, cls in _SCHEMA.items()
                      for entry in _leaf_paths(cls, f"{section}.")))


def valid_param_paths() -> list[str]:
    """All dotted paths accepted by :func:`set_param`."""
    return list(_PARAMS)


def _param(path: str) -> tuple[type, bool]:
    """The (type, optional) of the field at dotted ``path``."""
    try:
        return _PARAMS[path]
    except KeyError:
        raise ScenarioError(
            f"unknown parameter path {path!r}; valid paths: "
            f"{', '.join(_PARAMS)}"
        ) from None


def set_param(scenario: Scenario, path: str, value: Any) -> Scenario:
    """Return a copy of ``scenario`` with the field at ``path`` replaced."""
    _param(path)
    prefix, _, leaf = path.rpartition(".")
    try:
        return _replace_nested(scenario, prefix.split("."), leaf, value)
    except ValueError as exc:
        raise ScenarioError(f"{prefix}.{exc}") from None


def _replace_nested(obj, parts: list[str], leaf: str, value: Any):
    if not parts:
        return dataclasses.replace(obj, **{leaf: value})
    child = getattr(obj, parts[0])
    return dataclasses.replace(
        obj, **{parts[0]: _replace_nested(child, parts[1:], leaf, value)})


def parse_set_value(path: str, text: str) -> Any:
    """Read ``text`` as a value for the field at dotted ``path``, by its
    annotation: a boolean takes ``true`` or ``false``, an optional number
    ``none`` or ``null`` as unset, and a number is read with ``float()``.
    Any other text is returned stripped, for the field's own check in
    :func:`set_param` to reject by name."""
    kind, optional = _param(path)
    text = text.strip()
    if kind is bool and text.lower() in ("true", "false"):
        return text.lower() == "true"
    if optional and text.lower() in ("none", "null"):
        return None
    try:
        return float(text) if kind is float else text
    except ValueError:
        return text
