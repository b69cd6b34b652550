"""Scenario documents: parsing, validation, presets and serialization.

A scenario is a single JSON document with four sections (system,
controller, contingency, sim) plus a name, and it is the whole description
of a run: the engine, the sizer, the sweeps and the CLI take the controller
kind and the integration settings from it. The config dataclasses are the
schema: a section's keys are its dataclass's fields, and each value passes
unchanged to the dataclass, whose annotations state and check its type and
constraint; unknown keys are rejected so typos fail loudly. A named
preset (``ei80``, ``ercot80``) is a partial document of the same shape,
merged beneath the given one object by object; ``preset_scenario`` builds
one with a controller kind. Numeric fields can also be addressed with
dotted paths (``system.h_sys``, ``controller.droop.r``) for command-line
overrides and parameter sweeps. Every rejected field is named by its
dotted path: ``system.pv.headroom must be in [0, 1), got 1.5``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any

from .engine import SimConfig
from .grid import Contingency, SystemParams
from .pv import ControllerSpec, check_fields, _field_contracts


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


def _with_kind(scenario: Scenario, kind: str) -> Scenario:
    """``scenario`` with controller kind ``kind`` and its gains unchanged;
    ``ControllerSpec`` rejects an unknown kind."""
    return dataclasses.replace(
        scenario,
        controller=dataclasses.replace(scenario.controller, kind=kind))


# The scenario sections, read from Scenario's annotations: section ->
# its config dataclass.
_SCHEMA: dict[str, type] = {
    name: kind for name, kind, *_ in _field_contracts(Scenario)
    if dataclasses.is_dataclass(kind)}


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    return scenario_from_dict(doc)


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    """Build a scenario from a parsed document merged over its preset's."""
    doc = dict(doc)
    name = doc.pop("name", None)
    preset = doc.pop("preset", None)
    if preset is not None:
        preset = str(preset)
        if preset not in _PRESETS:
            raise ScenarioError(
                f"unknown preset {preset!r}; valid presets: "
                f"{', '.join(sorted(_PRESETS))}"
            )
        doc = _merge(_PRESETS[preset], doc)
    if name is None:
        name = "scenario" if preset is None else preset

    unknown = set(doc) - set(_SCHEMA)
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {', '.join(sorted(unknown))}; expected "
            f"{', '.join(sorted(_SCHEMA))} (plus name, preset)"
        )
    sections = {key: _build(cls, doc.get(key, {}), key)
                for key, cls in _SCHEMA.items()}
    try:
        return Scenario(name=name, **sections)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _merge(base: dict[str, Any], doc: dict[str, Any]) -> dict[str, Any]:
    """``doc`` over ``base``: two objects merge key by key, and any other
    value replaces the old one."""
    merged = dict(base)
    for key, value in doc.items():
        old = merged.get(key)
        merged[key] = (_merge(old, value) if isinstance(old, dict)
                       and isinstance(value, dict) else value)
    return merged


def _build(cls: type, doc: Any, path: str):
    """Construct dataclass ``cls`` from the fields of section ``doc`` at
    dotted ``path`` and the class defaults, building each nested section
    given as an object the same way. A ``doc`` that is not an object is
    returned as it is, for the parent's check to reject by name."""
    if not isinstance(doc, dict):
        return doc
    contracts = _field_contracts(cls)
    names = [name for name, *_ in contracts]
    unknown = [key for key in doc if key not in names]
    if unknown:
        raise ScenarioError(
            f"unknown key {path}.{unknown[0]}; valid keys: "
            f"{', '.join(sorted(names))}"
        )
    values = dict(doc)
    for name, kind, *_ in contracts:
        if dataclasses.is_dataclass(kind):
            values[name] = _build(kind, doc.get(name, {}), f"{path}.{name}")
    missing = [f"{path}.{f.name}" for f in dataclasses.fields(cls)
               if f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING
               and f.name not in values]
    if missing:
        raise ScenarioError(
            f"{', '.join(missing)} is required without a preset")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{path}.{exc}") from None


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON document of ``scenario`` (no preset reference)."""
    return json.dumps(dataclasses.asdict(scenario), indent=2, sort_keys=True)


def _leaf_paths(cls: type, prefix: str):
    for name, kind, *_ in _field_contracts(cls):
        if dataclasses.is_dataclass(kind):
            yield from _leaf_paths(kind, f"{prefix}{name}.")
        elif kind is not str:
            yield prefix + name


# The dotted path of every field that set_param can replace: each field
# of a section that is neither a string nor a nested section.
_PARAMS = tuple(sorted(_leaf_paths(Scenario, "")))


def valid_param_paths() -> list[str]:
    """All dotted paths accepted by :func:`set_param`."""
    return list(_PARAMS)


def set_param(scenario: Scenario, path: str, value: Any) -> Scenario:
    """Return a copy of ``scenario`` with the field at ``path`` replaced."""
    if path not in _PARAMS:
        raise ScenarioError(
            f"unknown parameter path {path!r}; valid paths: "
            f"{', '.join(_PARAMS)}"
        )
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


def parse_set_value(text: str) -> Any:
    """Parse a --set value: bool words, 'none', otherwise a float."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return float(text)
    except ValueError:
        raise ScenarioError(f"cannot parse value {text!r}") from None
