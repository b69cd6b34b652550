"""Scenario documents: parsing, validation, presets and serialization.

A scenario is a single JSON document with four sections (system,
controller, contingency, sim) plus a name, and it is the whole description
of a run: the engine, the sizer, the sweeps and the CLI take the controller
kind and the integration settings from it. The config dataclasses are the
schema: a section's keys are its dataclass's fields, parsed as their
annotations say; unknown keys are rejected so typos fail loudly. A named
preset (``ei80``, ``ercot80``) is a partial document of the same shape,
merged beneath the given one object by object; ``preset_scenario`` builds
one with a controller kind. Numeric fields can also be addressed with
dotted paths (``system.h_sys``, ``controller.droop.r``) for command-line
overrides and parameter sweeps.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from typing import Any

from .engine import SimConfig
from .grid import Contingency, SystemParams
from .pv import ControllerSpec


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


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path} must be a number")
    if not math.isfinite(value):
        raise ScenarioError(f"{path} must be finite, got {value}")
    return float(value)


def _optional_number(value: Any, path: str) -> float | None:
    return None if value is None else _number(value, path)


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{path} must be true or false")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{path} must be a string")
    return value


_CASTERS = {float: _number, float | None: _optional_number, bool: _boolean,
            str: _string}


def _schema(cls: type) -> dict[str, Any]:
    """Field -> leaf caster, or (dataclass, its schema) for a nested
    section, read from the annotations of dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], _schema(hints[f.name]))
            if dataclasses.is_dataclass(hints[f.name])
            else _CASTERS[hints[f.name]]
            for f in dataclasses.fields(cls)}


# The scenario sections, derived from the config dataclasses that define
# the fields: section -> (dataclass, its schema). Parsing walks it, and its
# non-string leaves are the dotted paths that --set and parameter sweeps
# address.
_SCHEMA: dict[str, tuple[type, dict[str, Any]]] = {
    key: spec for key, spec in _schema(Scenario).items()
    if isinstance(spec, tuple)}


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
    sections = {key: _build(section, doc.get(key, {}), key)
                for key, section in _SCHEMA.items()}
    return Scenario(name=str(name), **sections)


def _merge(base: dict[str, Any], doc: dict[str, Any]) -> dict[str, Any]:
    """``doc`` over ``base``: two objects merge key by key, and any other
    value replaces the old one."""
    merged = dict(base)
    for key, value in doc.items():
        old = merged.get(key)
        merged[key] = (_merge(old, value) if isinstance(old, dict)
                       and isinstance(value, dict) else value)
    return merged


def _build(section: tuple[type, dict[str, Any]], doc: Any, path: str):
    """Validate ``doc`` against a schema section and construct its
    dataclass from the given fields and the class defaults."""
    cls, fields = section
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path} must be an object")
    unknown = [key for key in doc if key not in fields]
    if unknown:
        raise ScenarioError(
            f"unknown key {path}.{unknown[0]}; valid keys: "
            f"{', '.join(sorted(fields))}"
        )
    values: dict[str, Any] = {}
    for key, spec in fields.items():
        if isinstance(spec, tuple):
            values[key] = _build(spec, doc.get(key, {}), f"{path}.{key}")
        elif key in doc:
            values[key] = spec(doc[key], f"{path}.{key}")
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
        raise ScenarioError(f"{path}: {exc}") from None


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON document of ``scenario`` (no preset reference)."""
    return json.dumps(dataclasses.asdict(scenario), indent=2, sort_keys=True)


def _leaf_casters(fields: dict[str, Any], prefix: str):
    for key, spec in fields.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(spec, tuple):
            yield from _leaf_casters(spec[1], path)
        elif spec is not _string:
            yield path, spec


# Dotted path -> caster for every field that set_param can replace.
_PARAMS: dict[str, Any] = dict(sorted(_leaf_casters(_SCHEMA, "")))


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
    value = _PARAMS[path](value, path)
    prefix, _, leaf = path.rpartition(".")
    try:
        return _replace_nested(scenario, prefix.split("."), leaf, value)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


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
