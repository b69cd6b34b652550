"""Scenario documents: parsing, validation, presets and serialization.

A scenario is a single JSON document with five sections (system,
controller, contingency, sim, plus a name). Every key is optional when a
``preset`` supplies the base values; unknown keys are rejected so typos
fail loudly. Numeric fields can also be addressed with dotted paths
(``system.h_sys``, ``controller.droop.r``) for command-line overrides and
parameter sweeps.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .engine import SimConfig
from .grid import Contingency, GovernorFleet, SystemParams
from .pv import ControllerSpec, DroopConfig, InertiaConfig, PVPlantConfig


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


def preset_scenario(name: str, controller: str = "none") -> Scenario:
    """Build a full scenario from a named preset."""
    from .grid import preset_params

    try:
        system, contingency = preset_params(name)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return Scenario(system=system, contingency=contingency,
                    controller=ControllerSpec(kind=controller), name=name)


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


# The one table of scenario fields: section -> (dataclass, {field: leaf
# caster or nested section}). Parsing walks it, and its non-string leaves
# are the dotted paths that --set and parameter sweeps address.
_SCHEMA: dict[str, tuple[type, dict[str, Any]]] = {
    "system": (SystemParams, {
        "h_sys": _number, "d_load": _number, "f0": _number,
        "governor": (GovernorFleet, {
            "kappa": _number, "r_gov": _number, "t_gov": _number,
            "reserve_limit": _number}),
        "pv": (PVPlantConfig, {
            "c_pv": _number, "headroom": _number,
            "available_power": _number, "t_inv": _number,
            "rate_limit": _optional_number}),
    }),
    "controller": (ControllerSpec, {
        "kind": _string,
        "droop": (DroopConfig, {
            "r": _number, "deadband": _number, "t_lag": _number}),
        "inertia": (InertiaConfig, {
            "k": _number, "deadband": _number, "t_lag": _number,
            "t_washout": _number, "recovery_clamp": _boolean}),
    }),
    "contingency": (Contingency, {"dp": _number, "t_event": _number}),
    "sim": (SimConfig, {
        "dt": _number, "t_end": _number, "sample_interval": _number,
        "rocof_window": _number}),
}


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
    """Build a scenario from a parsed document, applying preset defaults."""
    doc = dict(doc)
    name = doc.pop("name", None)
    preset = doc.pop("preset", None)

    if preset is not None:
        base = preset_scenario(str(preset))
        if name is None:
            name = str(preset)
    else:
        base = None
        if name is None:
            name = "scenario"

    unknown = set(doc) - set(_SCHEMA)
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {', '.join(sorted(unknown))}; expected "
            f"{', '.join(sorted(_SCHEMA))} (plus name, preset)"
        )
    sections = {
        key: _build(section, doc.get(key, {}), key,
                    None if base is None else getattr(base, key))
        for key, section in _SCHEMA.items()
    }
    return Scenario(name=str(name), **sections)


def _build(section: tuple[type, dict[str, Any]], doc: Any, path: str,
           base: Any):
    """Validate ``doc`` against a schema section and construct its
    dataclass from ``base`` (or the class defaults) plus the given fields."""
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
            values[key] = _build(spec, doc.get(key, {}), f"{path}.{key}",
                                 None if base is None else getattr(base, key))
        elif key in doc:
            values[key] = spec(doc[key], f"{path}.{key}")
    if base is None:
        missing = [f"{path}.{f.name}" for f in dataclasses.fields(cls)
                   if f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING
                   and f.name not in values]
        if missing:
            raise ScenarioError(
                f"{', '.join(missing)} is required without a preset")
    try:
        if base is not None:
            return dataclasses.replace(base, **values)
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
