"""The public API contract: ``gridfreq.__all__`` is sound, and every name the
scripts and the benchmark harness reach on the package still exists.

The scripts and harness are parsed with ``ast``, not run, so a later trim of
the API fails here instead of breaking them silently.
"""

import ast
import importlib
from pathlib import Path

import pytest

import gridfreq

ROOT = Path(__file__).resolve().parents[1]


def _trees(pattern):
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(ROOT.glob(pattern))]


def test_all_has_no_duplicates_and_resolves():
    assert len(gridfreq.__all__) == len(set(gridfreq.__all__))
    missing = [n for n in gridfreq.__all__ if not hasattr(gridfreq, n)]
    assert missing == []


@pytest.mark.parametrize("name, tree", _trees("scripts/*.py"))
def test_script_imports_are_exported(name, tree):
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "gridfreq"
                for alias in node.names}
    assert imported - set(gridfreq.__all__) == set(), name


@pytest.mark.parametrize("name, tree", _trees("perfbench/*.py"))
def test_benchmark_names_exist(name, tree):
    # gridfreq.<attr> expressions, and the (module, attribute) string pairs
    # that the tracer wraps.
    used = {("gridfreq", node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gridfreq"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            module, attr = node.elts[:2]
            if (isinstance(module, ast.Constant)
                    and isinstance(module.value, str)
                    and module.value.split(".")[0] == "gridfreq"
                    and isinstance(attr, ast.Constant)
                    and isinstance(attr.value, str)):
                used.add((module.value, attr.value))
    missing = sorted(f"{module}.{attr}" for module, attr in used
                     if not hasattr(importlib.import_module(module), attr))
    assert missing == [], name
