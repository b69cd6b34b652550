"""The public API contract: ``gridfreq.__all__`` is sound and matches
README's list, every name the scripts and the benchmark harness reach on the
package still exists, and every keyword the harness passes and every call
argument its tracer reads is still a parameter of the function it reaches,
README's Python examples run, the modules keep their one job each, and each
test module is named for the package module it tests or declared here.

The scripts and harness are parsed with ``ast``, not run, so a later trim of
the API fails here instead of breaking them silently.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import textwrap
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


def _callee(func):
    """The object a ``gridfreq.<a>.<b>(...)`` call reaches, or None."""
    chain = []
    while isinstance(func, ast.Attribute):
        chain.append(func.attr)
        func = func.value
    if not (isinstance(func, ast.Name) and func.id == "gridfreq" and chain):
        return None
    obj = gridfreq
    for attr in reversed(chain):
        obj = getattr(obj, attr)
    return obj


def test_benchmark_call_keywords_are_parameters():
    # Each keyword the benchmark passes to a gridfreq callable must still
    # be one of its parameters, so a trimmed signature fails here and not
    # in a benchmark run.
    checked = set()
    unknown = []
    for name, tree in _trees("perfbench/*.py"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee(node.func)
            if callee is None:
                continue
            params = inspect.signature(callee).parameters
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                checked.add((callee.__name__, kw.arg))
                if kw.arg not in params:
                    unknown.append(f"{name}: {callee.__name__}({kw.arg}=)")
    assert unknown == []
    assert {("run_simulation", "sim"), ("run_step_test", "sim"),
            ("HeadroomQuery", "controller")} <= checked


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counters_read_parameters_of_what_they_wrap():
    # A counter reads arguments["<key>"] from the bound call of every
    # function it is installed on, so each key must be a parameter there.
    missing = []
    read = set()
    for module, attr, _, _, counter in _tracer().TARGETS:
        if counter is None:
            continue
        keys = {node.slice.value
                for node in ast.walk(ast.parse(textwrap.dedent(
                    inspect.getsource(counter))))
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "arguments"
                and isinstance(node.slice, ast.Constant)}
        params = inspect.signature(
            getattr(importlib.import_module(module), attr)).parameters
        read |= {(attr, key) for key in keys}
        missing += [f"{module}.{attr}: {key}" for key in sorted(keys)
                    if key not in params]
    assert missing == []
    assert ("run_simulation", "sim") in read


def test_readme_python_examples_run():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_lists_the_public_api():
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^`gridfreq\.__all__` is the public API, (\d+) "
                      r"names:\n\n(.*?)\n\n", text, re.M | re.S)
    assert match
    listed = re.findall(r"`(\w+)`", match.group(2))
    assert int(match.group(1)) == len(gridfreq.__all__)
    assert sorted(listed) == sorted(gridfreq.__all__)


def _package_imports(module):
    """Package modules that ``src/gridfreq/<module>.py`` imports, named
    without the package prefix."""
    tree = ast.parse((ROOT / "src" / "gridfreq" / f"{module}.py")
                     .read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add("gridfreq." + (node.module or "") if node.level
                      else node.module)
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
    return {name.removeprefix("gridfreq.") for name in names
            if name.split(".")[0] == "gridfreq"}


def test_metrics_only_reads_traces():
    # Running scenarios and grading step responses live elsewhere, so the
    # trace reader needs nothing from the package but the trace.
    assert _package_imports("metrics") == {"engine"}


def test_compliance_grades_without_metrics():
    assert "metrics" not in _package_imports("compliance")


def test_scenario_schema_imports_no_package_module():
    # The schema is the bottom layer: every other module may read it, so it
    # reads none of them, and no import cycle needs a TYPE_CHECKING guard.
    assert _package_imports("scenario") == set()


def test_no_type_checking_imports():
    files = [path.name for path in sorted((ROOT / "src" / "gridfreq")
                                          .glob("*.py"))
             if "TYPE_CHECKING" in path.read_text()]
    assert files == []


# The test modules named after no package module, and what each checks.
UNHOMED_TEST_MODULES = {
    "acceptance": "the paper's claims",
    "api": "the public API and the package's layout",
    "config_fields": "scenario's field rules, one table",
    "metamorphic": "the engine's and the step test's bit-exact relations",
    "perfbench": "the benchmark's gates",
    "scenario_io": "scenario with csvio, until csvio's tests split off",
}


def test_each_test_module_is_named_for_its_package_module():
    # The checks of package module <m> live in tests/test_<m>.py.
    modules = {path.stem for path in (ROOT / "src" / "gridfreq").glob("*.py")}
    names = {path.stem.removeprefix("test_")
             for path in (ROOT / "tests").glob("test_*.py")}
    assert sorted(names - modules - set(UNHOMED_TEST_MODULES)) == []
    assert sorted(set(UNHOMED_TEST_MODULES) - names) == []
