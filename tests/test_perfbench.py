"""The benchmark's own gates, run as part of the test suite.

The harness self-tests run in a subprocess exactly as documented in
``perfbench/README.md``. The seed-0 pool of each of the four workloads
runs in process through ``perfbench/workloads.py`` and must reproduce
``perfbench/reference.json`` exactly, so a change to any output fails here
and not only in a benchmark run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up while the module executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_harness_self_tests_pass():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "test_harness.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def check_seed0_pool(workloads, tmp_path, name):
    """Every seed-0 outcome of workload ``name`` passes its check and
    equals ``perfbench/reference.json`` exactly, not only within the
    tolerance the benchmark allows."""
    workload = workloads.WORKLOADS[name]
    cases = workloads.generate(name, workloads.DEFAULT_SEED, tmp_path)
    reference = workloads.load_reference(name)
    assert reference is not None and len(reference) == len(cases)
    for i, (case, expected) in enumerate(zip(cases, reference)):
        raw = workload.run(case)
        outcome = workload.summarize(case, raw)
        assert workload.check(case, raw, outcome) == [], i
        assert outcome == expected, i


def test_seed0_study_pool_matches_reference(workloads, tmp_path):
    check_seed0_pool(workloads, tmp_path, "study")


def test_seed0_sizing_pool_matches_reference(workloads, tmp_path):
    check_seed0_pool(workloads, tmp_path, "sizing")


def test_seed0_export_pool_matches_reference(workloads, tmp_path):
    check_seed0_pool(workloads, tmp_path, "export")


def test_seed0_compliance_pool_matches_reference(workloads, tmp_path):
    check_seed0_pool(workloads, tmp_path, "compliance")
