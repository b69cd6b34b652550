"""The benchmark's own gates, run as part of the test suite.

The harness self-tests run in a subprocess exactly as documented in
``perfbench/README.md``. The seed-0 ``sizing`` pool runs in process through
``perfbench/workloads.py``, and so does the seed-0 ``compliance`` pool, so
a sizer or step-test regression fails here and not only in a benchmark
run.
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


def test_seed0_sizing_pool_matches_reference(workloads, tmp_path):
    cases = workloads.generate("sizing", workloads.DEFAULT_SEED, tmp_path)
    reference = workloads.load_reference("sizing")
    assert reference is not None and len(reference) == len(cases)
    for i, (case, expected) in enumerate(zip(cases, reference)):
        raw = workloads.run_sizing(case)
        outcome = workloads.summarize_sizing(case, raw)
        assert workloads.check_sizing(case, raw, outcome) == [], i
        # Exact, not only within the query tolerance the benchmark allows.
        assert outcome == expected, i


def test_seed0_compliance_pool_matches_reference(workloads, tmp_path):
    cases = workloads.generate("compliance", workloads.DEFAULT_SEED,
                               tmp_path)
    reference = workloads.load_reference("compliance")
    assert reference is not None and len(reference) == len(cases)
    for i, (case, expected) in enumerate(zip(cases, reference)):
        raw = workloads.run_compliance(case)
        outcome = workloads.summarize_compliance(case, raw)
        assert workloads.check_compliance(case, raw, outcome) == [], i
        # Exact, not only within the tolerance the benchmark allows.
        assert outcome == expected, i
