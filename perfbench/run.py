"""gridfreq benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py                       # every workload
    python3 perfbench/run.py --workload study --seed 0 --seconds 20 --trace 0

Workloads: study, sizing, export, compliance (see perfbench/README.md).
With ``--trace 0`` the result carries the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record, with
provenance, is written under ``.perfbench/results/``.

The benchmark needs the package source at ``src/gridfreq`` next to this
directory; without it, it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study", "sizing", "export", "compliance")
DEFAULT_SEED = 0  # the seed whose outcomes reference.json stores
SETUP_SPAWNS = 11
TAIL_BEYOND = 10
# Every run, set-up included, must end well within 180 s.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
                    "job_tail_s": "s", "peak_rss_mb": "MB",
                    "failed_ratio": "ratio"}
# Metrics the driver-facing JSON leaves out: failed_ratio is 0 on a
# healthy run, and failures are carried by "attempted" and "failed".
NOT_IN_RESULT = ("failed_ratio",)
LAYER_UNITS = {
    "engine.runs": "count", "engine.steps": "count",
    "engine.samples": "count", "engine.self_s": "s",
    "engine.ns_per_step": "ns", "engine.sim_s_per_s": "s/s",
    "headroom.sizings": "count", "headroom.runs": "count",
    "headroom.runs_per_sizing": "count", "headroom.sim_s_per_sizing": "s",
    "headroom.unattainable": "count", "headroom.self_s": "s",
    "csvio.rows_written": "count", "csvio.bytes_written": "B",
    "csvio.write_self_s": "s", "csvio.rows_read": "count",
    "csvio.read_self_s": "s",
    "compliance.tests": "count", "compliance.steps": "count",
    "compliance.step_self_s": "s", "compliance.ns_per_step": "ns",
    "compliance.grade_self_s": "s",
    "metrics.calls": "count", "metrics.self_s": "s",
    "scenario.calls": "count", "scenario.self_s": "s",
    "cli.calls": "count", "cli.nonzero_exits": "count", "cli.self_s": "s",
    "pv.calls": "count", "pv.self_s": "s",
    "bench.self_s": "s", "trace.layer_share": "ratio",
    "setup.import_s": "s", "trace.overhead_ratio": "ratio",
}


def tail(samples: list[float], beyond: int = TAIL_BEYOND
         ) -> tuple[float, float]:
    """Value and percentile of the highest nearest-rank percentile that
    leaves at least ``beyond`` samples above it."""
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with "
                         f"{beyond} samples beyond it")
    rank = n - beyond
    return sorted(samples)[rank - 1], 100.0 * rank / n


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git, or 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as source:
            for line in source:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _spawn(args: list[str], env: dict[str, str], timeout: float):
    """Start a worker, wait for it, and return (spawn time, its JSON)."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return spawned_at, json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Spawn-to-import times and in-process import times of fresh
    interpreters, after one untimed spawn that fills the bytecode cache."""
    _spawn(["--probe"], env, 60)
    setup, imports = [], []
    for _ in range(SETUP_SPAWNS):
        spawned_at, probe = _spawn(["--probe"], env, 60)
        if not Path(probe["gridfreq_file"]).is_relative_to(ROOT / "src"):
            raise RuntimeError(f"gridfreq imported from "
                               f"{probe['gridfreq_file']}, not {ROOT}/src")
        setup.append(probe["imported_at"] - spawned_at)
        imports.append(probe["import_s"])
    return setup, imports


def end_to_end(setup: list[float], worker: dict) -> tuple[dict, dict]:
    latencies = worker["latencies"]
    value, pct = tail(latencies)
    # Whole passes over the pool; their median throughput is robust to
    # seconds-long slow spells on a shared machine.
    per_pass = [worker["pool_size"] / s for s in worker["pass_s"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": statistics.median(per_pass),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": value,
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        "failed_ratio": worker["failed"] / worker["attempted"],
    }
    notes = {"setup_s": f"median of {len(setup)} spawns",
             "jobs_per_s": f"median of {len(per_pass)} passes of "
                           f"{worker['pool_size']} jobs",
             "job_tail_s": f"p{pct:.2f} of {len(latencies)} jobs, "
                           f"{TAIL_BEYOND} beyond it",
             "failed_ratio": f"{worker['failed']}/{worker['attempted']}"}
    return metrics, {"tail_percentile": pct, "jobs": len(latencies),
                     "notes": notes}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """Measure one workload; raises RuntimeError when it cannot run."""
    started = time.monotonic()
    state = ROOT / ".perfbench"
    workdir = state / "work" / f"{workload}-{os.getpid()}"
    results = state / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        setup, imports = measure_setup(env)
        remaining = DEADLINE_S - (time.monotonic() - started)
        _, worker = _spawn(
            ["--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", str(workdir),
             "--spans-out", str(results / f"{stem}.spans.jsonl")],
            env, remaining)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{workload} did not finish: {exc}") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info: dict = {}
    if trace:
        metrics = dict(worker["layers"])
        metrics["setup.import_s"] = statistics.median(imports)
        metrics["trace.overhead_ratio"] = worker["trace_overhead_ratio"]
        units = LAYER_UNITS
    else:
        try:
            metrics, info = end_to_end(setup, worker)
        except ValueError as exc:
            raise RuntimeError(str(exc)) from None
        units = END_TO_END_UNITS
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "git_sha": git_sha(ROOT),
        "gridfreq_version": worker["gridfreq_version"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "pool_size": worker["pool_size"], "passes": worker["passes"],
        "jobs_per_run": info.get("jobs"),
        "tail_percentile": info.get("tail_percentile"),
        "setup_spawns": len(setup),
    }
    record = {"provenance": provenance, "metrics": metrics,
              "units": {name: units[name] for name in metrics},
              "notes": info.get("notes", {}),
              "attempted": worker["attempted"], "failed": worker["failed"],
              "problems": worker["problems"]}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2)
                                          + "\n")
    return record


def report(record: dict) -> None:
    """Print one workload's metrics, failures and provenance."""
    prov = record["provenance"]
    print(f"gridfreq benchmark: workload {prov['workload']}, seed "
          f"{prov['seed']}, "
          f"{'per-layer (traced)' if prov['trace'] else 'end-to-end'}")
    for name, value in record["metrics"].items():
        print(f"  {name:<28} {value:>14.6g} {record['units'][name]:<6} "
              f"{record['notes'].get(name, '')}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print("provenance " + json.dumps(prov))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run gridfreq benchmark workloads (default: all).")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; without it, all of them run "
                             "and metric names get a workload prefix")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridfreq" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'gridfreq'}",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(record)
        result["correct"] &= record["failed"] == 0
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
        prefix = "" if args.workload else f"{name}."
        for metric, value in record["metrics"].items():
            if metric not in NOT_IN_RESULT:
                result["metrics"][prefix + metric] = {
                    "value": value, "unit": record["units"][metric]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
