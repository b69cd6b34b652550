"""Run one benchmark workload in a fresh single-threaded interpreter.

``run.py`` starts this script. ``import gridfreq`` is its first import, so
the monotonic timestamp taken right after it, compared with the moment the
parent spawned the process, is the set-up time every CLI user pays. With
``--probe`` the script reports that timestamp and exits.

Otherwise it builds the seeded case pool and drives it as a closed loop
with one client: the next job starts when the previous one returns.

1. A verification pass runs every case once, untimed, and checks it: the
   invariants on every seed, and on the default seed the stored reference
   outcome as well.
2. Without ``--trace``, whole timed passes follow until about ``--seconds``
   have gone by; each repeated job must reproduce its verified outcome
   exactly.
3. With ``--trace``, untraced and traced passes alternate for about
   ``--seconds``. The traced passes give the per-layer metrics, and the two
   kinds of pass compared give the tracing overhead.

The last line of standard output is one JSON object for ``run.py``.
"""

import time

_IMPORT_T0 = time.perf_counter()
import gridfreq  # noqa: E402  (first import: this is the set-up being timed)

_IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)
_IMPORT_S = time.perf_counter() - _IMPORT_T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

#: Layer metrics that are times; every other one is a count that must
#: repeat exactly from one traced pass to the next.
TIMED_SUFFIXES = ("self_s", "ns_per_step", "sim_s_per_s", "layer_share")


class Tally:
    """Attempted and failed jobs, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, job: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"case {job}: {'; '.join(problems)}")


def _run_job(workload, case):
    """Run one job; returns (latency_s, raw result or None, problems)."""
    t0 = time.perf_counter()
    try:
        raw = workload.run(case)
    except Exception as exc:  # a job that raises counts as failed
        return (time.perf_counter() - t0, None,
                [f"raised {type(exc).__name__}: {exc}"])
    return time.perf_counter() - t0, raw, []


def verify_pass(workload, cases, reference, tally):
    """Run and fully check every case once; returns the outcomes."""
    outcomes = []
    for i, case in enumerate(cases):
        _, raw, problems = _run_job(workload, case)
        outcome = None
        if raw is not None:
            outcome = workload.summarize(case, raw)
            problems = workload.check(case, raw, outcome)
            if reference is not None and not workload.matches_reference(
                    outcome, reference[i]):
                problems.append("differs from the reference outcome")
        tally.record(i, problems)
        outcomes.append(outcome if not problems else None)
    return outcomes


def timed_pass(workload, cases, expected, tally, recorder=None):
    """One pass over the pool; returns the per-job latencies."""
    latencies = []
    for i, case in enumerate(cases):
        if recorder is None:
            latency, raw, problems = _run_job(workload, case)
        else:
            t0 = time.perf_counter()
            with recorder.job_span(i):
                _, raw, problems = _run_job(workload, case)
            latency = time.perf_counter() - t0
        latencies.append(latency)
        if raw is not None and (expected[i] is None or workload.summarize(
                case, raw) != expected[i]):
            problems = ["outcome differs from the verified run"]
        tally.record(i, problems)
    return latencies


def _pass_done(start: float, pass_start: float, seconds: float) -> bool:
    """Stop at the pass boundary nearest to ``seconds`` after ``start``."""
    now = time.perf_counter()
    return now - start + (now - pass_start) / 2.0 >= seconds


def run_timed(workload, cases, expected, tally, seconds):
    latencies: list[float] = []
    pass_s: list[float] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        latencies += timed_pass(workload, cases, expected, tally)
        pass_s.append(time.perf_counter() - pass_start)
        if _pass_done(start, pass_start, seconds):
            break
    return {"latencies": latencies, "pass_s": pass_s,
            "passes": len(pass_s)}


def run_traced(workload, cases, expected, tally, seconds, spans_out):
    untraced_s = traced_s = 0.0
    per_pass: list[dict[str, float]] = []
    all_spans: list[list] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        untraced_s += sum(timed_pass(workload, cases, expected, tally))
        recorder = tracer.Recorder()
        with recorder.installed():
            traced_s += sum(timed_pass(workload, cases, expected, tally,
                                       recorder))
        per_pass.append(tracer.layer_metrics(recorder.spans))
        for span in recorder.spans:
            span.append(len(per_pass) - 1)
        all_spans += recorder.spans
        if _pass_done(start, pass_start, seconds):
            break
    layers = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if not key.endswith(TIMED_SUFFIXES) and len(set(values)) != 1:
            tally.failed += 1
            tally.problems.append(f"{key} differs between passes: {values}")
        layers[key] = statistics.median(values)
    if spans_out:
        with open(spans_out, "w") as sink:
            for span in all_spans:
                sink.write(json.dumps(dict(zip(
                    ("name", "layer", "parent", "job", "t0", "t1", "counts",
                     "pass"), span))) + "\n")
    return {"layers": layers, "passes": len(per_pass),
            "trace_overhead_ratio": traced_s / untraced_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true",
                        help="report the import timestamp and exit")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", help="scratch directory for files")
    parser.add_argument("--spans-out", help="JSON-lines file for spans")
    args = parser.parse_args(argv)

    result = {"imported_at": _IMPORTED_AT, "import_s": _IMPORT_S,
              "gridfreq_file": gridfreq.__file__,
              "gridfreq_version": gridfreq.__version__}
    if not args.probe:
        if args.workload is None or args.workdir is None:
            parser.error("--workload and --workdir are required")
        workload = workloads.WORKLOADS[args.workload]
        cases = workloads.generate(args.workload, args.seed,
                                   Path(args.workdir))
        reference = None
        if args.seed == workloads.DEFAULT_SEED:
            reference = workloads.load_reference(args.workload)
            if reference is None or len(reference) != len(cases):
                print(f"reference outcomes for {args.workload} are missing "
                      "or do not match the pool", file=sys.stderr)
                return 1
        tally = Tally()
        expected = verify_pass(workload, cases, reference, tally)
        if args.trace:
            result.update(run_traced(workload, cases, expected, tally,
                                     args.seconds, args.spans_out))
        else:
            result.update(run_timed(workload, cases, expected, tally,
                                    args.seconds))
        result.update(
            pool_size=len(cases), attempted=tally.attempted,
            failed=tally.failed, problems=tally.problems,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
