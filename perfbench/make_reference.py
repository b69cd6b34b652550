"""Regenerate perfbench/reference.json from the current package.

    python3 perfbench/make_reference.py

Runs the default seed's pool of every workload once, checks the invariants
and stores each outcome: study trace digests, export CSV digests, sizing
answers or their expected UnattainableError, and compliance verdicts with
their graded values. Later runs on the default seed must reproduce these,
so regenerate only when a change is meant to alter the outputs, and say so
in the change.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {"seed": workloads.DEFAULT_SEED}
    state = HERE.parent / ".perfbench"
    state.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            cases = workloads.generate(name, workloads.DEFAULT_SEED,
                                       Path(tmp))
            tally = worker.Tally()
            outcomes = worker.verify_pass(workload, cases, None, tally)
            if tally.failed:
                print("\n".join(tally.problems), file=sys.stderr)
                return 1
            reference[name] = outcomes
    workloads.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
