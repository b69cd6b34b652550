#!/usr/bin/env python3
"""Run both preset grids under all four controller kinds and tabulate the
event metrics (trace CSVs go next to this script unless --outdir given)."""

import argparse
import pathlib

from gridfreq import (compare_controllers, preset_scenario, run_simulation,
                      write_metrics_csv, write_trace_csv)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default=".",
                        help="directory for trace/metrics CSVs")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for preset in ("ei80", "ercot80"):
        scenario = preset_scenario(preset)
        table = compare_controllers(scenario)
        print(f"\n=== {preset} (H={scenario.system.h_sys} s, "
              f"dP={scenario.contingency.dp} pu) ===")
        print(f"{'controller':>10} {'nadir Hz':>10} {'t_nadir s':>10} "
              f"{'max|rocof|':>11} {'settling Hz':>12}")
        for kind, m in table.items():
            print(f"{kind:>10} {m.nadir_hz:>10.4f} {m.nadir_time_s:>10.2f} "
                  f"{m.max_abs_rocof_hz_per_s:>11.4f} "
                  f"{m.settling_freq_hz:>12.4f}")
            trace = run_simulation(scenario, controller=kind)
            with open(outdir / f"{preset}_{kind}_trace.csv", "w") as sink:
                write_trace_csv(trace, sink)
        with open(outdir / f"{preset}_metrics.csv", "w") as sink:
            write_metrics_csv(
                [(preset, kind, m) for kind, m in table.items()], sink)
    print(f"\nCSV files written to {outdir.resolve()}")


if __name__ == "__main__":
    main()
