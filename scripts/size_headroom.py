#!/usr/bin/env python3
"""Size the minimum PV headroom that keeps the ercot80 nadir above a
load-shedding threshold, then show how the nadir moves with headroom."""

import argparse

from gridfreq import (HeadroomQuery, min_headroom_for_nadir,
                      preset_scenario, set_param, sweep_param)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="ercot80")
    parser.add_argument("--controller", default="combined")
    parser.add_argument("--target", type=float, default=59.5,
                        help="nadir floor in Hz (default 59.5)")
    args = parser.parse_args()

    scenario = set_param(preset_scenario(args.preset, args.controller),
                         "sim.t_end", 30.0)
    query = HeadroomQuery(scenario=scenario, controller=args.controller,
                          target_nadir_hz=args.target)
    result = min_headroom_for_nadir(query)
    print(f"{args.preset}/{args.controller}: minimum headroom "
          f"{result.headroom:.4f} of available power keeps the nadir at or "
          f"above {args.target} Hz ({result.n_runs} simulation runs, "
          f"{len(result.evaluations)} headroom values)")

    print("\nnadir vs headroom:")
    values = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3]
    for h, metrics in sweep_param(scenario, "system.pv.headroom", values):
        marker = " <- target met" if metrics.nadir_hz >= args.target else ""
        print(f"  h={h:.3f}: nadir {metrics.nadir_hz:.4f} Hz{marker}")


if __name__ == "__main__":
    main()
