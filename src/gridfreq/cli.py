"""Command-line interface.

Subcommands::

    simulate    run one scenario, write the trace CSV (+ metrics CSV)
    compare     run all four controller kinds, write the metrics table
    compliance  open-loop step-response test over the scenario's sim
                settings, text report + optional JSON
    headroom    minimum headroom meeting a nadir target (bisection)
    sweep       metrics table over the values of one scenario field

Exit codes: 0 success, 1 validation/usage error, 2 runtime error,
3 compliance test failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .compliance import (ComplianceThresholds, evaluate_compliance,
                         format_report, run_step_test)
from .csvio import write_metrics_csv, write_trace_csv
from .engine import run_simulation
from .headroom import (HeadroomQuery, NonMonotoneError, UnattainableError,
                       compare_controllers, min_headroom_for_nadir,
                       sweep_param)
from .metrics import compute_frequency_metrics
from .scenario import (CONTROLLER_KINDS, Scenario, ScenarioError,
                       parse_scenario, parse_set_value, preset_scenario,
                       scenario_from_dict, set_param)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_NONCOMPLIANT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not 2
        raise _UsageError(f"{self.prog}: {message}")


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="named preset scenario")
    src.add_argument("--config", help="scenario JSON document")
    p.add_argument("--set", action="append", default=[], metavar="PATH=VAL",
                   help="override any scenario field by its dotted path, "
                        "e.g. system.h_sys=3.0")
    p.add_argument("--controller", help="override the controller kind: "
                   + ", ".join(CONTROLLER_KINDS))


def _load_scenario(args: argparse.Namespace,
                   later: tuple[str, str] | None = None) -> Scenario:
    """The scenario the flags describe. ``later`` is (flag, path) for a
    field the subcommand itself sets afterwards, as sweep's ``--param``."""
    if args.preset:
        scenario = preset_scenario(args.preset)
    else:
        scenario = parse_scenario(Path(args.config).read_text())
    setters = {}  # path -> the flag that sets it
    if args.set:
        # All overrides go into the document before one build, so fields
        # checked together (sim.dt and sim.sample_interval) are checked
        # with their final values, in any order.
        doc = dataclasses.asdict(scenario)
        for item in args.set:
            path, sep, raw = item.partition("=")
            if not sep:
                raise ScenarioError(
                    f"--set expects PATH=VALUE, got {item!r}")
            path = path.strip()
            if path in setters:
                raise ScenarioError(
                    f"--set {path} is given more than once")
            setters[path] = f"--set {path}"
            value = parse_set_value(path, raw)
            *sections, leaf = path.split(".")
            section = doc
            for name in sections:
                section = section[name]
            section[leaf] = value
        scenario = scenario_from_dict(doc)
    # A field that two flags set would keep only the later value.
    claims = [later] if later else []
    if args.controller is not None:
        claims.insert(0, ("--controller", "controller.kind"))
    for flag, path in claims:
        if path in setters:
            raise ScenarioError(f"{setters[path]} and {flag} both set "
                                f"{path}; one would replace the other")
        setters[path] = flag
    if args.controller is not None:
        scenario = set_param(scenario, "controller.kind", args.controller)
    return scenario


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    trace = run_simulation(scenario)
    # A trace the metrics reject is not written either.
    m = compute_frequency_metrics(trace, scenario.contingency.t_event,
                                  f0=scenario.system.f0)
    with open(args.out, "w", newline="") as sink:
        write_trace_csv(trace, sink)
    metrics_path = args.metrics_out or _derived_metrics_path(args.out)
    with open(metrics_path, "w", newline="") as sink:
        write_metrics_csv(
            [(scenario.name, scenario.controller.kind, m)], sink)
    print(f"wrote {args.out} and {metrics_path}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    table = compare_controllers(scenario)
    with open(args.out, "w", newline="") as sink:
        write_metrics_csv(
            [(scenario.name, kind, m) for kind, m in table.items()], sink)
    for kind, m in table.items():
        print(f"{scenario.name:>12} {kind:>9}: nadir {m.nadir_hz:.4f} Hz "
              f"at {m.nadir_time_s:.2f} s, max |rocof| "
              f"{m.max_abs_rocof_hz_per_s:.4f} Hz/s, settling "
              f"{m.settling_freq_hz:.4f} Hz")
    return EXIT_OK


def _cmd_compliance(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    thresholds = ComplianceThresholds(
        **{f.name: getattr(args, f.name)
           for f in dataclasses.fields(ComplianceThresholds)})
    response = run_step_test(scenario.controller, scenario.system.pv,
                             thresholds, sim=scenario.sim)
    report = evaluate_compliance(
        response, thresholds,
        config={"scenario": scenario.name,
                "controller": scenario.controller.kind,
                "thresholds": dataclasses.asdict(thresholds)})
    print(format_report(report))
    if args.out:
        with open(args.out, "w") as sink:
            json.dump(report.as_dict(), sink, indent=2, sort_keys=True)
            sink.write("\n")
        print(f"wrote {args.out}")
    return EXIT_OK if report.passed else EXIT_NONCOMPLIANT


def _cmd_headroom(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args, ("the headroom command",
                                     "system.pv.headroom"))
    controller = scenario.controller.kind
    query = HeadroomQuery(scenario=scenario, controller=controller,
                          target_nadir_hz=args.target,
                          h_max=args.h_max, tolerance=args.tolerance)
    result = min_headroom_for_nadir(query)
    print(f"minimum headroom {result.headroom:.4f} "
          f"({result.n_runs} simulation runs, {len(result.evaluations)} "
          f"headroom values) for nadir >= "
          f"{args.target:.3f} Hz on {scenario.name}/{controller}")
    print(f"volume bound {result.volume_bound:.4f} from the h = 0 run; "
          f"shape margin {result.headroom - result.volume_bound:.4f}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args, (f"--param {args.param}", args.param))
    values = [parse_set_value(args.param, v)
              for v in args.values.split(",") if v.strip()]
    if not values:
        raise ScenarioError(
            f"--values expects comma-separated values, got "
            f"{args.values!r}")
    kind = scenario.controller.kind
    rows = []
    for v, m in sweep_param(scenario, args.param, values):
        # a number in :g form; true, false and none in lower case
        shown = f"{v:g}" if type(v) is float else str(v).lower()
        rows.append((f"{args.param}={shown}",
                     v if args.param == "controller.kind" else kind, m))
    with open(args.out, "w", newline="") as sink:
        write_metrics_csv([(f"{scenario.name}[{label}]", row_kind, m)
                           for label, row_kind, m in rows], sink)
    for label, _, m in rows:
        print(f"{label}: nadir {m.nadir_hz:.4f} Hz, "
              f"settling {m.settling_freq_hz:.4f} Hz")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="gridfreq",
                     description="Grid frequency event simulator with PV "
                                 "droop and synthetic-inertia control")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("simulate", help="run one scenario to CSV")
    _add_scenario_args(p)
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--metrics-out", help="metrics CSV path "
                                         "(default: <out>.metrics.csv)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="metrics for all controller kinds")
    _add_scenario_args(p)
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("compliance", help="open-loop step-response test")
    _add_scenario_args(p)
    p.add_argument("--out", help="JSON report path")
    # --step-magnitude, --max-reaction, ... --settling-band
    for f in dataclasses.fields(ComplianceThresholds):
        p.add_argument("--" + f.name.replace("_", "-"), type=float,
                       default=f.default)
    p.set_defaults(func=_cmd_compliance)

    p = sub.add_parser("headroom", help="size headroom for a nadir target")
    _add_scenario_args(p)
    p.add_argument("--target", type=float, required=True,
                   help="nadir target in Hz, e.g. 59.5")
    defaults = {f.name: f.default for f in dataclasses.fields(HeadroomQuery)}
    p.add_argument("--h-max", type=float, default=defaults["h_max"])
    p.add_argument("--tolerance", type=float, default=defaults["tolerance"])
    p.set_defaults(func=_cmd_headroom)

    p = sub.add_parser("sweep", help="metrics over one parameter range")
    _add_scenario_args(p)
    p.add_argument("--param", required=True,
                   help="dotted path, e.g. system.h_sys")
    p.add_argument("--values", required=True,
                   help="comma-separated values, e.g. 2.0,3.0,4.0")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return EXIT_VALIDATION
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:  # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (UnattainableError, NonMonotoneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _derived_metrics_path(out: str) -> str:
    path = Path(out)
    return str(path.with_suffix(path.suffix + ".metrics.csv")
               if path.suffix != ".csv"
               else path.with_name(path.stem + ".metrics.csv"))

