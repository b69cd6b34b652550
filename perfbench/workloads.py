"""Seeded workload generators, the jobs that drive gridfreq, and their checks.

Each workload turns ``--seed`` into a fixed pool of cases. A job runs one
case through the package's public API (``gridfreq.run_simulation``,
``gridfreq.cli.main`` and so on); jobs look those names up at call time so
the traced run can wrap them. A job returns its raw result; ``summarize``
reduces it to a JSON-able outcome (digests, answers, verdicts) and
``check`` lists what is wrong with it. Every parameter is drawn from ranges
the package's validators accept, with ``dt`` held at 0.005 s so classical
RK4 stays well inside its stability limit for the fastest filter (0.02 s).

Pools are stratified: each seed gets the same mix of presets, controller
kinds, branch flags, horizons and answer categories, and only the order and
the continuous parameters change. A pass over the pool therefore costs
about the same on every seed, which keeps throughput comparable across
seeds.
"""

from __future__ import annotations

import array
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import operator
import random
import sys
from pathlib import Path
from typing import Any, Callable

import gridfreq
import gridfreq.cli

#: Seed whose outcomes are stored in reference.json.
DEFAULT_SEED = 0
DT = 0.005
PRESETS = ("ei80", "ercot80")
RESPONSIVE = ("droop", "inertia", "combined")
KINDS = ("none",) + RESPONSIVE
TRACE_FIELDS = ("t", "f_hz", "rocof_hz_per_s", "dp_gov_pu", "dp_pv_pu",
                "dp_pv_droop_pu", "dp_pv_inertia_pu")

#: Compliance graded values may drift this much from the reference (the
#: open-loop test is expected to move from the ZOH blocks to the RK4
#: kernel); verdicts and failure reasons must match exactly.
COMPLIANCE_ABS_TOL = 0.02
COMPLIANCE_REL_TOL = 0.10

#: Largest difference between a value and its six-decimal CSV text, read
#: back: half a unit in the sixth place plus float parse rounding.
CSV_TOLERANCE = 5e-7 + 1e-12

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def scenario_doc(rng: random.Random, preset: str, kind: str, t_end: float,
                 sample_interval: float, rate_limit: bool, clamp: bool,
                 sign: float) -> dict[str, Any]:
    """A scenario document with perturbed physics and controller gains."""
    base = {"ei80": (2.0, 0.009), "ercot80": (1.5, 0.04)}[preset]
    pv: dict[str, Any] = {"c_pv": _u(rng, 0.3, 0.5),
                          "headroom": _u(rng, 0.02, 0.2),
                          "t_inv": _u(rng, 0.03, 0.1)}
    if rate_limit:
        pv["rate_limit"] = _u(rng, 0.2, 2.0)
    return {
        "preset": preset,
        "system": {
            "h_sys": round(base[0] * rng.uniform(0.8, 1.2), 6),
            "d_load": _u(rng, 0.5, 1.5),
            "governor": {"kappa": _u(rng, 0.2, 0.4),
                         "r_gov": _u(rng, 0.04, 0.06),
                         "t_gov": _u(rng, 5.0, 10.0)},
            "pv": pv,
        },
        "controller": {
            "kind": kind,
            "droop": {"r": _u(rng, 0.03, 0.08),
                      "deadband": _u(rng, 0.0, 0.001),
                      "t_lag": _u(rng, 0.05, 0.3)},
            "inertia": {"k": _u(rng, 5.0, 15.0),
                        "t_lag": _u(rng, 0.02, 0.05),
                        "t_washout": _u(rng, 0.05, 0.2),
                        "recovery_clamp": clamp},
        },
        "contingency": {"dp": sign * round(base[1] * rng.uniform(0.8, 1.2),
                                           6),
                        "t_event": _u(rng, 0.5, 2.0)},
        "sim": {"dt": DT, "t_end": t_end,
                "sample_interval": sample_interval},
    }


def _finite(values) -> bool:
    # A sum of pu- and Hz-scale values is finite unless one of them is
    # NaN or infinite.
    return math.isfinite(sum(values))


def trace_digest(trace) -> str:
    """SHA-256 of the trace's float lists as little-endian doubles."""
    h = hashlib.sha256()
    for name in TRACE_FIELDS:
        data = array.array("d", getattr(trace, name))
        if sys.byteorder != "little":
            data.byteswap()
        h.update(data.tobytes())
    return h.hexdigest()


def _metrics_values(m) -> list[float]:
    return [m.nadir_hz, m.nadir_time_s, m.max_abs_rocof_hz_per_s,
            m.settling_freq_hz]


def _trace_problems(trace, t_end: float, sample_interval: float
                    ) -> list[str]:
    problems = []
    expected = round(t_end / sample_interval) + 1
    if len(trace) != expected:
        problems.append(f"trace has {len(trace)} samples, "
                        f"expected {expected}")
    for name in TRACE_FIELDS:
        column = getattr(trace, name)
        if len(column) != len(trace) or not _finite(column):
            problems.append(f"trace column {name} is not finite")
    return problems


def _horizon(rng: random.Random, lo: float, hi: float, stratum: int,
             strata: int) -> float:
    """A whole-second horizon drawn from stratum ``stratum`` of ``strata``
    equal slices of [lo, hi]. Each pool takes one draw per slice, so pools
    of every seed spread their cost alike and without gaps, which keeps
    the median job from sitting between two cost classes."""
    return float(round(lo + (hi - lo) * (stratum + rng.random()) / strata))


# --------------------------------------------------------------- study --

def generate_study(rng: random.Random, workdir: Path) -> list[dict]:
    cases = []
    variants = ((False, False), (True, False), (False, True), (True, True))
    for g, (preset, kind) in enumerate((p, k) for p in PRESETS
                                       for k in KINDS):
        for j, (rate, clamp) in enumerate(variants):
            # One overfrequency event per group, on a rotating variant.
            sign = -1.0 if j == g % 4 else 1.0
            doc = scenario_doc(rng, preset, kind,
                               _horizon(rng, 20.0, 60.0, j * 8 + g, 32),
                               0.01, rate, clamp, sign)
            cases.append({"doc": doc,
                          "scenario": gridfreq.scenario_from_dict(doc)})
    rng.shuffle(cases)
    return cases


def run_study(case: dict) -> Any:
    scenario = case["scenario"]
    trace = gridfreq.run_simulation(scenario)
    metrics = gridfreq.compute_frequency_metrics(
        trace, scenario.contingency.t_event, f0=scenario.system.f0)
    return trace, metrics


def summarize_study(case: dict, raw: Any) -> dict:
    trace, metrics = raw
    return {"trace_sha256": trace_digest(trace),
            "metrics": _metrics_values(metrics)}


def check_study(case: dict, raw: Any, outcome: dict) -> list[str]:
    trace = raw[0]
    sim = case["scenario"].sim
    problems = _trace_problems(trace, sim.t_end, sim.sample_interval)
    if not _finite(outcome["metrics"]):
        problems.append("frequency metrics are not finite")
    return problems


# -------------------------------------------------------------- sizing --

# Target ranges (Hz) per preset, kind and expected answer, on the preset
# physics. "h0": the nadir with no PV reserve (ei80 59.78 Hz, ercot80
# 58.93 Hz) already meets the target. "unattainable": above the nadir at
# h_max (for ercot80/inertia 59.19 Hz). "bisect": between the two.
SIZING_TARGETS = {
    ("ei80", "droop"): {"h0": (59.5, 59.7), "bisect": (59.82, 59.88),
                        "unattainable": (59.95, 59.98)},
    ("ei80", "inertia"): {"h0": (59.5, 59.7), "bisect": (59.795, 59.81),
                          "unattainable": (59.88, 59.95)},
    ("ei80", "combined"): {"h0": (59.5, 59.7), "bisect": (59.82, 59.88),
                           "unattainable": (59.95, 59.98)},
    ("ercot80", "droop"): {"h0": (58.4, 58.8), "bisect": (59.1, 59.5),
                           "unattainable": (59.8, 59.9)},
    ("ercot80", "inertia"): {"h0": (58.4, 58.8), "bisect": (59.0, 59.12),
                             "unattainable": (59.4, 59.6)},
    ("ercot80", "combined"): {"h0": (58.4, 58.8), "bisect": (59.1, 59.5),
                              "unattainable": (59.8, 59.9)},
}
SIZING_CATEGORIES = ("h0", "unattainable", "bisect", "bisect", "bisect")
SIZING_H_MAX = 0.5
SIZING_TOLERANCE = 0.001


def generate_sizing(rng: random.Random, workdir: Path) -> list[dict]:
    cases = []
    for g, (preset, kind) in enumerate((p, k) for p in PRESETS
                                       for k in RESPONSIVE):
        for j, category in enumerate(SIZING_CATEGORIES):
            # Cheap answers (3 runs) and bisections (11 runs) each spread
            # over the whole horizon range; bisections are the majority,
            # so the median job is a bisection.
            if category == "bisect":
                horizon = _horizon(rng, 12.0, 25.0, (j - 2) * 6 + g, 18)
            else:
                horizon = _horizon(rng, 12.0, 25.0, j * 6 + g, 12)
            lo, hi = SIZING_TARGETS[(preset, kind)][category]
            target = _u(rng, lo, hi)
            doc = {"preset": preset,
                   "controller": {
                       "kind": kind,
                       "droop": {"r": _u(rng, 0.045, 0.055)},
                       "inertia": {"k": _u(rng, 9.5, 10.5),
                                   "recovery_clamp":
                                       rng.random() < 0.5}},
                   "sim": {"dt": DT, "t_end": horizon}}
            query = gridfreq.HeadroomQuery(
                scenario=gridfreq.scenario_from_dict(doc),
                controller=kind, target_nadir_hz=target,
                h_max=SIZING_H_MAX, tolerance=SIZING_TOLERANCE)
            cases.append({"doc": doc, "target": target,
                          "category": category, "query": query})
    rng.shuffle(cases)
    return cases


def run_sizing(case: dict) -> Any:
    try:
        return gridfreq.min_headroom_for_nadir(case["query"])
    except gridfreq.UnattainableError as exc:
        return exc


def summarize_sizing(case: dict, raw: Any) -> dict:
    if isinstance(raw, Exception):
        return {"error": type(raw).__name__}
    return {"headroom": raw.headroom}


def check_sizing(case: dict, raw: Any, outcome: dict) -> list[str]:
    category = case["category"]
    if "error" in outcome:
        if category != "unattainable":
            return [f"{category} query raised {outcome['error']}"]
        return []
    if category == "unattainable":
        return ["unattainable query returned an answer"]
    h = raw.headroom
    problems = []
    if not 0.0 <= h <= SIZING_H_MAX:
        problems.append(f"headroom {h} outside [0, {SIZING_H_MAX}]")
    nadir = raw.evaluations.get(h)
    if nadir is None or not math.isfinite(nadir) or nadir < case["target"]:
        problems.append(f"recorded nadir {nadir} misses target "
                        f"{case['target']}")
    if (h == 0.0) != (category == "h0"):
        problems.append(f"{category} query answered h={h}")
    return problems


# -------------------------------------------------------------- export --

def generate_export(rng: random.Random, workdir: Path) -> list[dict]:
    cases = []
    for g, (preset, sample_interval) in enumerate(
            (p, si) for p in PRESETS for si in (DT, 0.01)):
        for j, kind in enumerate(KINDS):
            doc = scenario_doc(rng, preset, kind,
                               _horizon(rng, 20.0, 60.0, j * 4 + g, 16),
                               sample_interval, rate_limit=(j == g),
                               clamp=bool((g + j) % 2), sign=1.0)
            cases.append({"doc": doc})
    rng.shuffle(cases)
    for i, case in enumerate(cases):
        case["doc"]["name"] = f"bench-{i}"
        config = workdir / f"scenario-{i}.json"
        config.write_text(json.dumps(case["doc"], indent=2))
        case["config"] = str(config)
        case["out"] = str(workdir / "trace.csv")
        case["metrics_out"] = str(workdir / "trace.metrics.csv")
    return cases


def run_export(case: dict) -> Any:
    with contextlib.redirect_stdout(io.StringIO()):
        code = gridfreq.cli.main(["simulate", "--config", case["config"],
                                  "--out", case["out"]])
    if code != 0:
        return code, None, None
    with open(case["out"], newline="") as source:
        trace = gridfreq.read_trace_csv(source)
    with open(case["metrics_out"], newline="") as source:
        rows = gridfreq.read_metrics_csv(source)
    return code, trace, rows


def summarize_export(case: dict, raw: Any) -> dict:
    code = raw[0]
    if code != 0:
        return {"exit_code": code}
    return {"exit_code": code,
            "trace_csv_sha256": hashlib.sha256(
                Path(case["out"]).read_bytes()).hexdigest(),
            "metrics_csv_sha256": hashlib.sha256(
                Path(case["metrics_out"]).read_bytes()).hexdigest()}


def _close_to_6dp(read: list[float], exact: list[float]) -> bool:
    # Six-decimal text is within half a unit in the sixth place of the
    # value it was printed from, plus parse rounding.
    return len(read) == len(exact) and all(
        abs(a - b) <= CSV_TOLERANCE for a, b in zip(read, exact))


def check_export(case: dict, raw: Any, outcome: dict) -> list[str]:
    """Invariants, plus a round trip against a direct in-process run of
    the same document (verification pass only, so it is never timed)."""
    code, trace, rows = raw
    if code != 0:
        return [f"cli exited {code}"]
    sim = case["doc"]["sim"]
    problems = _trace_problems(trace, sim["t_end"], sim["sample_interval"])
    scenario = gridfreq.parse_scenario(Path(case["config"]).read_text())
    exact = gridfreq.run_simulation(scenario)
    for name in TRACE_FIELDS:
        if not _close_to_6dp(getattr(trace, name), getattr(exact, name)):
            problems.append(f"trace CSV column {name} does not round-trip "
                            "to six decimal places")
    if len(rows) != 1 or rows[0][:2] != (scenario.name,
                                         scenario.controller.kind):
        problems.append(f"unexpected metrics rows {rows!r}")
    else:
        m = gridfreq.compute_frequency_metrics(
            exact, scenario.contingency.t_event, f0=scenario.system.f0)
        if not _close_to_6dp(_metrics_values(rows[0][2]),
                             _metrics_values(m)):
            problems.append("metrics CSV row does not round-trip to six "
                            "decimal places")
    return problems


def same_sizing(outcome: dict, reference: dict) -> bool:
    # The sizer promises its answer to within the query tolerance; a
    # different bracket or stopping rule may move it inside that.
    if "headroom" not in outcome or "headroom" not in reference:
        return outcome == reference
    return abs(outcome["headroom"] - reference["headroom"]) \
        <= SIZING_TOLERANCE


# ---------------------------------------------------------- compliance --

def generate_compliance(rng: random.Random, workdir: Path) -> list[dict]:
    cases = []
    for i, kind in enumerate(RESPONSIVE):
        for group in range(4):
            for j in range(4):
                horizon = _horizon(rng, 15.0, 30.0, (group * 4 + j) * 3 + i,
                                   48)
                spec = gridfreq.ControllerSpec(
                    kind=kind,
                    droop=gridfreq.DroopConfig(
                        r=_u(rng, 0.03, 0.08),
                        deadband=_u(rng, 0.0, 0.0025),
                        t_lag=_u(rng, 0.05, 2.0)),
                    inertia=gridfreq.InertiaConfig(
                        k=_u(rng, 5.0, 15.0),
                        t_lag=_u(rng, 0.02, 0.1),
                        t_washout=_u(rng, 0.05, 0.3),
                        recovery_clamp=rng.random() < 0.5))
                plant = gridfreq.PVPlantConfig(
                    c_pv=_u(rng, 0.3, 0.5), headroom=_u(rng, 0.02, 0.2),
                    t_inv=_u(rng, 0.02, 0.2),
                    rate_limit=(_u(rng, 0.05, 1.0) if group % 2 else None))
                thresholds = gridfreq.ComplianceThresholds(
                    step_magnitude=_u(rng, 0.0015, 0.003),
                    max_reaction=_u(rng, 0.3, 0.7),
                    max_rise=_u(rng, 2.0, 6.0),
                    max_settling=_u(rng, 6.0, 14.0),
                    max_overshoot=_u(rng, 0.02, 0.1),
                    settling_band=_u(rng, 0.02, 0.05))
                cases.append({"spec": spec, "plant": plant,
                              "thresholds": thresholds,
                              "sim": gridfreq.SimConfig(dt=DT,
                                                        t_end=horizon)})
    rng.shuffle(cases)
    return cases


def run_compliance(case: dict) -> Any:
    response = gridfreq.run_step_test(case["spec"], case["plant"],
                                      case["thresholds"], sim=case["sim"])
    return gridfreq.evaluate_compliance(response, case["thresholds"])


def summarize_compliance(case: dict, raw: Any) -> dict:
    values = None
    if raw.metrics is not None:
        values = dataclasses.asdict(raw.metrics)
    return {"passed": raw.passed, "failure_reason": raw.failure_reason,
            "criteria": {k: c.passed for k, c in raw.criteria.items()},
            "values": values}


def check_compliance(case: dict, raw: Any, outcome: dict) -> list[str]:
    problems = []
    criteria = outcome["criteria"]
    if outcome["values"] is not None and not _finite(
            list(outcome["values"].values())):
        problems.append("graded values are not finite")
    if criteria:
        if outcome["passed"] != all(criteria.values()):
            problems.append("verdict disagrees with the criteria")
        expected = None if outcome["passed"] else "threshold_exceeded"
        if outcome["failure_reason"] != expected:
            problems.append(f"failure reason {outcome['failure_reason']}")
    elif outcome["passed"] or outcome["failure_reason"] not in (
            "no_response", "not_settled"):
        problems.append(f"ungraded verdict {outcome}")
    return problems


def same_compliance(outcome: dict, reference: dict) -> bool:
    if {k: outcome[k] for k in ("passed", "failure_reason", "criteria")} \
            != {k: reference[k] for k in ("passed", "failure_reason",
                                          "criteria")}:
        return False
    if (outcome["values"] is None) != (reference["values"] is None):
        return False
    for key, ref in (reference["values"] or {}).items():
        got = outcome["values"][key]
        if abs(got - ref) > COMPLIANCE_ABS_TOL + COMPLIANCE_REL_TOL * abs(
                ref):
            return False
    return True


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random, Path], list[dict]]
    run: Callable[[dict], Any]
    summarize: Callable[[dict, Any], dict]
    check: Callable[[dict, Any, dict], list[str]]
    # Whether an outcome matches the stored reference outcome.
    matches_reference: Callable[[dict, dict], bool] = operator.eq


WORKLOADS = {
    w.name: w for w in (
        Workload("study", generate_study, run_study, summarize_study,
                 check_study),
        Workload("sizing", generate_sizing, run_sizing, summarize_sizing,
                 check_sizing, same_sizing),
        Workload("export", generate_export, run_export, summarize_export,
                 check_export),
        Workload("compliance", generate_compliance, run_compliance,
                 summarize_compliance, check_compliance, same_compliance),
    )
}


def generate(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The seeded case pool; the same seed always gives the same pool."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload].generate(rng, workdir)


def load_reference(workload: str) -> list[dict] | None:
    """Reference outcomes of the default seed's pool, in pool order."""
    if not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload)
