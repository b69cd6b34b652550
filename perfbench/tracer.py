"""Span recorder for the traced benchmark run.

The recorder wraps public gridfreq functions at the module attributes
through which callers reach them (``gridfreq.headroom.run_simulation`` is
the name the sizer calls, ``gridfreq.run_simulation`` the name a user
calls). Each call becomes a span: name, layer, start, end, parent span and
job id, plus work counts taken from the call's inputs and outputs, so they
repeat exactly for a given seed. Spans stay in memory until the run ends.

Self time is a span's duration minus the part of it covered by its child
spans. The wrappers are installed only inside ``Recorder.installed()`` and
the original attributes are restored when it exits, so the untraced runs
execute the package exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from typing import Any, Callable, Iterator

# A span is a list: [name, layer, parent, job, t0, t1, counts]
NAME, LAYER, PARENT, JOB, T0, T1, COUNTS = range(7)

Counter = Callable[[dict[str, Any], Any, BaseException | None],
                   dict[str, float]]


def _engine_counts(arguments, result, exc):
    cfg = arguments["sim"] or arguments["scenario"].sim
    return {"steps": round(cfg.t_end / cfg.dt), "sim_s": cfg.t_end,
            "samples": len(result) if result is not None else 0}


def _step_test_counts(arguments, result, exc):
    # The benchmark always passes ``sim`` to run_step_test.
    cfg = arguments["sim"]
    return {"steps": round(cfg.t_end / cfg.dt)}


def _sizing_counts(arguments, result, exc):
    return {"unattainable": int(type(exc).__name__ == "UnattainableError")}


def _write_counts(arguments, result, exc):
    # The CLI opens a fresh file per write, so the position afterwards is
    # the file size.
    data = arguments.get("trace", arguments.get("rows"))
    return {"rows": len(data), "bytes": arguments["sink"].tell()}


def _read_counts(arguments, result, exc):
    return {"rows": len(result) if result is not None else 0}


def _cli_counts(arguments, result, exc):
    return {"nonzero_exits": int(result != 0)}


# (module, attribute, span name, layer, counter). The first group is what
# the benchmark's jobs call; the rest are the names the package's own
# modules call each other through.
TARGETS: tuple[tuple[str, str, str, str, Counter | None], ...] = (
    ("gridfreq", "run_simulation", "run_simulation", "engine",
     _engine_counts),
    ("gridfreq", "compute_frequency_metrics", "compute_frequency_metrics",
     "metrics", None),
    ("gridfreq", "min_headroom_for_nadir", "min_headroom_for_nadir",
     "headroom", _sizing_counts),
    ("gridfreq", "read_trace_csv", "read_trace_csv", "csvio.read",
     _read_counts),
    ("gridfreq", "read_metrics_csv", "read_metrics_csv", "csvio.read",
     _read_counts),
    ("gridfreq", "run_step_test", "run_step_test", "compliance.step",
     _step_test_counts),
    ("gridfreq", "evaluate_compliance", "evaluate_compliance",
     "compliance.grade", None),
    ("gridfreq.cli", "main", "cli.main", "cli", _cli_counts),
    ("gridfreq.headroom", "run_simulation", "run_simulation", "engine",
     _engine_counts),
    ("gridfreq.headroom", "compute_frequency_metrics",
     "compute_frequency_metrics", "metrics", None),
    ("gridfreq.headroom", "set_param", "set_param", "scenario", None),
    ("gridfreq.cli", "parse_scenario", "parse_scenario", "scenario", None),
    ("gridfreq.cli", "preset_scenario", "preset_scenario", "scenario",
     None),
    ("gridfreq.cli", "set_param", "set_param", "scenario", None),
    ("gridfreq.cli", "run_simulation", "run_simulation", "engine",
     _engine_counts),
    ("gridfreq.cli", "compute_frequency_metrics",
     "compute_frequency_metrics", "metrics", None),
    ("gridfreq.cli", "write_trace_csv", "write_trace_csv", "csvio.write",
     _write_counts),
    ("gridfreq.cli", "write_metrics_csv", "write_metrics_csv",
     "csvio.write", _write_counts),
    ("gridfreq.compliance", "make_controller", "make_controller", "pv",
     None),
)


class Recorder:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[list[Any]] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._clock = clock

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, parent, self.job, self._clock(),
                           None, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict[str, float] | None = None
              ) -> None:
        span = self.spans[idx]
        span[T1] = self._clock()
        span[COUNTS] = counts
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def job_span(self, job: int) -> Iterator[None]:
        """Root span of one benchmark job; package spans nest inside."""
        self.job = job
        idx = self.open("job", "bench")
        try:
            yield
        finally:
            self.close(idx)
            self.job = None

    def wrap(self, fn: Callable, name: str, layer: str,
             counter: Counter | None) -> Callable:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, layer)
            result = None
            error: BaseException | None = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                counts = None
                if counter is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound.arguments, result, error)
                self.close(idx, counts)

        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS) -> Iterator[None]:
        """Install the wrappers, restoring every attribute on exit."""
        saved = []
        try:
            for module_name, attr, name, layer, counter in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr,
                        self.wrap(original, name, layer, counter))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[list[Any]]) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[T0],
                                                          span[T1]))
    out = []
    for idx, span in enumerate(spans):
        t0, t1 = span[T0], span[T1]
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def layer_metrics(spans: list[list[Any]]) -> dict[str, float]:
    """Per-layer counts and self times from one traced pass."""
    self_s = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0.0) + value

    for idx, span in enumerate(spans):
        layer = span[LAYER]
        total[layer] = total.get(layer, 0.0) + self_s[idx]
        calls[layer] = calls.get(layer, 0) + 1
        for key, value in (span[COUNTS] or {}).items():
            add(f"{layer}.{key}", value)
        parent = span[PARENT]
        if layer == "engine" and parent is not None \
                and spans[parent][LAYER] == "headroom":
            add("headroom.runs", 1)
            add("headroom.sim_s", span[COUNTS]["sim_s"])

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    sizings = calls.get("headroom", 0)
    engine_s = total.get("engine", 0.0)
    step_s = total.get("compliance.step", 0.0)
    job_s = sum(span[T1] - span[T0] for span in spans
                if span[LAYER] == "bench")
    package_s = sum(v for k, v in total.items() if k != "bench")
    return {
        "engine.runs": calls.get("engine", 0),
        "engine.steps": counts.get("engine.steps", 0.0),
        "engine.samples": counts.get("engine.samples", 0.0),
        "engine.self_s": engine_s,
        "engine.ns_per_step": per(engine_s * 1e9,
                                  counts.get("engine.steps", 0.0)),
        "engine.sim_s_per_s": per(counts.get("engine.sim_s", 0.0),
                                  engine_s),
        "headroom.sizings": sizings,
        "headroom.runs": counts.get("headroom.runs", 0.0),
        "headroom.runs_per_sizing": per(counts.get("headroom.runs", 0.0),
                                        sizings),
        "headroom.sim_s_per_sizing": per(counts.get("headroom.sim_s", 0.0),
                                         sizings),
        "headroom.unattainable": counts.get("headroom.unattainable", 0.0),
        "headroom.self_s": total.get("headroom", 0.0),
        "csvio.rows_written": counts.get("csvio.write.rows", 0.0),
        "csvio.bytes_written": counts.get("csvio.write.bytes", 0.0),
        "csvio.write_self_s": total.get("csvio.write", 0.0),
        "csvio.rows_read": counts.get("csvio.read.rows", 0.0),
        "csvio.read_self_s": total.get("csvio.read", 0.0),
        "compliance.tests": calls.get("compliance.step", 0),
        "compliance.steps": counts.get("compliance.step.steps", 0.0),
        "compliance.step_self_s": step_s,
        "compliance.ns_per_step": per(
            step_s * 1e9, counts.get("compliance.step.steps", 0.0)),
        "compliance.grade_self_s": total.get("compliance.grade", 0.0),
        "metrics.calls": calls.get("metrics", 0),
        "metrics.self_s": total.get("metrics", 0.0),
        "scenario.calls": calls.get("scenario", 0),
        "scenario.self_s": total.get("scenario", 0.0),
        "cli.calls": calls.get("cli", 0),
        "cli.nonzero_exits": counts.get("cli.nonzero_exits", 0.0),
        "cli.self_s": total.get("cli", 0.0),
        "pv.calls": calls.get("pv", 0),
        "pv.self_s": total.get("pv", 0.0),
        "bench.self_s": total.get("bench", 0.0),
        "trace.layer_share": per(package_s, job_s),
    }
