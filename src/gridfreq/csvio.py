"""CSV serialization for traces and metrics tables.

Formatting is fixed at six decimal places with ``\\n`` newlines so repeated
runs of the same command produce byte-identical files, suitable for
golden-file comparisons. A scenario or controller name holding a comma,
quote, carriage return or newline is written quoted, as the ``csv`` module
does, and the ``csv`` reader reads it back unchanged. A row that does not
parse, a value that is not finite and a trace time that does not increase
are rejected with a ``ValueError`` that names the line (and the column).
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, TextIO

from .engine import Trace
from .metrics import FrequencyMetrics

TRACE_HEADER = ("t_s,f_hz,rocof_hz_per_s,dp_gov_pu,dp_pv_pu,"
                "dp_pv_droop_pu,dp_pv_inertia_pu")
METRICS_HEADER = ("scenario,controller,nadir_hz,nadir_time_s,"
                  "max_abs_rocof_hz_per_s,settling_freq_hz")
# One format per row. Writers pass each number as x + 0.0, which turns an
# exact -0.0 into 0.0; a value in (-5e-7, 0) still prints as -0.000000.
_TRACE_ROW = ",".join(["%.6f"] * 7) + "\n"
_METRICS_ROW = "%s,%s," + ",".join(["%.6f"] * 4) + "\n"


def _text_field(text: str) -> str:
    # The csv writer leaves a bare "\r" unquoted when the line terminator
    # is "\n", which splits the row on reading; quote it ourselves.
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _bad_row(table: str, line_no: int, fields: list[str], expected: int,
             exc: ValueError) -> ValueError:
    why = (exc if len(fields) == expected
           else f"expected {expected} fields, got {len(fields)}")
    return ValueError(f"{table} CSV line {line_no}: {why}")


def _check_finite(table: str, line_no: int, names: Iterable[str],
                  values: Iterable[float]) -> None:
    # Called only when the row's sum is not finite, which a sum of finite
    # values near 1e308 can also be.
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise ValueError(f"{table} CSV line {line_no}: {name} must be "
                             f"finite, got {value}")


def write_trace_csv(trace: Trace, sink: TextIO) -> None:
    """Write one row per sample with the fixed trace header."""
    sink.write(TRACE_HEADER + "\n")
    for t, f, rocof, gov, pv, droop, inertia in zip(
            trace.t, trace.f_hz, trace.rocof_hz_per_s, trace.dp_gov_pu,
            trace.dp_pv_pu, trace.dp_pv_droop_pu, trace.dp_pv_inertia_pu):
        sink.write(_TRACE_ROW % (t + 0.0, f + 0.0, rocof + 0.0, gov + 0.0,
                                 pv + 0.0, droop + 0.0, inertia + 0.0))


def read_trace_csv(source: TextIO) -> Trace:
    """Parse a trace written by :func:`write_trace_csv`."""
    header = source.readline().rstrip("\n")
    if header != TRACE_HEADER:
        raise ValueError(f"unexpected trace header: {header!r}")
    trace = Trace()
    t_prev = -math.inf
    for n, line in enumerate(map(str.strip, source), 2):
        if not line:
            continue
        try:
            t, f, r, gov, pv, pvd, pvi = map(float, line.split(","))
        except ValueError as exc:
            raise _bad_row("trace", n, line.split(","), 7, exc) from None
        if not math.isfinite(t + f + r + gov + pv + pvd + pvi):
            _check_finite("trace", n, TRACE_HEADER.split(","),
                          (t, f, r, gov, pv, pvd, pvi))
        if not t > t_prev:
            raise ValueError(f"trace CSV line {n}: t_s must increase, got "
                             f"{t} after {t_prev}")
        t_prev = t
        trace.t.append(t)
        trace.f_hz.append(f)
        trace.rocof_hz_per_s.append(r)
        trace.dp_gov_pu.append(gov)
        trace.dp_pv_pu.append(pv)
        trace.dp_pv_droop_pu.append(pvd)
        trace.dp_pv_inertia_pu.append(pvi)
    return trace


def write_metrics_csv(rows: Iterable[tuple[str, str, FrequencyMetrics]],
                      sink: TextIO) -> None:
    """Write (scenario, controller, metrics) rows in the order given."""
    sink.write(METRICS_HEADER + "\n")
    for scenario, controller, m in rows:
        sink.write(_METRICS_ROW % (
            _text_field(scenario), _text_field(controller),
            m.nadir_hz + 0.0, m.nadir_time_s + 0.0,
            m.max_abs_rocof_hz_per_s + 0.0, m.settling_freq_hz + 0.0))


def read_metrics_csv(source: TextIO) -> list[tuple[str, str,
                                                   FrequencyMetrics]]:
    """Parse a metrics table written by :func:`write_metrics_csv`."""
    header = source.readline().rstrip("\n")
    if header != METRICS_HEADER:
        raise ValueError(f"unexpected metrics header: {header!r}")
    rows = []
    reader = csv.reader(source)
    for row in reader:
        if not row:
            continue
        # line_num ends at the row's last line, after the header's.
        try:
            scenario, controller, nadir, t_nadir, rocof, settling = row
            values = [float(nadir), float(t_nadir), float(rocof),
                      float(settling)]
        except ValueError as exc:
            raise _bad_row("metrics", 1 + reader.line_num, row, 6,
                           exc) from None
        if not math.isfinite(sum(values)):
            _check_finite("metrics", 1 + reader.line_num,
                          METRICS_HEADER.split(",")[2:], values)
        rows.append((scenario, controller, FrequencyMetrics(*values)))
    return rows
