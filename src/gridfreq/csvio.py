"""CSV serialization for traces and metrics tables.

Formatting is fixed at six decimal places with ``\\n`` newlines so repeated
runs of the same command produce byte-identical files, suitable for
golden-file comparisons. A scenario or controller name holding a comma,
quote, carriage return or newline is written quoted, as the ``csv`` module
does, and the ``csv`` reader reads it back unchanged.
"""

from __future__ import annotations

import csv
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
    for line in source:
        line = line.strip()
        if not line:
            continue
        t, f, r, gov, pv, pvd, pvi = map(float, line.split(","))
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
    for row in csv.reader(source):
        if not row:
            continue
        scenario, controller, nadir, t_nadir, rocof, settling = row
        rows.append((scenario, controller, FrequencyMetrics(
            nadir_hz=float(nadir),
            nadir_time_s=float(t_nadir),
            max_abs_rocof_hz_per_s=float(rocof),
            settling_freq_hz=float(settling),
        )))
    return rows
