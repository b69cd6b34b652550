import csv
import dataclasses
import io
import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfreq.cli import main
from gridfreq.csvio import (METRICS_HEADER, TRACE_HEADER, read_metrics_csv,
                            read_trace_csv, write_metrics_csv,
                            write_trace_csv)
from gridfreq.engine import Trace, run_simulation
from gridfreq.headroom import compare_controllers
from gridfreq.metrics import FrequencyMetrics
from gridfreq.scenario import (_SCHEMA, Contingency, ControllerSpec,
                               DroopConfig, GovernorFleet, InertiaConfig,
                               PVPlantConfig, Scenario, ScenarioError,
                               SimConfig, SystemParams, _field_contracts,
                               parse_scenario, parse_set_value,
                               preset_scenario, scenario_from_dict,
                               serialize_scenario, set_param,
                               valid_param_paths)

CANONICAL = """
{"name":"ei80-droop","preset":"ei80",
 "system":{"h_sys":2.0,"d_load":1.0,
   "governor":{"kappa":0.3,"r_gov":0.05,"t_gov":8.0},
   "pv":{"c_pv":0.4,"headroom":0.05,"t_inv":0.05}},
 "controller":{"kind":"droop",
   "droop":{"r":0.05,"deadband":0.0006,"t_lag":0.1},
   "inertia":{"k":10.0,"t_lag":0.1,"t_washout":0.1,
              "recovery_clamp":false}},
 "contingency":{"dp":0.009,"t_event":1.0},
 "sim":{"dt":0.005,"t_end":60.0,"sample_interval":0.01,
        "rocof_window":0.1}}
"""


class TestParseScenario:
    def test_canonical_document(self):
        s = parse_scenario(CANONICAL)
        assert s.name == "ei80-droop"
        assert s.system.h_sys == 2.0
        assert s.system.governor.t_gov == 8.0
        assert s.system.pv.c_pv == 0.4
        assert s.controller.kind == "droop"
        assert s.controller.droop.deadband == 0.0006
        assert s.controller.inertia.k == 10.0
        assert s.controller.inertia.recovery_clamp is False
        assert s.contingency.dp == 0.009
        assert s.sim.dt == 0.005

    def test_preset_fills_missing_fields(self):
        s = parse_scenario('{"preset": "ei80"}')
        assert s.system.h_sys == 2.0
        assert s.contingency.dp == 0.009
        assert s.name == "ei80"

    def test_explicit_value_overrides_preset(self):
        s = parse_scenario('{"preset": "ei80", "system": {"h_sys": 3.5}}')
        assert s.system.h_sys == 3.5
        assert s.contingency.dp == 0.009

    def test_negative_h_sys_rejected(self):
        with pytest.raises(ScenarioError, match="h_sys must be > 0"):
            parse_scenario('{"system": {"h_sys": -1},'
                           ' "contingency": {"dp": 0.01}}')

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match=(
                "^unknown key grid; valid keys: contingency, controller, "
                "name, sim, system$")):
            parse_scenario('{"preset": "ei80", "grid": {}}')

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ScenarioError, match="system.hsys"):
            parse_scenario('{"preset": "ei80", "system": {"hsys": 2.0}}')

    def test_missing_required_fields_without_preset(self):
        with pytest.raises(ScenarioError, match="h_sys"):
            parse_scenario('{"contingency": {"dp": 0.01}}')
        with pytest.raises(ScenarioError, match="dp"):
            parse_scenario('{"system": {"h_sys": 2.0}}')

    @pytest.mark.parametrize("doc, path", [
        ('{"preset":"ei80","system":{"h_sys":NaN}}', "system.h_sys"),
        ('{"preset":"ei80","contingency":{"dp":Infinity}}',
         "contingency.dp"),
    ])
    def test_non_finite_number_rejected(self, doc, path):
        with pytest.raises(ScenarioError, match=f"{path} must be finite"):
            parse_scenario(doc)

    def test_non_object_document_rejected(self):
        with pytest.raises(ScenarioError, match="^scenario document must "
                                                "be a JSON object$"):
            parse_scenario("[1]")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario('{"preset": "ei80",}')

    def test_wrong_type_rejected(self):
        with pytest.raises(ScenarioError, match="must be a number"):
            parse_scenario('{"preset": "ei80",'
                           ' "system": {"h_sys": "two"}}')
        with pytest.raises(ScenarioError, match="true or false"):
            parse_scenario(
                '{"preset": "ei80", "controller":'
                ' {"inertia": {"recovery_clamp": 1}}}')
        with pytest.raises(ScenarioError, match="^system must be of type "
                                                "SystemParams, got 5$"):
            parse_scenario('{"preset": "ei80", "system": 5}')

    def test_roundtrip_presets(self):
        for name in ("ei80", "ercot80"):
            s = preset_scenario(name, controller="combined")
            again = parse_scenario(serialize_scenario(s))
            assert again == s

    def test_roundtrip_modified_scenario(self):
        s = preset_scenario("ercot80")
        s = set_param(s, "system.pv.rate_limit", 0.25)
        s = set_param(s, "controller.inertia.recovery_clamp", True)
        again = parse_scenario(serialize_scenario(s))
        assert again == s

    @given(st.floats(min_value=0.5, max_value=10.0),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=1e-4, max_value=0.2),
           st.floats(min_value=0.0, max_value=0.9),
           st.floats(min_value=1e-3, max_value=0.01),
           st.booleans())
    def test_roundtrip_random_fields(self, h_sys, d_load, dp, headroom,
                                     deadband, clamp):
        s = preset_scenario("ei80")
        s = set_param(s, "system.h_sys", h_sys)
        s = set_param(s, "system.d_load", d_load)
        s = set_param(s, "contingency.dp", dp)
        s = set_param(s, "system.pv.headroom", headroom)
        s = set_param(s, "controller.droop.deadband", deadband)
        s = set_param(s, "controller.inertia.recovery_clamp", clamp)
        assert parse_scenario(serialize_scenario(s)) == s


class TestSetParam:
    def test_set_nested_value(self):
        s = preset_scenario("ei80")
        s2 = set_param(s, "system.governor.t_gov", 6.0)
        assert s2.system.governor.t_gov == 6.0
        assert s.system.governor.t_gov == 8.0  # original untouched
        s3 = set_param(s, "controller.kind", "droop")
        assert s3.controller.kind == "droop"
        assert s3.controller.droop == s.controller.droop

    def test_unknown_path_lists_valid_paths(self):
        s = preset_scenario("ei80")
        with pytest.raises(ScenarioError, match="system.h_sys"):
            set_param(s, "system.bogus", 1.0)

    def test_paths_cover_all_sections(self):
        paths = valid_param_paths()
        for expected in ("system.h_sys", "system.d_load",
                         "system.governor.kappa", "system.pv.headroom",
                         "controller.droop.r", "controller.inertia.k",
                         "contingency.dp", "sim.dt"):
            assert expected in paths

    def test_invalid_value_reports_path(self):
        s = preset_scenario("ei80")
        with pytest.raises(ScenarioError, match="system.h_sys"):
            set_param(s, "system.h_sys", -2.0)
        with pytest.raises(ScenarioError, match="system.h_sys"):
            set_param(s, "system.h_sys", float("nan"))

    def test_parse_set_value(self):
        # Each text is read by the annotation of the field it is for.
        assert parse_set_value("system.h_sys", "0.25") == 0.25
        clamp = "controller.inertia.recovery_clamp"
        assert parse_set_value(clamp, "true") is True
        assert parse_set_value(clamp, " FALSE ") is False
        assert parse_set_value("system.pv.rate_limit", "none") is None
        assert parse_set_value("system.pv.rate_limit", "null") is None
        assert parse_set_value("system.pv.rate_limit", "0.5") == 0.5
        # The kind "none" is a kind, not an unset value.
        assert parse_set_value("controller.kind", " none ") == "none"
        # Other text is passed on, for the field's check to reject.
        assert parse_set_value("system.h_sys", " fast ") == "fast"
        assert parse_set_value("system.h_sys", "none") == "none"
        assert parse_set_value(clamp, "1") == "1"
        with pytest.raises(ScenarioError, match="^system.h_sys must be a "
                                                "number, got 'fast'$"):
            set_param(preset_scenario("ei80"), "system.h_sys",
                      parse_set_value("system.h_sys", "fast"))
        with pytest.raises(ScenarioError, match="valid paths"):
            parse_set_value("system.bogus", "1")


class TestTraceCsv:
    def test_header_exact(self):
        sink = io.StringIO()
        write_trace_csv(Trace(), sink)
        assert sink.getvalue() == TRACE_HEADER + "\n"
        assert TRACE_HEADER == ("t_s,f_hz,rocof_hz_per_s,dp_gov_pu,"
                                "dp_pv_pu,dp_pv_droop_pu,dp_pv_inertia_pu")

    def test_pre_event_row_is_exact_zeroes(self):
        s = preset_scenario("ei80", controller="droop")
        trace = run_simulation(s, sim=SimConfig(t_end=10.0))
        sink = io.StringIO()
        write_trace_csv(trace, sink)
        first_row = sink.getvalue().splitlines()[1]
        assert first_row == ("0.000000,60.000000,0.000000,0.000000,"
                             "0.000000,0.000000,0.000000")

    def test_roundtrip_within_formatting_precision(self):
        s = preset_scenario("ercot80", controller="combined")
        trace = run_simulation(s, sim=SimConfig(t_end=10.0))
        sink = io.StringIO()
        write_trace_csv(trace, sink)
        again = read_trace_csv(io.StringIO(sink.getvalue()))
        assert len(again) == len(trace)
        for a, b in zip(trace.f_hz, again.f_hz):
            assert abs(a - b) <= 1e-6
        for a, b in zip(trace.dp_pv_pu, again.dp_pv_pu):
            assert abs(a - b) <= 1e-6

    def test_write_is_deterministic(self):
        s = preset_scenario("ei80", controller="inertia")
        sim = SimConfig(t_end=5.0)
        out1, out2 = io.StringIO(), io.StringIO()
        write_trace_csv(run_simulation(s, sim=sim), out1)
        write_trace_csv(run_simulation(s, sim=sim), out2)
        assert out1.getvalue() == out2.getvalue()

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(io.StringIO("time,freq\n"))

    @pytest.mark.parametrize("dt", [1e-6, 1.5e-6, 2e-6, 3e-6, 1e-5])
    def test_finest_sample_intervals_read_back(self, dt):
        # t_s has six decimals; sim.sample_interval >= 1e-6 keeps it
        # increasing. 200 samples, one every step.
        s = scenario_from_dict({
            "preset": "ei80", "contingency": {"t_event": 100 * dt},
            "sim": {"dt": dt, "sample_interval": dt, "t_end": 199 * dt}})
        sink = io.StringIO()
        write_trace_csv(run_simulation(s), sink)
        rows = sink.getvalue().splitlines()[1:]
        times = [float(row.split(",")[0]) for row in rows]
        assert len(times) == 200
        assert all(a < b for a, b in zip(times, times[1:]))
        assert list(read_trace_csv(io.StringIO(sink.getvalue())).t) == times

    def test_rows_match_per_value_format(self):
        # Negative zero, values that round to zero from either side, the
        # six-decimal rounding boundary and large magnitudes.
        values = [-0.0, 0.0, -4e-7, 4e-7, 5e-7, -5e-7, 1.2345665, 59.9999995,
                  -123456.789, 1e-12, -0.5e-6 - 1e-12, 3.0]
        columns = [values[i:] + values[:i] for i in range(7)]
        trace = Trace(*columns)
        sink = io.StringIO()
        write_trace_csv(trace, sink)
        rows = [",".join(f"{column[i] + 0.0:.6f}" for column in columns)
                for i in range(len(values))]
        assert sink.getvalue() == "\n".join([TRACE_HEADER, *rows]) + "\n"


class TestMetricsCsv:
    def test_header_and_order(self):
        s = set_param(preset_scenario("ei80"), "sim.t_end", 20.0)
        table = compare_controllers(s)
        sink = io.StringIO()
        write_metrics_csv([(s.name, k, m) for k, m in table.items()], sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == METRICS_HEADER
        kinds = [line.split(",")[1] for line in lines[1:]]
        assert kinds == ["none", "droop", "inertia", "combined"]

    def test_empty_table(self):
        sink = io.StringIO()
        write_metrics_csv([], sink)
        assert sink.getvalue() == METRICS_HEADER + "\n"

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="^unexpected metrics header: "
                                             "'scenario,nadir'$"):
            read_metrics_csv(io.StringIO("scenario,nadir\n"))

    def test_roundtrip(self):
        m = FrequencyMetrics(nadir_hz=59.71234, nadir_time_s=2.34,
                             max_abs_rocof_hz_per_s=0.45678,
                             settling_freq_hz=59.876543)
        sink = io.StringIO()
        write_metrics_csv([("demo", "droop", m)], sink)
        rows = read_metrics_csv(io.StringIO(sink.getvalue()))
        assert rows[0][0] == "demo"
        assert rows[0][1] == "droop"
        assert rows[0][2].nadir_hz == pytest.approx(m.nadir_hz, abs=1e-6)
        assert rows[0][2].settling_freq_hz == pytest.approx(
            m.settling_freq_hz, abs=1e-6)

    def test_roundtrip_skips_blank_rows(self):
        m = FrequencyMetrics(nadir_hz=59.5, nadir_time_s=2.0,
                             max_abs_rocof_hz_per_s=0.5,
                             settling_freq_hz=59.8)
        sink = io.StringIO()
        write_metrics_csv([("a", "droop", m), ("b", "none", m)], sink)
        spaced = sink.getvalue().replace("\n", "\n\n")
        assert read_metrics_csv(io.StringIO(spaced)) == [
            ("a", "droop", m), ("b", "none", m)]

    def test_roundtrip_quoted_names(self):
        m = FrequencyMetrics(nadir_hz=59.5, nadir_time_s=2.0,
                             max_abs_rocof_hz_per_s=0.5,
                             settling_freq_hz=59.8)
        names = [('a,b "c"', "droop"), ("line\nbreak", 'x"y')]
        sink = io.StringIO()
        write_metrics_csv([(s, c, m) for s, c in names], sink)
        rows = read_metrics_csv(io.StringIO(sink.getvalue()))
        assert [(s, c) for s, c, _ in rows] == names
        assert all(r[2] == m for r in rows)

    def test_roundtrip_bare_carriage_return(self, tmp_path):
        m = FrequencyMetrics(nadir_hz=59.5, nadir_time_s=2.0,
                             max_abs_rocof_hz_per_s=0.5,
                             settling_freq_hz=59.8)
        names = [("a\rb", "droop"), ("c\r\nd", "x\r")]
        sink = io.StringIO()
        write_metrics_csv([(s, c, m) for s, c in names], sink)
        rows = read_metrics_csv(io.StringIO(sink.getvalue()))
        assert [(s, c) for s, c, _ in rows] == names
        path = tmp_path / "metrics.csv"
        with open(path, "w", newline="") as out:
            write_metrics_csv([(s, c, m) for s, c in names], out)
        with open(path, newline="") as source:
            rows = read_metrics_csv(source)
        assert [(s, c) for s, c, _ in rows] == names

    def test_plain_names_match_csv_module_bytes(self):
        m = FrequencyMetrics(nadir_hz=59.5, nadir_time_s=2.0,
                             max_abs_rocof_hz_per_s=0.5,
                             settling_freq_hz=59.8)
        names = [("bench-0", "droop"), ("", "none"), ("a b\t'c'", "x,y"),
                 ('q"', "line\nbreak")]
        sink = io.StringIO()
        write_metrics_csv([(s, c, m) for s, c in names], sink)
        expected = io.StringIO()
        expected.write(METRICS_HEADER + "\n")
        writer = csv.writer(expected, lineterminator="\n")
        for s, c in names:
            writer.writerow((s, c, "59.500000", "2.000000", "0.500000",
                             "59.800000"))
        assert sink.getvalue() == expected.getvalue()


class TestCsvRowErrors:
    # Each bad row is line 4: the trace has a good row and a blank line
    # before it, the metrics table a good row whose quoted name spans
    # lines 2 and 3.
    READERS = {
        "trace": (read_trace_csv, TRACE_HEADER + "\n0,60,0,0,0,0,0\n\n"),
        "metrics": (read_metrics_csv,
                    METRICS_HEADER + '\n"a\nb",droop,59,2,0.5,59\n'),
    }

    @pytest.mark.parametrize("table, bad, message", [
        ("trace", "1,60,0,0,0,0", "expected 7 fields, got 6"),
        ("trace", "1,60,0,0,0,0,0,0", "expected 7 fields, got 8"),
        ("trace", "1,60,x,0,0,0,0", "could not convert string to float: 'x'"),
        ("metrics", "c,droop,59,2,0.5", "expected 6 fields, got 5"),
        ("metrics", "c,droop,59,2,0.5,59,1", "expected 6 fields, got 7"),
        ("metrics", "c,droop,59,2,x,59",
         "could not convert string to float: 'x'"),
    ], ids=["trace-short", "trace-long", "trace-not-a-number",
            "metrics-short", "metrics-long", "metrics-not-a-number"])
    def test_bad_row_names_its_line(self, table, bad, message):
        read, head = self.READERS[table]
        with pytest.raises(ValueError) as info:
            read(io.StringIO(head + bad + "\n0,60,0,0,0,0,0\n"))
        assert str(info.value) == f"{table} CSV line 4: {message}"


class TestSilentInput:
    """Input that the readers would otherwise take as something it does
    not say: each is rejected, and the message names the culprit."""

    GOOD_ROW = "0,60,0,0,0,0,0\n"

    @pytest.mark.parametrize("source, text, message", [
        ("document", '{"preset": "ercot80", "system": {"h_sys": 9.0}, '
                     '"system": {"d_load": 2.0}}',
         "repeated key 'system' in the scenario document"),
        ("document", '{"preset": "ercot80", '
                     '"system": {"h_sys": 9.0, "h_sys": 1.5}}',
         "repeated key 'h_sys' in the scenario document"),
        ("cli", "headroom --preset ercot80 --controller droop --target "
                "59.5 --set system.h_sys=9 --set system.h_sys=1.5",
         "--set system.h_sys is given more than once"),
        # A flag, or the subcommand itself, that sets a field after --set
        # would keep only its own value.
        ("cli", "simulate --preset ei80 --set controller.kind=droop "
                "--controller inertia --out x.csv",
         "--set controller.kind and --controller both set controller.kind; "
         "one would replace the other"),
        ("cli", "sweep --preset ercot80 --controller inertia --param "
                "controller.kind --values droop --out s.csv",
         "--controller and --param controller.kind both set "
         "controller.kind; one would replace the other"),
        ("cli", "sweep --preset ercot80 --set system.h_sys=9 --param "
                "system.h_sys --values 3 --out s.csv",
         "--set system.h_sys and --param system.h_sys both set "
         "system.h_sys; one would replace the other"),
        ("cli", "headroom --preset ercot80 --controller droop --target 59.5 "
                "--set system.pv.headroom=0.3",
         "--set system.pv.headroom and the headroom command both set "
         "system.pv.headroom; one would replace the other"),
        ("cli", "simulate --preset ei80 --set "
                "controller.inertia.recovery_clamp=1 --out x.csv",
         "controller.inertia.recovery_clamp must be true or false, "
         "got '1'"),
        # Below the trace CSV's 1e-6 s time resolution; the 0.01 s horizon,
        # shorter than the settling window, would also exit 1.
        ("cli", "simulate --preset ei80 --set contingency.t_event=0.005 "
                "--set sim.dt=5e-7 --set sim.sample_interval=5e-7 "
                "--set sim.t_end=0.01 --out fine.csv",
         "sim.sample_interval must be >= 1e-06, got 5e-07"),
        ("trace", GOOD_ROW + "1,nan,0,0,0,0,0\n",
         "trace CSV line 3: f_hz must be finite, got nan"),
        ("trace", "0,60,-inf,0,0,0,0\n",
         "trace CSV line 2: rocof_hz_per_s must be finite, got -inf"),
        ("trace", "1,60,0,0,0,0,0\n" + GOOD_ROW,
         "trace CSV line 3: t_s must increase, got 0.0 after 1.0"),
        ("trace", GOOD_ROW + GOOD_ROW,
         "trace CSV line 3: t_s must increase, got 0.0 after 0.0"),
        ("metrics", "c,droop,nan,2,0.5,59\n",
         "metrics CSV line 2: nadir_hz must be finite, got nan"),
        ("metrics", "c,droop,59,2,0.5,-inf\n",
         "metrics CSV line 2: settling_freq_hz must be finite, got -inf"),
    ], ids=["document-repeated-section", "document-repeated-field",
            "cli-repeated-set", "cli-controller-set-twice",
            "cli-swept-controller-set-twice", "cli-swept-field-set-twice",
            "cli-sized-headroom-set",
            "cli-boolean-given-a-number", "cli-sample-interval-below-1e-06",
            "trace-nan", "trace-inf", "trace-time-backwards",
            "trace-time-repeated", "metrics-nan", "metrics-inf"])
    def test_rejected(self, source, text, message, capsys, tmp_path,
                      monkeypatch):
        if source == "cli":
            monkeypatch.chdir(tmp_path)
            assert main(shlex.split(text)) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert list(tmp_path.iterdir()) == []  # no file written
            return
        read = {"document": parse_scenario,
                "trace": lambda text: read_trace_csv(
                    io.StringIO(TRACE_HEADER + "\n" + text)),
                "metrics": lambda text: read_metrics_csv(
                    io.StringIO(METRICS_HEADER + "\n" + text))}[source]
        with pytest.raises(ValueError) as info:
            read(text)
        assert str(info.value) == message

    def test_finite_row_whose_sum_overflows_is_read(self):
        # The readers test a row's sum first; 1e308 + 1e308 is inf.
        trace = read_trace_csv(io.StringIO(
            TRACE_HEADER + "\n0,1e308,1e308,0,0,0,0\n"))
        assert list(trace.rocof_hz_per_s) == [1e308]
        (_, _, m), = read_metrics_csv(io.StringIO(
            METRICS_HEADER + "\nc,droop,1e308,2,1e308,59\n"))
        assert m.max_abs_rocof_hz_per_s == 1e308


class TestSchema:
    def test_param_paths_are_exact(self):
        assert valid_param_paths() == [
            "contingency.dp", "contingency.t_event",
            "controller.droop.deadband", "controller.droop.r",
            "controller.droop.t_lag", "controller.inertia.deadband",
            "controller.inertia.k", "controller.inertia.recovery_clamp",
            "controller.inertia.t_lag", "controller.inertia.t_washout",
            "controller.kind", "sim.dt", "sim.rocof_window", "sim.sample_interval",
            "sim.t_end", "system.d_load", "system.f0",
            "system.governor.kappa", "system.governor.r_gov",
            "system.governor.reserve_limit", "system.governor.t_gov",
            "system.h_sys", "system.pv.available_power",
            "system.pv.c_pv", "system.pv.headroom",
            "system.pv.rate_limit", "system.pv.t_inv",
        ]

    def test_sections_match_dataclasses(self):
        def check(obj, prefix):
            contracts = _field_contracts(type(obj))
            assert [c[0] for c in contracts] == [
                f.name for f in dataclasses.fields(obj)], prefix
            for name, kind, *_ in contracts:
                if dataclasses.is_dataclass(kind):
                    assert type(getattr(obj, name)) is kind, prefix + name
                    check(getattr(obj, name), f"{prefix}{name}.")

        scenario = preset_scenario("ei80")
        check(scenario, "")
        assert _SCHEMA == {f.name: type(getattr(scenario, f.name))
                           for f in dataclasses.fields(Scenario)
                           if f.name != "name"}


class TestScenarioDocForm:
    def test_dict_form_parses_identically(self):
        doc = json.loads(CANONICAL)
        assert scenario_from_dict(doc) == parse_scenario(CANONICAL)

    def test_scenario_equality_is_structural(self):
        assert preset_scenario("ei80") == preset_scenario("ei80")
        assert preset_scenario("ei80") != preset_scenario("ercot80")


class TestPVPlant:
    def test_operating_point_fields(self):
        cfg = PVPlantConfig(headroom=0.2, available_power=0.9)
        assert cfg.operating_point == pytest.approx(0.72)
        assert cfg.up_limit == pytest.approx(0.18)
        assert cfg.down_limit == pytest.approx(-0.72)


class TestPresetDocuments:
    """A preset is a partial scenario document merged beneath the given
    one."""

    @pytest.mark.parametrize("kind", ["none", "droop", "inertia",
                                      "combined"])
    @pytest.mark.parametrize("name, h_sys, dp, headroom", [
        ("ei80", 2.0, 0.009, 0.05), ("ercot80", 1.5, 0.04, 0.1)])
    def test_preset_equals_hand_built(self, name, h_sys, dp, headroom,
                                      kind):
        want = Scenario(
            system=SystemParams(h_sys=h_sys, d_load=1.0,
                                pv=PVPlantConfig(headroom=headroom)),
            contingency=Contingency(dp=dp, t_event=1.0),
            controller=ControllerSpec(kind=kind), name=name)
        assert preset_scenario(name, kind) == want

    @pytest.mark.parametrize("name, h_sys, headroom", [
        ("ei80", 2.0, 0.05), ("ercot80", 1.5, 0.1)])
    def test_nested_field_keeps_the_preset_siblings(self, name, h_sys,
                                                     headroom):
        # ercot80's headroom is not the class default, so replacing the
        # whole pv object would show
        s = scenario_from_dict({"preset": name,
                                "system": {"pv": {"c_pv": 0.3}}})
        assert s.system.pv.c_pv == 0.3
        assert s.system.pv.headroom == headroom
        assert s.system.h_sys == h_sys

    def test_null_name_takes_the_preset_name(self):
        assert scenario_from_dict({"preset": "ei80",
                                   "name": None}).name == "ei80"
        assert scenario_from_dict({"system": {"h_sys": 2.0},
                                   "contingency": {"dp": 0.01},
                                   "name": None}).name == "scenario"

    # Every way to name a preset rejects an unknown one with the same
    # message; a name that is not a string is shown as the repr of its
    # str().
    @pytest.mark.parametrize("build, shown", [
        (lambda: preset_scenario("wecc"), "'wecc'"),
        (lambda: parse_scenario('{"preset": "wecc"}'), "'wecc'"),
        (lambda: scenario_from_dict({"preset": ["x"]}), '"[\'x\']"'),
    ], ids=["preset_scenario", "parse_scenario", "non_string"])
    def test_unknown_preset_rejected(self, build, shown):
        message = f"unknown preset {shown}; valid presets: ei80, ercot80"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            build()

    def test_readme_preset_table_matches(self):
        text = (Path(__file__).resolve().parent.parent
                / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` +\|([^\n]*)\|$", text, re.M)
        assert [name for name, _ in rows] == ["ei80", "ercot80"]
        for name, cells in rows:
            s = preset_scenario(name)
            values = [float(cell) for cell in cells.split("|")]
            assert values == [s.system.h_sys, s.system.d_load,
                              s.contingency.dp, s.system.pv.headroom], name

    def test_readme_defaults_match(self):
        # Each `name=value` of README's defaults paragraph, under its
        # section's label, is that field's dataclass default, and every
        # field with a default appears once.
        text = " ".join((Path(__file__).resolve().parent.parent
                         / "README.md").read_text().split())
        listed = text.split("Defaults when keys are omitted: ")[1]
        sections = {"system": SystemParams, "governor": GovernorFleet,
                    "plant": PVPlantConfig, "controller": ControllerSpec,
                    "droop": DroopConfig, "inertia": InertiaConfig,
                    "contingency": Contingency, "sim": SimConfig}
        stated = [(sections[part.split()[0]], name, value)
                  for part in listed.split(". ")[0].split("; ")
                  for name, value in re.findall(r"`(\w+)=([^`]*)`", part)]
        defaults = {(cls, f.name): f.default for cls in sections.values()
                    for f in dataclasses.fields(cls)
                    if f.default is not dataclasses.MISSING
                    and not dataclasses.is_dataclass(f.default)}
        keys = [(cls, name) for cls, name, _ in stated]
        assert len(keys) == len(set(keys)) and set(keys) == set(defaults)
        for cls, name, value in stated:
            default = defaults[cls, name]
            assert (float(value) == default if type(default) is float
                    else value == str(default).lower()), (cls, name)
