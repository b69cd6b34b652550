import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from gridfreq.cli import build_parser, main
from gridfreq.compliance import ComplianceThresholds
from gridfreq.csvio import METRICS_HEADER, TRACE_HEADER


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def fast_args():
    """Keep CLI runs short: 20 s horizon is enough for every metric."""
    return ["--set", "sim.t_end=20.0"]


class TestSimulate:
    def test_happy_path(self, tmp_path, fast_args, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli("simulate", "--preset", "ei80", "--controller",
                       "droop", "--out", str(out), *fast_args)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 2002  # header + 20 s at 0.01 s samples
        metrics = tmp_path / "trace.metrics.csv"
        assert metrics.exists()
        assert metrics.read_text().splitlines()[0] == METRICS_HEADER

    def test_unknown_preset_exits_1(self, tmp_path, capsys):
        code = run_cli("simulate", "--preset", "wecc", "--out",
                       str(tmp_path / "t.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert "ei80" in err and "ercot80" in err

    def test_config_file(self, tmp_path, fast_args):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"preset": "ercot80",'
                       ' "controller": {"kind": "combined"}}')
        out = tmp_path / "trace.csv"
        code = run_cli("simulate", "--config", str(cfg), "--out", str(out),
                       *fast_args)
        assert code == 0
        assert out.exists()

    def test_event_after_last_step_exits_1(self, tmp_path, capsys):
        code = run_cli("simulate", "--preset", "ei80", "--controller",
                       "droop", "--set", "contingency.t_event=9.998",
                       "--set", "sim.t_end=10.0", "--out",
                       str(tmp_path / "t.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert "contingency.t_event" in err and "sim.t_end" in err
        assert not (tmp_path / "t.csv").exists()

    def test_trace_shorter_than_settling_window_writes_nothing(
            self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli("simulate", "--preset", "ei80", "--set",
                       "sim.t_end=3", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: trace spans 3.000 s, shorter than the settling window "
            "(5.0 s)\n")
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_across_runs(self, tmp_path, fast_args):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("simulate", "--preset", "ercot80",
                           "--controller", "combined", "--out", str(path),
                           *fast_args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_set_value_exits_1(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run_cli("simulate", "--preset", "ei80", "--out", str(out),
                       "--set", "system.h_sys=abc")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: system.h_sys must be a number, got 'abc'\n")
        assert not out.exists()

    def test_set_without_value_exits_1(self, tmp_path, capsys):
        code = run_cli("simulate", "--preset", "ei80", "--out",
                       str(tmp_path / "t.csv"), "--set", "system.h_sys")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --set expects PATH=VALUE, got 'system.h_sys'\n")

    def test_unknown_controller_names_the_field(self, tmp_path, capsys):
        code = run_cli("simulate", "--preset", "ei80", "--out",
                       str(tmp_path / "t.csv"), "--controller", "sync")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: controller.kind must be one of none, droop, inertia, "
            "combined, got 'sync'\n")

    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        code = run_cli("simulate", "--preset", "ei80", "--out", str(out),
                       "--set", "sim.t_end=5")
        assert code == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_non_finite_set_value_exits_1(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run_cli("simulate", "--preset", "ei80", "--out", str(out),
                       "--set", "system.h_sys=nan")
        assert code == 1
        assert "system.h_sys" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_set_path_exits_1(self, tmp_path, capsys):
        code = run_cli("simulate", "--preset", "ei80", "--out",
                       str(tmp_path / "t.csv"), "--set", "system.bogus=1")
        assert code == 1
        assert "valid paths" in capsys.readouterr().err

    @pytest.mark.parametrize("sets", [
        ("sim.dt=0.003", "sim.sample_interval=0.009", "sim.t_end=9"),
        ("sim.sample_interval=0.009", "sim.t_end=9", "sim.dt=0.003"),
        ("sim.t_end=9", "sim.dt=0.003", "sim.sample_interval=0.009"),
        ("sim.dt=0.02", "sim.sample_interval=0.02"),
        ("preset=ercot80", "controller.kind=combined",
         "system.pv.headroom=0.08", "sim.t_end=20")])
    def test_set_overrides_are_checked_together(self, tmp_path, sets):
        # Each sim override alone breaks a sim rule against the other
        # fields' values, so the overrides are checked only once all are
        # applied. Given as --preset (ei80 by default), --controller and
        # --set flags, the settings run as the same document.
        doc, flags = {"preset": "ei80"}, []
        for item in sets:
            path, value = item.split("=")
            *sections, leaf = path.split(".")
            section = doc
            for name in sections:
                section = section.setdefault(name, {})
            if path == "controller.kind":
                flags += ["--controller", value]
            elif path != "preset":
                value = float(value)
                flags += ["--set", item]
            section[leaf] = value
        config = tmp_path / "doc.json"
        config.write_text(json.dumps(doc))
        assert run_cli("simulate", "--config", str(config), "--out",
                       str(tmp_path / "doc.csv")) == 0
        assert run_cli("simulate", "--preset", doc["preset"], *flags,
                       "--out", str(tmp_path / "flags.csv")) == 0
        for doc_file, flags_file in [("doc.csv", "flags.csv"),
                                     ("doc.metrics.csv",
                                      "flags.metrics.csv")]:
            assert ((tmp_path / doc_file).read_bytes()
                    == (tmp_path / flags_file).read_bytes())

    def test_step_budget_exits_1(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run_cli("simulate", "--preset", "ei80", "--set",
                       "sim.dt=1e-300", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: sim.t_end must be at most 10000000 steps of dt "
            "(1e-300), got 60.0\n")
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        assert run_cli("simulate", "--preset", "ei80", "--out",
                       str(tmp_path / "t.csv"), "--frobnicate") == 1

    def test_no_command_exits_1(self, capsys):
        assert run_cli() == 1

    def test_missing_scenario_source_exits_1(self, tmp_path, capsys):
        assert run_cli("simulate", "--out", str(tmp_path / "t.csv")) == 1


class TestCompare:
    def test_four_rows_fixed_order(self, tmp_path, fast_args, capsys):
        out = tmp_path / "metrics.csv"
        code = run_cli("compare", "--preset", "ei80", "--out", str(out),
                       *fast_args)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert [ln.split(",")[1] for ln in lines[1:]] == [
            "none", "droop", "inertia", "combined"]


class TestCompliance:
    def test_droop_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = run_cli("compliance", "--preset", "ei80", "--controller",
                       "droop", "--set", "controller.droop.deadband=0.0",
                       "--out", str(report))
        assert code == 0
        blob = json.loads(report.read_text())
        assert blob["passed"] is True
        assert blob["config"] == {
            "scenario": "ei80", "controller": "droop",
            "thresholds": dataclasses.asdict(ComplianceThresholds())}
        assert "PASS" in capsys.readouterr().out

    def test_pure_inertia_fails_with_exit_3(self, capsys):
        code = run_cli("compliance", "--preset", "ei80", "--controller",
                       "inertia")
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_none_controller_exits_1(self, capsys):
        assert run_cli("compliance", "--preset", "ei80") == 1

    def test_non_finite_threshold_exits_1(self, capsys):
        code = run_cli("compliance", "--preset", "ei80", "--controller",
                       "droop", "--max-rise", "nan")
        assert code == 1
        assert "max_rise must be finite" in capsys.readouterr().err

    def test_tight_threshold_fails(self, capsys):
        code = run_cli("compliance", "--preset", "ei80", "--controller",
                       "droop", "--set", "controller.droop.deadband=0.0",
                       "--max-rise", "0.01")
        assert code == 3


    @pytest.mark.parametrize("t_end", ["0.5", "1.0"])
    def test_horizon_before_step_exits_1(self, t_end, capsys):
        code = run_cli("compliance", "--preset", "ei80", "--controller",
                       "droop", "--set", f"sim.t_end={t_end}")
        assert code == 1
        err = capsys.readouterr().err
        assert "sim.t_end" in err and "step_time" in err

    def test_horizon_of_two_samples_exits_1(self, capsys):
        code = run_cli("compliance", "--preset", "ei80", "--controller",
                       "droop", "--set", "sim.sample_interval=1.5",
                       "--set", "sim.t_end=1.5")
        assert code == 1
        err = capsys.readouterr().err
        assert "sim.t_end" in err and "sim.sample_interval" in err

    def test_step_budget_exits_1(self, capsys):
        code = run_cli("compliance", "--preset", "ei80", "--controller",
                       "droop", "--set", "sim.t_end=1e12")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: sim.t_end must be at most 10000000 steps of dt "
            "(0.005), got 1000000000000.0\n")

    def test_threshold_defaults_are_the_dataclass_defaults(self):
        args = build_parser().parse_args(["compliance", "--preset", "ei80"])
        defaults = ComplianceThresholds()
        for f in dataclasses.fields(ComplianceThresholds):
            assert getattr(args, f.name) == getattr(defaults, f.name), \
                f.name


class TestHeadroom:
    def test_sizing_run(self, capsys):
        code = run_cli("headroom", "--preset", "ercot80", "--controller",
                       "combined", "--target", "59.5",
                       "--set", "sim.t_end=30.0")
        assert code == 0
        out = capsys.readouterr().out
        assert "minimum headroom" in out
        assert re.search(r"\((\d+) simulation runs, (\d+) headroom values\)",
                         out)
        # The volume bound from the h = 0 run sits on a line of its own.
        bound, margin = re.search(r"^volume bound (\S+) from the h = 0 "
                                  r"run; shape margin (\S+)$", out,
                                  re.M).groups()
        assert float(bound) == pytest.approx(0.0532, abs=1e-4)
        assert float(margin) >= -0.001

    def test_unattainable_exits_2(self, capsys):
        code = run_cli("headroom", "--preset", "ercot80", "--controller",
                       "combined", "--target", "59.95",
                       "--set", "sim.t_end=30.0")
        assert code == 2

    def test_non_finite_target_exits_1(self, capsys):
        code = run_cli("headroom", "--preset", "ei80", "--controller",
                       "droop", "--target", "nan")
        assert code == 1
        assert "target_nadir_hz must be finite" in capsys.readouterr().err

    def test_none_controller_exits_1(self, capsys):
        code = run_cli("headroom", "--preset", "ei80", "--controller",
                       "none", "--target", "59.5")
        assert code == 1
        assert ("controller must be one of droop, inertia, combined, "
                "got 'none'") in capsys.readouterr().err


class TestSweep:
    def test_sweep_rows(self, tmp_path, fast_args, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--preset", "ei80", "--controller", "none",
                       "--param", "system.h_sys", "--values", "2.0,3.0",
                       "--out", str(out), *fast_args)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert "system.h_sys=2" in lines[1]

    def test_boolean_sweep(self, tmp_path, fast_args, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--preset", "ei80", "--controller",
                       "inertia", "--param",
                       "controller.inertia.recovery_clamp", "--values",
                       "true,false", "--out", str(out), *fast_args)
        assert code == 0
        rows = [line.split(",")[:2]
                for line in out.read_text().splitlines()[1:]]
        assert rows == [
            ["ei80[controller.inertia.recovery_clamp=true]", "inertia"],
            ["ei80[controller.inertia.recovery_clamp=false]", "inertia"]]

    def test_kind_sweep_names_each_row_kind(self, tmp_path, fast_args,
                                            capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--preset", "ercot80", "--param",
                       "controller.kind", "--values", "droop, combined",
                       "--out", str(out), *fast_args)
        assert code == 0
        rows = [line.split(",")[:2]
                for line in out.read_text().splitlines()[1:]]
        assert rows == [["ercot80[controller.kind=droop]", "droop"],
                        ["ercot80[controller.kind=combined]", "combined"]]
        # the same metrics as compare gives for those kinds
        table = tmp_path / "compare.csv"
        assert run_cli("compare", "--preset", "ercot80", "--out",
                       str(table), *fast_args) == 0
        compared = {line.split(",")[1]: line.split(",")[2:]
                    for line in table.read_text().splitlines()[1:]}
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert fields[2:] == compared[fields[1]]

    def test_bad_values_exit_1(self, tmp_path, capsys):
        assert run_cli("sweep", "--preset", "ei80", "--param",
                       "system.h_sys", "--values", "a,b", "--out",
                       str(tmp_path / "s.csv")) == 1

    @pytest.mark.parametrize("values", [",", "", " , "])
    def test_no_values_exit_1(self, tmp_path, capsys, values):
        # These used to exit 0 after writing a header-only table.
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--preset", "ei80", "--param",
                       "system.h_sys", "--values", values, "--out",
                       str(out)) == 1
        assert (f"--values expects comma-separated values, got "
                f"{values!r}") in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_param_exits_1(self, tmp_path, capsys):
        assert run_cli("sweep", "--preset", "ei80", "--param", "nope",
                       "--values", "1.0", "--out",
                       str(tmp_path / "s.csv")) == 1


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_commands():
    """The ``gridfreq`` lines of README's command-line block, with their
    backslash continuations joined."""
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", README,
                      re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("gridfreq ")]


class TestReadmeCommands:
    def test_every_command_runs_as_written(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.chdir(tmp_path)
        quoted = re.search(r"example above\s+prints `(minimum headroom "
                           r"[^`]*)`", README).group(1)
        printed = {}
        for argv in _readme_commands():
            assert run_cli(*argv) == 0, argv
            printed[argv[0]] = capsys.readouterr().out
        assert sorted(printed) == ["compare", "compliance", "headroom",
                                   "simulate", "sweep"]
        assert quoted in printed["headroom"]
