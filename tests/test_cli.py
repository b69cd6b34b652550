import dataclasses
import json
import re

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

    def test_byte_identical_across_runs(self, tmp_path, fast_args):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("simulate", "--preset", "ercot80",
                           "--controller", "combined", "--out", str(path),
                           *fast_args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_set_value_exits_1(self, tmp_path, capsys):
        code = run_cli("simulate", "--preset", "ei80", "--out",
                       str(tmp_path / "t.csv"), "--set", "system.h_sys=fast")
        assert code == 1

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
        assert "PASS" in capsys.readouterr().out

    def test_pure_inertia_fails_with_exit_3(self, capsys):
        code = run_cli("compliance", "--preset", "ei80", "--controller",
                       "inertia")
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_none_controller_exits_1(self, capsys):
        assert run_cli("compliance", "--preset", "ei80") == 1

    def test_tight_threshold_fails(self, capsys):
        code = run_cli("compliance", "--preset", "ei80", "--controller",
                       "droop", "--set", "controller.droop.deadband=0.0",
                       "--max-rise", "0.01")
        assert code == 3


    @pytest.mark.parametrize("t_end", ["0.5", "1.0"])
    def test_horizon_before_step_exits_1(self, t_end, capsys):
        code = run_cli("compliance", "--preset", "ei80", "--controller",
                       "droop", "--t-end", t_end)
        assert code == 1
        err = capsys.readouterr().err
        assert "sim.t_end" in err and "step_time" in err

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

    def test_unattainable_exits_2(self, capsys):
        code = run_cli("headroom", "--preset", "ercot80", "--controller",
                       "combined", "--target", "59.95",
                       "--set", "sim.t_end=30.0")
        assert code == 2


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

    def test_bad_values_exit_1(self, tmp_path, capsys):
        assert run_cli("sweep", "--preset", "ei80", "--param",
                       "system.h_sys", "--values", "a,b", "--out",
                       str(tmp_path / "s.csv")) == 1

    def test_unknown_param_exits_1(self, tmp_path, capsys):
        assert run_cli("sweep", "--preset", "ei80", "--param", "nope",
                       "--values", "1.0", "--out",
                       str(tmp_path / "s.csv")) == 1
