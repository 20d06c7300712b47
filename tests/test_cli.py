import json
import math
import subprocess
import sys

import pytest

from funclass.cli import run

SIN_TO = repr(2 * math.pi)


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSources:
    def test_expr_requires_range(self, capsys):
        code, _, err = invoke(capsys, ["check-order", "--expr", "x", "--n", "1"])
        assert code == 2
        assert "--to" in err

    def test_csv_source(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,0\n0.25,0.0625\n0.5,0.25\n0.75,0.5625\n1,1\n")
        code, out, _ = invoke(capsys, ["check-order", "--csv", str(path), "--n", "2"])
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_bad_csv_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,0\n1,1\n2.5,4\n")
        code, _, err = invoke(capsys, ["check-order", "--csv", str(path), "--n", "1"])
        assert code == 2
        assert "line 3" in err

    def test_missing_csv_exits_2(self, capsys, tmp_path):
        code, _, _ = invoke(
            capsys, ["check-order", "--csv", str(tmp_path / "none.csv"), "--n", "1"]
        )
        assert code == 2

    def test_both_sources_rejected(self, capsys):
        code, _, _ = invoke(
            capsys,
            ["check-order", "--expr", "x", "--csv", "f.csv", "--n", "1"],
        )
        assert code == 2

    def test_negative_value_error_prints_a_plain_float(self, capsys):
        argv = ["ratio", "--expr", "x^2.5+sin(9*x)", "--from", "0", "--to", "1",
                "--samples", "300", "--n", "1"]
        code, _, err = invoke(capsys, argv)
        assert code == 2
        assert "got -0.006849730259458947 at index 106" in err

    def test_unknown_command_exits_2(self, capsys):
        assert invoke(capsys, ["frobnicate"])[0] == 2


class TestToleranceConfig:
    def test_env_override(self, capsys, monkeypatch):
        # a loose absolute tolerance accepts the order-1 violations of x^2
        monkeypatch.setenv("FUNCLASS_TOL_ABS", "10")
        argv = ["check-order", "--expr", "x^2", "--from", "0", "--to", "1",
                "--samples", "5", "--n", "1"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FUNCLASS_TOL_ABS", "10")
        argv = ["check-order", "--expr", "x^2", "--from", "0", "--to", "1",
                "--samples", "5", "--n", "1", "--tol-abs", "1e-9"]
        code, out, _ = invoke(capsys, argv)
        assert code == 1

    def test_bad_tolerance_exits_2(self, capsys):
        argv = ["check-order", "--expr", "x^2", "--from", "0", "--to", "1",
                "--samples", "5", "--n", "1", "--tol-rel", "2"]
        assert invoke(capsys, argv)[0] == 2


class TestPlotCsv:
    def test_envelope_columns(self, capsys, tmp_path):
        out_csv = tmp_path / "plot.csv"
        argv = ["envelope", "--expr", "x + 0.3*sin(2*pi*x)", "--from", "0",
                "--to", "3", "--samples", "61", "--d", "1",
                "--plot-csv", str(out_csv)]
        code, _, _ = invoke(capsys, argv)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x,f,f_lower,f_upper,f_hat"
        assert len(lines) == 62

    def test_minorant_columns(self, capsys, tmp_path):
        out_csv = tmp_path / "plot.csv"
        argv = ["minorant", "--expr", "x^2", "--from", "0", "--to", "1",
                "--samples", "5", "--plot-csv", str(out_csv)]
        invoke(capsys, argv)
        assert out_csv.read_text().splitlines()[0] == "x,f,sigma,residual"

    def test_star_centers_flag_column(self, capsys, tmp_path):
        out_csv = tmp_path / "plot.csv"
        argv = ["star-centers", "--expr", "x^2", "--from", "-1", "--to", "1",
                "--samples", "9", "--plot-csv", str(out_csv)]
        invoke(capsys, argv)
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x,f,center"
        assert all(line.endswith(",1.0") for line in lines[1:])


class TestReportShapes:
    def test_min_order_reports_three(self, capsys):
        argv = ["min-order", "--expr", "x^2.5", "--from", "0", "--to", "1",
                "--samples", "65", "--n-max", "8"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        assert json.loads(out)["minimal_order"] == 3

    def test_check_order_witness(self, capsys):
        argv = ["check-order", "--expr", "x^2", "--from", "0", "--to", "1",
                "--samples", "5", "--n", "1"]
        code, out, _ = invoke(capsys, argv)
        assert code == 1
        report = json.loads(out)
        assert {"i": 2, "j": 2, "lhs": 1.0, "rhs": 0.5, "slack": 0.5} in report["violations"]

    def test_minorant_report(self, capsys):
        argv = ["minorant", "--expr", "x^2", "--from", "0", "--to", "1", "--samples", "5"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["defect"] == 0.75
        assert report["sigma_subadditive"] is True
        assert report["sigma"] == [0.0, 0.0625, 0.125, 0.1875, 0.25]

    def test_heights_report(self, capsys):
        argv = ["heights", "--expr", "0.3*sin(2*pi*x)", "--from", "0", "--to", "3",
                "--samples", "61", "--d", "1"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        heights = json.loads(out)["heights"]
        assert heights["global_d"] == pytest.approx(0.6, abs=1e-15)
        assert heights["global"] == pytest.approx(0.6, abs=1e-15)

    def test_decompose_report(self, capsys):
        argv = ["decompose", "--expr", "x + 0.3*sin(2*pi*x)", "--from", "0",
                "--to", "3", "--samples", "61", "--d", "1"]
        code, out, _ = invoke(capsys, argv)
        assert code == 0
        dec = json.loads(out)["decomposition"]
        assert dec["l"] == pytest.approx(1.0, abs=1e-12)
        assert dec["h_periodicity_error"] <= 1e-9

    def test_star_region_witness_present_on_failure(self, capsys):
        argv = ["star-region", "--expr", "sin(x)", "--from", "0", "--to", SIN_TO,
                "--samples", "33", "--kind", "epi", "--p", "16"]
        code, out, _ = invoke(capsys, argv)
        assert code == 1
        check = json.loads(out)["region_checks"][0]
        assert check["ok"] is False
        assert check["witness"] is not None

    def test_power_fit_failure_exit(self, capsys):
        argv = ["power-fit", "--expr", "x^2 + x", "--from", "0", "--to", "3",
                "--samples", "4", "--n", "2"]
        code, out, _ = invoke(capsys, argv)
        assert code == 1
        assert json.loads(out)["max_residual"] >= 1.999


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "funclass", "min-order", "--expr", "x^2.5",
             "--from", "0", "--to", "1", "--samples", "65", "--n-max", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["minimal_order"] == 3
