import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funclass import cli, grid, oracle, periodic, subadd
from funclass.cli import COMMANDS, run
from funclass.grid import GridError, Witnesses, read_csv, sample

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

    def test_non_utf8_csv_exits_2_without_traceback(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"0,0\n1,\xff\n2,4\n")
        code, out, err = invoke(capsys, ["heights", "--csv", str(path), "--d", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("funclass: error: ") and "not UTF-8" in err
        assert "Traceback" not in err

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
        assert "got -0.002451241263418419 at index 107" in err

    def test_non_ascii_expression_exits_2_without_traceback(self, capsys):
        argv = ["check-order", "--expr", "x*\u00b2", "--to", "1", "--samples", "5", "--n", "1"]
        code, out, err = invoke(capsys, argv)
        assert code == 2
        assert out == ""
        assert "unexpected character" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        ["(" * 600 + "x" + ")" * 600, "-" * 1200 + "x", "^".join(["x"] * 1200),
         "+".join(["x"] * 3000)],
        ids=["parentheses", "leading-minus", "power-tower", "long-sum"],
    )
    def test_deeply_nested_expression_exits_2_without_traceback(self, capsys, text):
        # "--expr=" keeps argparse from reading a leading "-" as an option
        argv = ["check-order", f"--expr={text}", "--to", "1", "--samples", "5", "--n", "1"]
        code, out, err = invoke(capsys, argv)
        assert code == 2
        assert out == ""
        assert "nests deeper than 200 levels (at position" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "d, message",
        [("inf", "must be finite and positive, got inf"),
         ("1e308", "spans inf steps"),
         ("1e300", "spans 2e+300 steps but the grid has only 2 intervals")],
    )
    def test_period_past_the_grid_exits_2(self, capsys, d, message):
        argv = ["heights", "--expr", "x", "--to", "1", "--samples", "3", "--d", d]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert message in err and len(err) < 120

    def test_period_on_a_subnormal_step_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,0\n5e-324,1\n1e-323,2\n")
        code, out, err = invoke(capsys, ["heights", "--csv", str(path), "--d", "1"])
        assert (code, out) == (2, "")
        assert "period 1.0 spans inf steps" in err

    def test_overflowing_csv_step_exits_2_naming_line_2(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("-1.7e308,1\n1.7e308,2\n")
        code, out, err = invoke(capsys, ["heights", "--csv", str(path), "--d", "1"])
        assert (code, out) == (2, "")
        assert "line 2: x step" in err

    def test_csv_with_a_byte_order_mark_starts_at_its_first_row(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"\xef\xbb\xbf0,1\n1,2\n2,5\n")
        code, out, err = invoke(capsys, ["minorant", "--csv", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out)["sigma"] == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize("text", [
        "\ufeffx,y\r\n0,1\r\n1,3\r\n\r\n2,2\r\n3,5\r\n",  # read by np.loadtxt
        "0,1\n1,3\n\n2.5,2\n",  # np.loadtxt's rows fail, so the loop names line 4
        "0,1\n1\x1c,2\n2,3\n",  # read by the loop alone
    ])
    def test_csv_read_from_a_pipe_as_from_a_file(self, capsys, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        want = invoke(capsys, ["heights", "--csv", str(path), "--d", "1"])
        r, w = os.pipe()
        try:  # the pipe can be read only once
            os.write(w, text.encode())
            os.close(w)
            got = invoke(capsys, ["heights", "--csv", f"/dev/fd/{r}", "--d", "1"])
        finally:
            os.close(r)
        assert got == want

    @pytest.mark.parametrize("tol", [
        [],
        pytest.param(["--tol-abs", "0", "--tol-rel", "0"], marks=pytest.mark.xfail(
            strict=True, reason="sigma is subadditive only within an ulp: see "
            "test_subadd.py::TestSubadditiveMinorant::test_sigma_is_subadditive_at_zero_tolerance")),
    ])
    def test_minorant_of_a_csv_grid_reports_sigma_subadditive(self, capsys, tmp_path, tol):
        rng = np.random.default_rng(1)
        n = int(rng.integers(2, 40))
        path = tmp_path / "f.csv"
        grid.write_csv(grid.GridFunction(0.0, 1.0, rng.uniform(0.5, 1.5, n) * np.arange(n)), path)
        code, out, err = invoke(capsys, ["minorant", "--csv", str(path), *tol])
        assert (code, err) == (0, "")
        assert json.loads(out)["sigma_subadditive"] is True

    def test_sample_count_past_the_address_space_exits_2(self, capsys):
        argv = ["periodic-check", "--expr", "x", "--to", "1", "--samples", str(2**50), "--d", "0.5"]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"funclass: error: cannot hold {2**50} samples: {2**53} bytes needed\n"

    def test_unknown_command_exits_2(self, capsys):
        assert invoke(capsys, ["frobnicate"])[0] == 2

    def test_one_sample_exits_2_before_the_step_divides_by_zero(self, capsys):
        argv = ["check-order", "--expr", "x", "--to", "1", "--samples", "1", "--n", "1"]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "funclass: error: --samples must be at least 2, got 1\n"

    def test_infinite_vertical_extent_exits_2(self, capsys):
        argv = ["star-region", "--expr", "x", "--to", "1", "--samples", "5", "--kind", "epi",
                "--p", "1", "--vertical-extent", "1e309"]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "funclass: error: vertical_extent must be finite, got inf\n"

    def test_vertical_samples_past_the_cap_exits_2(self, capsys):
        argv = ["star-region", "--expr", "x", "--to", "1", "--samples", "5", "--kind", "epi",
                "--p", "1", "--vertical-samples", "1000000000"]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "funclass: error: vertical_samples must be <= 4096, got 1000000000\n"


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

    @pytest.mark.parametrize("var", ["FUNCLASS_TOL_ABS", "FUNCLASS_TOL_REL"])
    def test_unparsable_variable_exits_2_naming_it(self, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "abc")
        argv = ["check-order", "--expr", "x", "--to", "1", "--samples", "5", "--n", "1"]
        code, out, err = invoke(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"funclass: error: {var} must be a number, got 'abc'\n"

    def test_flag_wins_over_an_unparsable_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("FUNCLASS_TOL_ABS", "abc")
        argv = ["check-order", "--expr", "x", "--to", "1", "--samples", "5", "--n", "1",
                "--tol-abs", "1e-9"]
        assert invoke(capsys, argv)[0] == 0

    def test_each_call_reads_the_environment_of_its_own(self, capsys, monkeypatch):
        # the parser is reused across calls, the tolerance variables are not
        argv = ["check-order", "--expr", "x^2", "--from", "0", "--to", "1",
                "--samples", "5", "--n", "1"]
        monkeypatch.setenv("FUNCLASS_TOL_ABS", "10")
        assert invoke(capsys, argv)[0] == 0
        monkeypatch.delenv("FUNCLASS_TOL_ABS")
        assert invoke(capsys, argv)[0] == 1
        monkeypatch.setenv("FUNCLASS_TOL_ABS", "10")
        assert invoke(capsys, argv)[0] == 0


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

    def test_long_plot_is_the_joined_rows(self, capsys, tmp_path):
        # 40001 rows take three writes of up to 16384 rows; the file must still be
        # the header and every row of reprs, joined by newlines
        out_csv = tmp_path / "plot.csv"
        expr = "x + 0.3*sin(2*pi*x)"
        argv = ["heights", "--expr", expr, "--from", "0", "--to", "50", "--samples", "40001",
                "--d", "1", "--plot-csv", str(out_csv)]
        assert invoke(capsys, argv)[0] == 0
        f = sample(expr, 0.0, 50.0 / 40000, 40001)
        heights = periodic.heights(f, periodic.PeriodSpec.for_grid(f, 1.0)).window_heights
        columns = (f.xs().tolist(), f.values.tolist(), heights.tolist())
        rows = (",".join(repr(v) for v in row) for row in zip(*columns))
        assert out_csv.read_bytes() == ("\n".join(["x,f,window_height", *rows]) + "\n").encode()


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


def _csv_text(values, step=0.25):
    return "".join(f"{k * step!r},{float(y)!r}\n" for k, y in enumerate(values))


# Fixture values are dyadic, so every sample, sum and plot column is exact and
# the pinned hashes do not depend on the platform's libm.
FIXTURES = {
    # x + a 1-periodic sawtooth: periodically increasing with constant shift 1
    "saw": [k / 4 + (0.0, 0.5, -0.25, 0.25)[k % 4] for k in range(13)],
    # the sawtooth with a dip at index 9, so f(x + 1) < f(x) at index 5
    "dip": [k / 4 + (0.0, 0.5, -0.25, 0.25)[k % 4] - (2.0 if k == 9 else 0.0)
            for k in range(13)],
    # x^2: increasing, but f(x + 1) - f(x) = 2x + 1 is not constant
    "square": [k * k / 16 for k in range(13)],
    # one sine-like period: concave then convex around index 8
    "sine": [0, 0.375, 0.6875, 0.875, 1, 0.875, 0.6875, 0.375, 0,
             -0.375, -0.6875, -0.875, -1, -0.875, -0.6875, -0.375, 0],
}

UNIT = ["--from", "0", "--to", "1", "--samples", "9"]

# (id, argv with {fixture} placeholders, exit code, sha256 of stdout,
#  sha256 of the --plot-csv file or None when it is not written)
GOLDEN = [
    ("check-order-pass", ["check-order", "--expr", "x^2", *UNIT, "--n", "2"], 0,
     "693489ba13c8aae6ac9d9e8c01ea5319810245e223756153dce0726464c00c3d",
     "c2f41541161f94aeb14d805eb79ce7c1bde060a3dc06871dad6d51f388012881"),
    ("check-order-fail", ["check-order", "--expr", "x^2", *UNIT, "--n", "1"], 1,
     "87c131258123c2b28fccdddf705160ce271509ac815e702c3b380db32e7b2b28",
     "c2f41541161f94aeb14d805eb79ce7c1bde060a3dc06871dad6d51f388012881"),
    ("min-order-pass", ["min-order", "--expr", "x^3", *UNIT, "--n-max", "4"], 0,
     "ddbedcc185a36ef60dba2819a77588de5ddf54258e3499e17912318f50592e4d",
     "b4a1b5b4a3452ceb4e319157540c48909c07da853caf3e22892a02f3b3d02b4a"),
    ("min-order-fail", ["min-order", "--expr", "x^3", *UNIT, "--n-max", "2"], 1,
     "a6acf743c671e119a9d4cdfdf2e9da2e20302dd8990312bb617a39f42cc8468d",
     "b4a1b5b4a3452ceb4e319157540c48909c07da853caf3e22892a02f3b3d02b4a"),
    ("root", ["root", "--expr", "x^2", *UNIT, "--n", "2"], 0,
     "4655865dbad969b4f9fa63bdc25ed1153417bb61a11e0f1d273d58dca80388b2",
     "e264985153c8e066688adfbcbbde9905ba18e66c81a04a35199722088c417ff4"),
    ("ratio", ["ratio", "--expr", "x^3", *UNIT, "--n", "2"], 0,
     "6648341ec940b74ec1234f93d13554f5dbe7edf61cae7aa61c8ba8193de5810f",
     "b36b2f16368ec3ec220f1594957dc338c7a1e8b08efceadd6e0b1260807ba9df"),
    ("ratio-negative-value", ["ratio", "--expr", "x - 0.5", *UNIT, "--n", "1"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     None),
    ("weak-bound-pass", ["weak-bound", "--expr", "x^3", *UNIT, "--n", "3"], 0,
     "fe87876c1d58e264b0a910a319e94c147cf528a801bb5a4c34210133ada9f6f2",
     "b4a1b5b4a3452ceb4e319157540c48909c07da853caf3e22892a02f3b3d02b4a"),
    ("weak-bound-fail", ["weak-bound", "--expr", "x^3", *UNIT, "--n", "2"], 1,
     "f69c7951a3290d3967e33bf1ffd6f1222b909f99a5d74c0eadcf8a5e3f6125db",
     "b4a1b5b4a3452ceb4e319157540c48909c07da853caf3e22892a02f3b3d02b4a"),
    ("power-fit-pass", ["power-fit", "--expr", "x^2", "--from", "0", "--to", "3",
                        "--samples", "4", "--n", "2"], 0,
     "b3bdd35075120f0bf06b38bc1eb9d71c62513375f0e70097fe887e18ce7fdb20",
     "fa5d25147ce2536434b493a508c3b71b3b5b05c2e6f41be2c994c393f1084dcb"),
    ("power-fit-fail", ["power-fit", "--expr", "x^2 + x", "--from", "0", "--to", "3",
                        "--samples", "4", "--n", "2"], 1,
     "134a6edae5b9b81d7569e6d36c8cff2038c18cd9a5cc143571a74b23ec76cea8",
     "01b2c304cf84ff3d1c256b315922b65f531af25621b1e34ad5c9d9554787e775"),
    ("minorant", ["minorant", "--expr", "x^2", *UNIT], 0,
     "5e478a9512abfcfac4673205f0247b5cfa5f7c896324c8a9176721253d87529b",
     "01dc4a745719f14035d1ad27ee1971aa4d044e592b7a2af5783340ebed26ec9a"),
    ("periodic-check-pass", ["periodic-check", "--csv", "{saw}", "--d", "1"], 0,
     "94c78d70f314b1314f376435aafd1abb736c49a293505ba5cd7aa400f8b0db9e",
     "674959dabfeb63e73532e928644f70ba4d7b72aa38cbd529aca5196883a9f918"),
    ("periodic-check-fail", ["periodic-check", "--csv", "{dip}", "--d", "1"], 1,
     "f076f8c45dc3882af46daf304c0884570b79dc142940a3565a8f5cb44e283e0a",
     "01b7b18acfe3ffbec468093591a489ef3ff2ac608b80878ada5826db87874c07"),
    ("periodic-check-bad-period", ["periodic-check", "--csv", "{saw}", "--d", "0.3"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     None),
    ("heights", ["heights", "--csv", "{saw}", "--d", "1"], 0,
     "6e6207bfd7c1530ed5e485db3391da56c87833fecc093e85dc25df2687edb9ce",
     "1eeb6a6e181fb6865c4951fdfb421e18035a32442eab0e9a1edea061490f8d10"),
    ("periodic-minorant", ["periodic-minorant", "--csv", "{dip}", "--d", "1"], 0,
     "eb2ae03b0dcc10ab2ef57767005af6d8f08290cf409ae90d0234046099696e8b",
     "c3766fdf0ec7415db72a4d5e3c606a84575d9fda58e4dbab270775821b8aaa1d"),
    ("envelope", ["envelope", "--csv", "{saw}", "--d", "1"], 0,
     "661f1276339153d60090c6e25600cec709101d96604b6dc77c32af7a56a4e17d",
     "56776d4a040938b6568a9a7f6fca828a6eb87781ff1829f191d479ca3155d610"),
    ("decompose", ["decompose", "--csv", "{saw}", "--d", "1"], 0,
     "db3ee7d481589e2ad8e6e2e0f6bef23c501854c09add0e7c581f233cc6022572",
     "c359306ef9206ac62aec9a48598d89b3fa56668a131ecc4db0375a3550238c1c"),
    ("decompose-non-constant-shift", ["decompose", "--csv", "{square}", "--d", "1"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     None),
    ("star-centers", ["star-centers", "--csv", "{sine}"], 0,
     "b86eee838f4dade4fbf12fa99ed76ffda1cd1878d16e852baa9b7c447422e784",
     "e83308721e5d013e84e7c7a770923ae6215ba730c8104e406641f87dbc36d9cc"),
    ("star-classify-pass", ["star-classify", "--csv", "{sine}", "--p", "8"], 0,
     "59898c2c2ae3f1260043f6498618f20d4cb57ee600866b3ccb6592fbc8f2d706",
     "383be660c906a55e73a58445ab3e4470205678cfce560c6cbd2daf3d28a842ba"),
    ("star-classify-mixed", ["star-classify", "--csv", "{sine}", "--p", "3"], 1,
     "74a859c39b94110dadbc7c833b899fb03118c78b9bf2a6d936949a1618a58529",
     "383be660c906a55e73a58445ab3e4470205678cfce560c6cbd2daf3d28a842ba"),
    ("star-region-pass", ["star-region", "--csv", "{sine}", "--kind", "split-hypo-epi",
                          "--p", "8"], 0,
     "2359aa0e7fd59d2422acc60d701990e75cb8530b3a6f502f6662c03c67a8043d",
     "383be660c906a55e73a58445ab3e4470205678cfce560c6cbd2daf3d28a842ba"),
    ("star-region-fail", ["star-region", "--csv", "{sine}", "--kind", "epi", "--p", "8",
                          "--vertical-extent", "0.5", "--vertical-samples", "9"], 1,
     "367a8c7ac93f1330e3f35ae1d977646017e0c1ca4cc449cb4b0ff36e997442ab",
     "383be660c906a55e73a58445ab3e4470205678cfce560c6cbd2daf3d28a842ba"),
]


def _check_golden(capsys, tmp_path, argv, code, stdout_sha, plot_sha, with_plot=True):
    paths = {}
    for name, values in FIXTURES.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(_csv_text(values))
    plot = tmp_path / "plot.csv"
    plot.unlink(missing_ok=True)
    argv = [arg.format(**paths) for arg in argv]
    got, out, _ = invoke(capsys, argv + ["--plot-csv", str(plot)] if with_plot else argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    got_plot = hashlib.sha256(plot.read_bytes()).hexdigest() if plot.exists() else None
    assert got_plot == (plot_sha if with_plot else None)


class TestGoldenOutput:
    """Every command's stdout, exit code and plot CSV, pinned byte for byte."""

    @pytest.fixture(autouse=True)
    def _default_tolerance(self, monkeypatch):
        monkeypatch.delenv("FUNCLASS_TOL_ABS", raising=False)
        monkeypatch.delenv("FUNCLASS_TOL_REL", raising=False)

    @pytest.mark.parametrize("argv, code, stdout_sha, plot_sha",
                             [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN])
    def test_output_is_pinned(self, capsys, tmp_path, argv, code, stdout_sha, plot_sha):
        _check_golden(capsys, tmp_path, argv, code, stdout_sha, plot_sha)

    def test_pins_hold_after_rejected_calls(self, capsys, tmp_path):
        # run() reuses one parser: calls that argparse rejects leave no trace in it,
        # and a report without --plot-csv is the same as with it
        rejected = [
            ["check-order", "--expr", "x", "--csv", "f.csv", "--n", "1"],
            ["heights", "--expr", "x", "--to", "1", "--samples", "5"],
            ["star-region", "--expr", "x", "--kind", "cone", "--p", "1"],
            ["min-order", "--expr", "x", "--n-max", "two"],
            ["no-such-command"],
        ]
        for k, (_, argv, code, stdout_sha, plot_sha) in enumerate(GOLDEN):
            assert invoke(capsys, rejected[k % len(rejected)])[0] == 2
            for with_plot in (False, True):
                _check_golden(capsys, tmp_path, argv, code, stdout_sha, plot_sha, with_plot)


class TestCommandTable:
    def test_readme_lists_every_command_with_its_help(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([a-z-]+)` \|.*\| (.+) \|$", readme, re.MULTILINE)
        assert dict(rows) == {name: command.help for name, command in COMMANDS.items()}


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

    # A subprocess, so that -W error::RuntimeWarning shows that no overflow warning
    # comes on the way to the error.
    @pytest.mark.parametrize("command, rows, message", [
        (["heights", "--d", "1"], "0,-1e308\n1,1e308\n2,1e308\n3,1.5e308\n",
         "window heights overflow on this grid"),
        (["power-fit", "--n", "2"], "0,0\n1,1.7e308\n2,0\n3,1e308\n",
         "symmetry residual overflows on this grid"),
        (["power-fit", "--n", "2"], "0,1e308\n1,1.5e308\n2,1.6e308\n3,1.7e308\n",
         "power fit coefficient overflows on this grid"),
        (["decompose", "--d", "1"], "0,-1e308\n1,1e308\n2,1e308\n3,1.5e308\n",
         "shift differences overflow on this grid"),
    ], ids=["heights", "power-fit", "power-fit-coefficient", "decompose"])
    def test_overflowing_report_exits_2_before_any_output(self, tmp_path, command, rows, message):
        data, plot = tmp_path / "f.csv", tmp_path / "plot.csv"
        data.write_text(rows)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "funclass", *command,
             "--csv", str(data), "--plot-csv", str(plot)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"funclass: error: {message}\n"
        assert not plot.exists()

    def test_abscissa_past_the_float_range(self, tmp_path):
        # 3 * step rounds past the largest double: the plot writes that x as inf,
        # and without --plot-csv no abscissa is computed at all
        plot = tmp_path / "plot.csv"
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "funclass", "heights",
                "--expr", "1", "--from", "0", "--to", "1.7976931348623157e308",
                "--samples", "4", "--d", "5.992310449541053e307"]
        for extra in ([], ["--plot-csv", str(plot)]):
            proc = subprocess.run(argv + extra, capture_output=True, text=True)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert json.loads(proc.stdout)["window_heights"] == [0.0] * 4
        lines = plot.read_text().splitlines()
        assert lines[0] == "x,f,window_height"
        assert lines[-1] == "inf,1.0,0.0"


# Report-shaped objects for the JSON writer: keys with non-ASCII, quote and "%"
# characters (and the int, float, bool and None keys json converts), float lists
# with signed zeros, subnormals and values near the float range, and lists of
# flat dicts whose columns hold one type or mixed types.
TEXT = st.text(alphabet='ab%s"\\\n\u00e9\u2028\U0001f600 ', max_size=4)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]),
)
INTS = st.integers(-(2**100), 2**100)
KEYS = st.one_of(TEXT, TEXT, st.integers(-3, 3), FLOATS, st.booleans(), st.none())
SCALARS = st.one_of(FLOATS, INTS, st.booleans(), st.none(), TEXT, FLOATS.map(np.float64))
HOSTILE = st.sampled_from([math.inf, -math.inf, math.nan, np.int64(3), np.float64(math.nan)])
COLUMNS = [FLOATS, INTS, st.booleans(), st.none(), TEXT, st.one_of(INTS, st.none()),
           st.one_of(FLOATS, st.booleans()), SCALARS]


@st.composite
def flat_dicts(draw, keys, scalars):
    keys = draw(st.lists(keys, max_size=5, unique=True))
    columns = {key: draw(st.sampled_from(COLUMNS + [scalars])) for key in keys}
    rows = [{key: draw(columns[key]) for key in keys} for _ in range(draw(st.integers(0, 6)))]
    if len(rows) > 1 and draw(st.booleans()):  # one row with its keys in another order
        rows[-1] = dict(reversed(rows[-1].items()))
    return rows


def reports(scalars):
    leaves = st.one_of(scalars, st.lists(FLOATS, max_size=6), st.lists(scalars, max_size=6),
                       flat_dicts(TEXT, scalars), flat_dicts(KEYS, scalars))
    return st.dictionaries(KEYS, st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ), max_leaves=12), max_size=5)


# Witness columns with repeated bit patterns, signed zeros, subnormals, values
# near the float range and, for the sides, inf and NaN.
WITNESS_INDICES = st.one_of(st.integers(0, 3), st.integers(-(2**63), 2**63 - 1))
WITNESS_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5, 1e308, 1.7976931348623157e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def witness_columns(draw):
    size = draw(st.integers(0, 16))
    pool = draw(st.lists(WITNESS_VALUES, min_size=1, max_size=4))
    sides = st.one_of(st.sampled_from(pool), st.sampled_from(pool), WITNESS_VALUES, NON_FINITE)
    lhs, rhs = (draw(st.lists(sides, min_size=size, max_size=size)) for _ in range(2))
    i, j = (draw(st.lists(WITNESS_INDICES, min_size=size, max_size=size)) for _ in range(2))
    return Witnesses(i, j, lhs, rhs)


# Value arrays of 0 to 600 entries: from a small pool of bit patterns (repeats),
# arbitrary floats (mostly distinct) or both, sometimes with one inf or NaN.
@st.composite
def value_arrays(draw):
    size = draw(st.integers(0, 600))
    pool = st.sampled_from(draw(st.lists(WITNESS_VALUES, min_size=1, max_size=6)))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    entries = draw(st.sampled_from([pool, floats, st.one_of(pool, WITNESS_VALUES)]))
    values = draw(st.lists(entries, min_size=size, max_size=size))
    if values and draw(st.booleans()):
        values[draw(st.integers(0, size - 1))] = draw(NON_FINITE)
    return np.array(values, dtype=np.float64)


def _expanded(report):
    """``report`` with each ``Witnesses`` expanded to the list of its witnesses' dicts."""
    return {key: [w.to_dict() for w in value] if isinstance(value, Witnesses) else value
            for key, value in report.items()}


def _first_difference(got, want):
    """None when the texts are equal, else the offset of the first difference.

    Cheaper than pytest's diff of two texts of many megabytes."""
    return None if got == want else len(os.path.commonprefix([got, want]))


def _encoded(encode, obj):
    """The text, or the class of error ``cli._to_json`` gives for what ``encode`` raised."""
    try:
        return encode(obj)
    except (ValueError, GridError):
        return GridError
    except TypeError:
        return TypeError


def _reprs(column):
    """The writer's texts of a column's entries, its blocks flattened."""
    return list(itertools.chain.from_iterable(cli._repr_blocks(column)))


def _dumps(obj):
    return json.dumps(obj, indent=2, allow_nan=False)


class TestJsonWriter:
    """``cli._to_json`` writes what ``json.dumps(indent=2, allow_nan=False)`` writes."""

    @given(reports(SCALARS))
    @example({"w": [{"i": 1, "a%s": 0.5}, {"i": 2, "a%s": -0.0}]})
    @example({"w": [{"i": 1, "j": 2}, {"j": 2, "i": 1}]})
    @example({"w": [{1: 0.5, None: "a"}, {1: 1.5, None: "b"}]})
    @example({"w": [{"i": 1, "j": None}, {"i": 2, "j": 3}]})
    @example({"w": [{"x": 1.0, "b": True}, {"x": 2.0, "b": 1.5}], "e": [{}, {}]})
    @settings(max_examples=400, deadline=None)
    def test_same_bytes_as_json_dumps(self, report):
        assert cli._to_json(report) == _dumps(report)

    @given(reports(st.one_of(SCALARS, HOSTILE)))
    @settings(max_examples=400, deadline=None)
    def test_same_bytes_or_same_error(self, report):
        assert _encoded(cli._to_json, report) == _encoded(_dumps, report)

    @pytest.mark.parametrize("obj", [
        {"n": np.int64(3)},
        {"values": [np.int64(1), np.int64(2)]},
        {"violations": [{"i": np.int64(1), "lhs": 0.5}, {"i": np.int64(2), "lhs": 0.25}]},
        {"k": {(1, 2): 0.5}},
        {"values": np.zeros((2, 2))},
        {"values": np.array(0.5)},
        {"values": np.arange(3)},
        {"values": np.zeros(3, np.float32)},
        {"values": np.zeros(0, np.int64)},
    ], ids=["scalar", "list", "column", "key", "2-d-array", "0-d-array", "int-array",
            "float32-array", "empty-int-array"])
    def test_unsupported_types_raise_type_error(self, obj):
        with pytest.raises(TypeError) as want:
            _dumps(obj)
        with pytest.raises(TypeError) as got:
            cli._to_json(obj)
        assert str(got.value) == str(want.value)

    # the 513-sample x^2.5 order-2 and weak-bound reports of the cli-reports
    # benchmark workload: one all-distinct, one mirrored rhs and slack
    @pytest.mark.parametrize("check, n", [(subadd.check_order, 2), (subadd.check_weak_bound, 1)],
                             ids=["order-2", "weak-bound"])
    def test_large_witness_report(self, check, n):
        f = sample("1.3*x^2.5", 0.0, 8.0 / 512, 513)
        report = check(f, n).to_dict()
        assert len(report["violations"]) == 130_816
        tracemalloc.start()
        try:
            text = cli._to_json(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the finished text and the fragments it is joined from, not copies per nesting level
        assert peak < 2.2 * len(text)
        assert _first_difference(text, _dumps(_expanded(report))) is None

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_witness_row_blocks_of_any_size(self, monkeypatch, block):
        monkeypatch.setattr(cli, "_ROW_BLOCK", block)
        rng = np.random.default_rng(block)
        pool = np.array([0.0, -0.0, 1.5, 5e-324, 1.7e308, -2.25])
        for size in [*range(151), 300]:  # 300 rows: formatted once per distinct value
            i, j = rng.integers(0, 9, (2, size))
            lhs, rhs = rng.choice(pool, (2, size))
            report = {"holds": False, "violations": Witnesses(i, j, lhs, rhs), "n": 2}
            assert cli._to_json(report) == _dumps(_expanded(report)), size

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("size", [1, 64, 150])
    def test_nan_in_the_last_row_block_exits_2_without_output(
            self, capsys, monkeypatch, block, size):
        monkeypatch.setattr(cli, "_ROW_BLOCK", block)
        rhs = np.full(size, 0.5)
        rhs[-1] = math.nan
        witnesses = Witnesses(np.arange(size), np.arange(size), np.ones(size), rhs)
        command = COMMANDS["star-classify"]._replace(
            handler=lambda f, args, tol: (False, {"violations": witnesses}, {}))
        monkeypatch.setitem(COMMANDS, "star-classify", command)
        argv = ["star-classify", "--expr", "x", "--to", "1", "--samples", "5", "--p", "1"]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "funclass: error: a result overflowed to inf or NaN, which JSON cannot hold\n"

    @pytest.mark.parametrize("distinct, shared", [(192, True), (193, False)],
                             ids=["3/4-distinct", "one-past-3/4"])
    def test_float_columns_at_the_dedup_cut(self, distinct, shared):
        # 256 entries: 0.0 and -0.0 among the distinct values, then repeats of them
        values = np.concatenate([[0.0, -0.0], np.linspace(1.0, 2.0, distinct - 2)])
        values = np.concatenate([values, np.resize(values, 256 - distinct)])
        assert np.unique(values.view(np.int64)).size == distinct
        texts = _reprs(values)
        assert (texts[0] is texts[distinct]) is shared  # one string per distinct value
        assert cli._to_json({"k": values}) == _dumps({"k": values.tolist()})
        ints = np.arange(256) % 200
        witnesses = Witnesses(ints, ints[::-1], values, values[::-1])
        report = {"violations": witnesses}
        assert cli._to_json(report) == _dumps(_expanded(report))

    @pytest.mark.parametrize("distinct, shared", [(128, True), (129, False)],
                             ids=["half-distinct", "one-past-half"])
    def test_int_columns_at_the_dedup_cut(self, distinct, shared):
        ints = np.concatenate([np.arange(distinct), np.arange(256 - distinct)]) * 1000
        texts = _reprs(ints)
        assert (texts[1] is texts[distinct + 1]) is shared
        witnesses = Witnesses(ints, ints, np.full(256, 0.5), np.full(256, -0.0))
        report = {"violations": witnesses}
        assert cli._to_json(report) == _dumps(_expanded(report))

    def test_dedup_sort_runs_only_when_a_sample_repeats(self, monkeypatch):
        sizes = []
        unique = np.unique

        def counting(values, *args, **kwargs):
            sizes.append(np.size(values))
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        distinct = np.linspace(1.0, 2.0, 130_816)  # like the order-2 report's rhs and slack
        assert not cli._has_repeats(distinct)
        assert _reprs(distinct) == list(map(repr, distinct.tolist()))
        assert distinct.size not in sizes
        half = distinct[:65_408]
        mirrored = np.concatenate([half, half[::-1]])  # like the weak bound's
        texts = _reprs(mirrored)
        assert texts == list(map(repr, mirrored.tolist()))
        assert texts[0] is texts[-1]  # one string per distinct value
        assert mirrored.size in sizes

    def test_a_value_error_of_the_formatter_propagates(self, capsys, monkeypatch):
        def broken(values, sep=b"\n"):
            raise ValueError("formatter fault")

        monkeypatch.setattr(cli, "repr_bytes", broken)
        with pytest.raises(ValueError, match="formatter fault") as info:
            cli._to_json({"values": np.linspace(0.0, 1.0, 5000)})
        assert not isinstance(info.value, GridError)  # not read as a non-finite result
        with pytest.raises(ValueError, match="formatter fault"):
            run(["minorant", "--expr", "x^0.5", "--to", "1", "--samples", "2000"])
        assert capsys.readouterr().out == ""

    def test_mirrored_weak_bound_columns_are_formatted_once_per_value(self):
        # the pairs (i, j) and (j, i) share rhs and slack: 1024 values in 2016, past half
        f = sample("1.3*x^2.5", 0.0, 8.0 / 64, 65)
        report = subadd.check_weak_bound(f, 1).to_dict()
        witnesses = report["violations"]
        assert (len(witnesses), np.unique(witnesses.rhs.view(np.int64)).size) == (2016, 1024)
        assert (witnesses.i[1], witnesses.j[1]) == (1, 2)
        mirror = np.flatnonzero((witnesses.i == 2) & (witnesses.j == 1))[0]
        for column in (witnesses.rhs, witnesses.lhs - witnesses.rhs):
            texts = _reprs(column)
            assert texts[1] is texts[mirror]
        assert cli._to_json(report) == _dumps(_expanded(report))

    @given(value_arrays())
    @example(np.array([0.0, -0.0] * 300))
    @example(np.array([5e-324, -1.7e308, 1.7e308] * 200))
    @settings(max_examples=300, deadline=None)
    def test_value_arrays_as_json_dumps_writes_their_lists(self, values):
        assert _encoded(cli._to_json, {"k": values}) == _encoded(_dumps, {"k": values.tolist()})

    @given(witness_columns())
    @example(Witnesses([1] * 6, [2] * 6, [0.0, -0.0] * 3, [-0.0, 0.0] * 3))
    @example(Witnesses([0, 0, 1, 1], [1, 1, 2, 2], [2.0] * 4, [math.nan, math.nan, 0.5, 0.5]))
    @example(Witnesses([3] * 4, [4] * 4, [1.7e308] * 4, [-1.7e308] * 4))  # the slack overflows
    @settings(max_examples=400, deadline=None)
    def test_witness_columns_as_json_dumps_writes_the_dict_rows(self, witnesses):
        report = {"violations": witnesses, "n": 1}
        assert _encoded(cli._to_json, report) == _encoded(_dumps, _expanded(report))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("place", [
        lambda x: {"value": x},
        lambda x: {"values": [0.0, 1.5, x, 2.0]},
        lambda x: {"values": np.array([0.0, 1.5, x, 2.0])},
        lambda x: {"violations": [{"i": 1, "j": 2, "lhs": 1.0, "rhs": x}] * 3},
        lambda x: {"violations": Witnesses([1] * 3, [2] * 3, [1.0] * 3, [x] * 3)},
        lambda x: {"nested": {"deeper": [{"level": x, "witness": None}]}},
        lambda x: {"tuple": (1, x)},
        lambda x: {"key": {x: 1}},
    ], ids=["scalar", "float-list", "float-array", "witness-column", "witnesses", "nested",
            "tuple", "key"])
    def test_non_finite_values_exit_2_without_output(self, capsys, monkeypatch, bad, place):
        def handler(f, args, tol):
            return True, place(bad), {}
        command = COMMANDS["star-classify"]._replace(handler=handler)
        monkeypatch.setitem(COMMANDS, "star-classify", command)
        argv = ["star-classify", "--expr", "x", "--to", "1", "--samples", "5", "--p", "1"]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "funclass: error: a result overflowed to inf or NaN, which JSON cannot hold\n"


class TestValueArrays:
    """Handlers put their value arrays into the report as the plot columns
    themselves, so no list is built."""

    def test_plot_csv_matches_the_per_cell_writer(self, capsys, tmp_path):
        plot = tmp_path / "plot.csv"
        argv = ["envelope", "--expr", "x + 0.28*sin(2*pi*x)", "--to", "50", "--samples", "20001",
                "--d", "1", "--plot-csv", str(plot)]
        _, _, columns = cli._dispatch(cli._parser().parse_args(argv))
        assert invoke(capsys, argv)[0] == 0
        oracle.write_columns_repr(tmp_path / "ref.csv", list(columns.values()), ",".join(columns))
        assert plot.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("command, keys", [
        (["minorant"], {"sigma": "sigma", "residual": "residual"}),
        (["heights", "--d", "1"], {"window_heights": "window_height"}),
        (["periodic-minorant", "--d", "1"], {"f_tilde": "f_tilde"}),
        (["decompose", "--d", "1"], {"g": "g", "h": "h"}),
    ], ids=["minorant", "heights", "periodic-minorant", "decompose"])
    def test_report_arrays_are_the_plot_columns(self, tmp_path, command, keys):
        argv = [*command, "--expr", "x", "--to", "4", "--samples", "33",
                "--plot-csv", str(tmp_path / "plot.csv")]
        _, report, columns = cli._dispatch(cli._parser().parse_args(argv))
        for key, column in keys.items():
            assert report[key] is columns[column]


class TestWitnessReports:
    """Reports keep witnesses as ``Witnesses`` columns; the CLI prints what
    ``json.dumps`` prints of the report with them expanded to dicts."""

    @staticmethod
    def expect_expanded(capsys, argv, code, report):
        got, out, _ = invoke(capsys, argv)
        assert got == code
        assert out == _dumps(_expanded(report)) + "\n"
        return out

    def test_ratio_offset_indices(self, capsys):
        f = sample("x^3", 0.0, 1.0 / 16, 17)
        rep = subadd.check_order_offset(subadd.ratio_transform(f, 1), 1)
        assert rep.violations[0].indices == (1, 1)  # steps from 0, not array positions
        argv = ["ratio", "--expr", "x^3", "--to", "1", "--samples", "17", "--n", "1"]
        self.expect_expanded(capsys, argv, 1, {"transform": "ratio", "n": 1, **rep.to_dict()})

    def test_weak_bound(self, capsys):
        rep = subadd.check_weak_bound(sample("x^3", 0.0, 1.0 / 32, 33), 1)
        assert len(rep.violations) > 100
        argv = ["weak-bound", "--expr", "x^3", "--to", "1", "--samples", "33", "--n", "1"]
        self.expect_expanded(capsys, argv, 1, rep.to_dict())

    def test_periodic_witnesses_keep_a_negative_zero_rhs(self, capsys, tmp_path):
        # 5 then a zero of alternating sign: each 5 fails against the next zero
        path = tmp_path / "zeros.csv"
        path.write_text("".join(f"{k},{(5.0, 0.0, 5.0, -0.0)[k % 4]!r}\n" for k in range(41)))
        f = read_csv(path)
        verdict = periodic.is_periodically_increasing(f, periodic.PeriodSpec(1.0, 1))
        assert [math.copysign(1.0, w.rhs) for w in verdict.witnesses] == [1.0, -1.0] * 10
        report = {"d": 1.0, "w": 1, "periodic_increasing": False, "witnesses": verdict.witnesses}
        out = self.expect_expanded(capsys, ["periodic-check", "--csv", str(path), "--d", "1"], 1, report)
        assert out.count('"rhs": -0.0') == 10

    def test_no_witness_object_is_built_per_pair(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(grid, "Witness", lambda *fields: built.append(fields))
        argv = ["check-order", "--expr", "x^2", "--to", "1", "--samples", "65", "--n", "1"]
        code, out, _ = invoke(capsys, argv)
        assert (code, built) == (1, [])
        assert len(json.loads(out)["violations"]) > 1000
