import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from funclass.cli import COMMANDS, run

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


class TestGoldenOutput:
    """Every command's stdout, exit code and plot CSV, pinned byte for byte."""

    @pytest.mark.parametrize("argv, code, stdout_sha, plot_sha",
                             [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN])
    def test_output_is_pinned(self, capsys, monkeypatch, tmp_path, argv, code, stdout_sha,
                              plot_sha):
        monkeypatch.delenv("FUNCLASS_TOL_ABS", raising=False)
        monkeypatch.delenv("FUNCLASS_TOL_REL", raising=False)
        paths = {}
        for name, values in FIXTURES.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(_csv_text(values))
        plot = tmp_path / "plot.csv"
        argv = [arg.format(**paths) for arg in argv] + ["--plot-csv", str(plot)]
        got, out, _ = invoke(capsys, argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
        got_plot = hashlib.sha256(plot.read_bytes()).hexdigest() if plot.exists() else None
        assert got_plot == plot_sha


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
