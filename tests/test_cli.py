"""Tests of the command-line surface: commands, formats, exit codes, and
output determinism."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from diracpol.cli import ALPHA_INV_ENV, run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestPlanarCommand:
    def test_reference_line(self, capsys):
        code, out = _capture(capsys, ["planar", "--Z", "1"])
        assert code == 0
        assert "Z^4*alpha_1 = 0.164031922357129 a0^3" in out
        assert "alpha_1 = 0.164031922357129 a0^3" in out
        assert "series: terms = " in out and "converged" not in out

    def test_supercritical_exit_code(self, capsys):
        code = run(["planar", "--Z", "70"])
        assert code == 3
        assert "Z < alpha_inv/2" in capsys.readouterr().err

    def test_json_round_trip(self, capsys):
        code, out = _capture(capsys, ["planar", "--Z", "26", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert "converged" not in payload
        assert payload["tail_estimate"] <= 1e-16
        rerun_code, rerun_out = _capture(capsys, ["planar", "--Z", "26", "--format", "json"])
        assert json.loads(rerun_out)["alpha_1_a0^3"] == payload["alpha_1_a0^3"]

    def test_alpha_inv_flag(self, capsys):
        code, out = _capture(
            capsys, ["planar", "--Z", "1", "--alpha-inv", "1e9", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["Z^4*alpha_1_a0^3"] == pytest.approx(0.1640625, abs=1e-12)

    def test_alpha_inv_environment_override(self, capsys, monkeypatch):
        monkeypatch.setenv(ALPHA_INV_ENV, "1e9")
        code, out = _capture(capsys, ["planar", "--Z", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["alpha_inv"] == 1e9

    def test_non_numeric_alpha_inv_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(ALPHA_INV_ENV, "abc")
        assert run(["planar", "--Z", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: environment variable {ALPHA_INV_ENV}='abc' is not a number" in captured.err


class TestSpatialCommand:
    def test_hydrogen(self, capsys):
        code, out = _capture(capsys, ["spatial", "--Z", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["alpha_1_a0^3"] == pytest.approx(4.49975, abs=1e-4)

    def test_supercritical(self, capsys):
        assert run(["spatial", "--Z", "140"]) == 3


class TestTableCommand:
    def test_csv_document(self, capsys):
        code, out = _capture(
            capsys, ["table", "--z-min", "1", "--z-max", "3", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "Z,scaled_polarizability_a0^3,uncertainty_last_two_digits,polarizability_a0^3"
        )
        assert lines[1].startswith("1,0.164031922357129,14,")

    def test_idempotent_bytes(self, capsys):
        _, first = _capture(capsys, ["table", "--z-max", "4", "--format", "json"])
        _, second = _capture(capsys, ["table", "--z-max", "4", "--format", "json"])
        assert first.encode() == second.encode()

    def test_json_values_parse_back(self, capsys):
        code, out = _capture(
            capsys, ["table", "--z-min", "26", "--z-max", "26", "--format", "json"]
        )
        assert code == 0
        entry = json.loads(out)[0]
        value = float(entry["scaled_Z4"])
        assert repr(value) == entry["scaled_Z4"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code = run(
            ["table", "--z-max", "2", "--format", "csv", "--output", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("Z,scaled_polarizability")

    def test_supercritical_range(self, capsys):
        assert run(["table", "--z-min", "1", "--z-max", "69"]) == 3

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma(self, capsys, sigma):
        assert run(["table", "--z-max", "2", "--alpha-inv-sigma", sigma]) == 2
        assert f"alpha_inv_sigma must be finite, got {sigma}" in capsys.readouterr().err


class TestCrosscheckCommand:
    def test_reported_deviations(self, capsys):
        code, out = _capture(
            capsys, ["crosscheck", "--Z", "26", "--tol", "1e-10", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha_1_rel_dev"] <= 1e-10
        for entry in payload["channels"].values():
            assert entry["closed_vs_series"] <= 1e-10
            assert entry["quadrature_max_dev"] <= 1e-12

    def test_text_format(self, capsys):
        code, out = _capture(capsys, ["crosscheck", "--Z", "5"])
        assert code == 0
        assert "channel kappa = +0.5" in out
        assert "rel dev" in out


class TestLimitsCommand:
    def test_targets(self, capsys):
        code, out = _capture(capsys, ["limits", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["planar_nonrel_scaled"] == 0.1640625
        assert payload["spatial_nonrel_scaled"] == 4.5
        assert payload["planar_quasirel_coefficient"] == pytest.approx(-3.5, abs=1e-6)
        assert payload["spatial_quasirel_coefficient"] == pytest.approx(
            -28.0 / 27.0, abs=1e-6
        )


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert run(["polarize"]) == 2

    def test_missing_charge(self, capsys):
        assert run(["planar"]) == 2

    def test_csv_outside_table(self, capsys):
        assert run(["planar", "--Z", "1", "--format", "csv"]) == 2

    def test_nonpositive_charge(self, capsys):
        assert run(["planar", "--Z", "-1"]) == 2

    def test_output_in_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        assert run(["planar", "--Z", "1", "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(target) in captured.err
        assert not target.parent.exists()


class TestRepeatedRuns:
    # The parser is built once per process; each call must still behave as
    # if it ran alone.
    SEQUENCE = (
        ["planar", "--Z", "26", "--format", "json"],
        ["crosscheck", "--Z", "12.3"],
        ["table", "--z-max", "3", "--format", "csv"],
        ["planar", "--Z", "1", "--format", "csv"],
        ["planar", "--Z", "1"],
    )

    def test_in_process_sequence_matches_fresh_runs(self, capsys):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        codes = []
        for argv in self.SEQUENCE:
            fresh = subprocess.run(
                [sys.executable, "-m", "diracpol.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert _capture(capsys, argv) == (fresh.returncode, fresh.stdout)
            codes.append(fresh.returncode)
        assert codes == [0, 0, 0, 2, 0]


class TestImportDiet:
    # A fresh interpreter: this process has already imported scipy.
    SCRIPT = textwrap.dedent(
        """
        import contextlib, io, json, sys
        from diracpol.cli import run

        def call(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(argv)
            return code, out.getvalue()

        closed = [
            ["planar", "--Z", "26"],
            ["spatial", "--Z", "3"],
            ["table", "--format", "csv"],
            ["limits"],
        ]
        codes = [call(argv)[0] for argv in closed]
        code, out = call(["crosscheck", "--Z", "12.3", "--format", "json"])
        print(json.dumps({"codes": codes, "scipy_loaded": "scipy" in sys.modules,
                          "crosscheck_code": code, "crosscheck": json.loads(out)}))
        """
    )

    @staticmethod
    def _fresh(script):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_no_command_loads_scipy(self):
        proc = self._fresh(self.SCRIPT)
        report = json.loads(proc.stdout)
        assert report["codes"] == [0, 0, 0, 0]
        assert report["scipy_loaded"] is False
        assert report["crosscheck_code"] == 0
        for entry in report["crosscheck"]["channels"].values():
            assert entry["quadrature_max_dev"] <= 1e-12

    # Modules a command does not use; json is checked before anything here
    # could import it.
    UNUSED = textwrap.dedent(
        """
        import contextlib, io, sys
        from diracpol.cli import run

        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv) == 0, argv
        print(" ".join(m for m in {watched!r} if m in sys.modules))
        """
    )
    CLOSED_FORM_UNUSED = ("diracpol.sturmian", "diracpol.tablegen", "dataclasses", "json", "decimal")

    @pytest.mark.parametrize(
        "argvs, watched",
        [
            (
                [["planar", "--Z", "26"], ["spatial", "--Z", "3"], ["limits"]],
                CLOSED_FORM_UNUSED,
            ),
            ([["table", "--format", "csv"]], ("diracpol.sturmian",)),
            ([["crosscheck", "--Z", "12.3"]], ("diracpol.tablegen",)),
        ],
        ids=["closed-form", "table", "crosscheck"],
    )
    def test_commands_load_only_what_they_use(self, argvs, watched):
        proc = self._fresh(self.UNUSED.format(argvs=argvs, watched=watched))
        assert proc.stdout.split() == []
