"""Tests of the command-line surface: commands, formats, exit codes, and
output determinism."""

import ast
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from diracpol import cli, polarizability, specfun, tablegen
from diracpol.atom import ALPHA_INV_CODATA2014, AtomSpec, ChannelIndex, critical_charge
from diracpol.cli import run
from diracpol.polarizability import polarizability_planar, r_channel_closed
from tests.test_package import _imported_roots


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

    def test_non_finite_json_value_exits_2(self, capsys):
        # JSON has no spelling for inf; the command refuses rather than
        # print the nonstandard Infinity.
        assert run(["planar", "--Z", "1", "--alpha-inv", "inf", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Out of range float values are not JSON compliant")

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

    @pytest.mark.parametrize(
        "sigma, code, shown",
        [
            ("2e-4", 3, "Z=68 is supercritical at alpha_inv - step"),
            ("1e300", 2, "takes alpha_inv = 137.035999139 to -1.0000000000000001e+304"),
        ],
    )
    def test_step_beyond_the_domain_names_sigma(self, capsys, sigma, code, shown):
        # The propagation step 1e4 * sigma, not --alpha-inv, is what fails.
        assert run(["table", "--z-min", "68", "--z-max", "68", "--alpha-inv-sigma", sigma]) == code
        err = capsys.readouterr().err
        assert shown in err
        assert f"alpha_inv_sigma = {float(sigma)!r}" in err

    def test_unresolved_difference_prints_full_precision(self, capsys):
        # At alpha_inv = 1e6 no row's two sides differ by more than rounding
        # noise: each row shows 16 decimals and no uncertain digits, never
        # more decimals than a double holds.
        code, out = _capture(capsys, ["table", "--alpha-inv", "1e6", "--z-max", "4", "--format", "csv"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3", "4"]
        for _, display, units, _ in rows:
            assert len(display.split(".")[1]) == 16
            assert units == "0"

    def test_step_lost_in_rounding_exits_2(self, capsys):
        # 1e4 * 1e-19 is below half an ulp of alpha_inv: the uncertainty
        # would print as 0.  The program (forked or not) refuses it too.
        argv = [
            "table", "--z-min", "26", "--z-max", "26", "--alpha-inv-sigma", "1e-19", "--format", "csv",
        ]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(alpha_inv_sigma = 1e-19) is lost in rounding" in captured.err
        src = Path(__file__).resolve().parents[1] / "src"
        cold = subprocess.run(
            [sys.executable, "-m", "diracpol.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert [cold.returncode, cold.stdout, cold.stderr] == [2, "", captured.err]


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

    @pytest.mark.parametrize("z", ["1", "26", "66", "68.5"])
    def test_checks_the_closed_form_users_get(self, capsys, z):
        # The closed values are those of the library at its one accuracy,
        # whatever the series tolerance.
        code, out = _capture(capsys, ["crosscheck", "--Z", z, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        spec = AtomSpec(float(z), "planar")
        for kappa, entry in payload["channels"].items():
            closed = r_channel_closed(ChannelIndex(float(kappa)), spec)
            assert entry["closed"].hex() == closed.hex()
        alpha = polarizability_planar(spec).value_a0_cubed
        assert payload["alpha_1_closed"].hex() == alpha.hex()

    @pytest.mark.parametrize(
        "z, alpha_inv",
        [
            (1e-3, ALPHA_INV_CODATA2014),
            (26.0, ALPHA_INV_CODATA2014),
            (68.5, ALPHA_INV_CODATA2014),
            (math.nextafter(critical_charge("planar"), 0.0), ALPHA_INV_CODATA2014),
            (26.0, math.inf),
            (26.0, ALPHA_INV_CODATA2014 + 3.1e-4),
            (math.nextafter(critical_charge("planar", 137.1), 0.0), 137.1),
        ],
    )
    def test_one_kernel_gives_the_public_bits(self, monkeypatch, z, alpha_inv):
        # R_{-3/2} and alpha_1 ask for the same 3F2, and alpha_1's call gets
        # R_{-3/2}'s result back, the very tuple, so one 3F2 is summed.  Each
        # keeps the bits of the public function that sums it alone.  The
        # payload is read before it becomes JSON, which has no spelling for
        # alpha_inv = inf.
        calls = []
        hyp = polarizability.hyp3f2_unit

        def recording(*args):
            result = hyp(*args)
            calls.append((args, result))
            return result

        # An empty memo: the first call sums, whatever ran before.
        monkeypatch.setattr(specfun, "_last_sum", (None, None, None))
        monkeypatch.setattr(polarizability, "hyp3f2_unit", recording)
        monkeypatch.setattr(cli, "_json_document", lambda payload: payload)
        argv = ["crosscheck", "--Z", repr(z), "--alpha-inv", repr(alpha_inv), "--format", "json"]
        payload = cli._run_crosscheck(cli._build_parser().parse_args(argv))
        assert len(calls) == 2
        (first_args, first), (second_args, second) = calls
        assert type(first_args[0]) is specfun.Hyp3F2Params
        assert second_args == first_args
        assert second is first
        spec = AtomSpec(z, "planar", alpha_inv)
        for kappa in (0.5, -1.5):
            closed = r_channel_closed(ChannelIndex(kappa), spec)
            assert payload["channels"][str(kappa)]["closed"].hex() == closed.hex()
        alpha = polarizability_planar(spec).value_a0_cubed
        assert payload["alpha_1_closed"].hex() == alpha.hex()

    @pytest.mark.parametrize("tol, used", [("1e-16", 1e-12), ("1e-12", 1e-12), ("1e-8", 1e-8)])
    def test_reports_the_tolerance_used(self, capsys, tol, used):
        # The series clamps its tolerance to SERIES_TOL_FLOOR = 1e-12.
        argv = ["crosscheck", "--Z", "26", "--tol", tol]
        code, out = _capture(capsys, [*argv, "--format", "json"])
        assert code == 0
        assert json.loads(out)["tol"] == used
        code, out = _capture(capsys, argv)
        assert code == 0
        assert f"tol = {used:g}\n" in out

    def test_infinite_tolerance_exits_2(self, capsys):
        assert run(["crosscheck", "--Z", "26", "--tol", "inf", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be finite, got inf")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_invalid_tolerance_exits_2(self, capsys, tol):
        assert run(["crosscheck", "--Z", "26", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: tol must be positive, got {float(tol)!r}" in captured.err


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

    @pytest.mark.parametrize("alpha_inv", ["1e9", "1e12"])
    def test_alpha_inv_not_on_limits(self, capsys, alpha_inv):
        # The coefficients do not depend on alpha.
        assert run(["limits", "--alpha-inv", alpha_inv]) == 2
        assert "unrecognized arguments: --alpha-inv" in capsys.readouterr().err


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert run(["polarize"]) == 2

    def test_missing_charge(self, capsys):
        assert run(["planar"]) == 2

    def test_csv_outside_table(self, capsys):
        assert run(["planar", "--Z", "1", "--format", "csv"]) == 2

    def test_nonpositive_charge(self, capsys):
        assert run(["planar", "--Z", "-1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["planar", "--Z", "1e-100"],
            ["planar", "--Z", "1e-80", "--format", "json"],
            ["spatial", "--Z", "1e-80"],
            ["crosscheck", "--Z", "1e-90"],
        ],
    )
    def test_charge_below_the_smallest(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: Z={float(argv[2])!r} is below the smallest allowed charge, about 1.2"
        )

    @pytest.mark.parametrize("command", ["planar", "spatial", "crosscheck"])
    def test_charge_above_the_largest(self, capsys, command):
        # Subcritical at alpha_inv = inf, but Z**4 overflows.
        assert run([command, "--Z", "1e100", "--alpha-inv", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Z=1e+100 is above the largest allowed charge, about ")
        assert "Numerical result" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["planar", "--Z", "1"], ["spatial", "--Z", "1"], ["table", "--z-max", "2"], ["limits"]],
    )
    def test_tol_only_on_crosscheck(self, capsys, argv):
        assert run([*argv, "--tol", "1e-10"]) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

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
        # Warm caches: the same charge again, then a second charge.
        ["crosscheck", "--Z", "12.3"],
        ["crosscheck", "--Z", "68.5", "--format", "json"],
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
        assert codes == [0, 0, 0, 2, 0, 0, 0]


class TestForkedTable:
    # The program computes every other row of the table in one forked child
    # when the process may use two CPUs or more; cli._run(argv, True) is its
    # entry, and a patched os.sched_getaffinity sets the CPUs it sees.  Each
    # case runs in a fresh interpreter without numpy, as the program does,
    # and compares every call with run(), which computes every row in
    # process.  Each call also records the open descriptors before and after
    # (None without /proc/self/fd) and whether a child is left to reap.
    SCRIPT = textwrap.dedent(
        """
        import contextlib, io, json, os, sys
        from diracpol import cli, tablegen

        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(None)
            {fork_patch}
            return fork()

        os.fork = counted_fork
        {patch}

        def fds():
            return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

        def call(cpus, argv):
            del forks[:]
            if isinstance(cpus, int):
                os.sched_getaffinity = lambda pid: set(range(cpus))
            before = fds()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv) if cpus == "run" else cli._run(argv, True)
            after = fds()
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                left = False
            else:
                left = True
            return {{
                "result": [code, out.getvalue(), err.getvalue()],
                "forks": len(forks),
                "left": left,
                "fds": [before, after],
            }}

        report = [call(cpus, argv) for cpus, argv in {calls!r}]
        print(json.dumps({{"calls": report, "numpy": "numpy" in sys.modules}}))
        """
    )
    # A child that cannot be forked, and one that exits without delivering
    # its rows: as (fork_patch, patch) for _calls.
    UNDELIVERED = [
        ('raise OSError(11, "no fork")', ""),
        (
            "",
            "row, parent = tablegen._row, os.getpid()\n"
            "tablegen._row = lambda *a: row(*a) if os.getpid() == parent else os._exit(1)",
        ),
    ]

    @staticmethod
    def _calls(calls, fork_patch="", patch=""):
        script = TestForkedTable.SCRIPT.format(calls=calls, fork_patch=fork_patch, patch=patch)
        report = json.loads(TestImportDiet._fresh(script).stdout)
        assert report["numpy"] is False
        assert not any(call["left"] for call in report["calls"])
        return report["calls"]

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_forced_workers_print_what_run_prints(self, fmt):
        argv = ["table", "--format", fmt]
        serial, *forked = self._calls([("run", argv), (1, argv), (2, argv)])
        assert serial["result"][0] == 0
        assert [call["result"] for call in forked] == [serial["result"]] * 2
        assert [serial["forks"], *(call["forks"] for call in forked)] == [0, 0, 1]
        # The program itself, on the CPUs this host gives it.
        src = Path(__file__).resolve().parents[1] / "src"
        cold = subprocess.run(
            [sys.executable, "-m", "diracpol.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert [cold.returncode, cold.stdout, cold.stderr] == serial["result"]

    @pytest.mark.parametrize(
        "argv, code, forks",
        [
            # Z = 67 fails its curvature check (exit 2), this process's
            # share; Z = 68 fails in the child, supercritical at the shifted
            # constant.
            (["--z-min", "67", "--z-max", "69", "--alpha-inv-sigma", "2e-4"], 2, 1),
            # Z = 69 fails in the child; this process's share fails at
            # Z = 70, with a message naming that charge.
            (["--z-min", "68", "--z-max", "70"], 3, 1),
            # Only this process's share fails, at Z = 69.
            (["--z-min", "67", "--z-max", "69"], 3, 1),
            # Only the child's share fails, at Z = 69.
            (["--z-min", "68", "--z-max", "69"], 3, 1),
            # Refused before any fork: the range and the constants.
            (["--z-min", "0"], 2, 0),
            (["--z-min", "5", "--z-max", "3"], 2, 0),
            (["--alpha-inv-sigma", "nan"], 2, 0),
        ],
        ids=[
            "parent-share", "child-share", "parent-share-only", "child-share-only",
            "z-min-0", "empty-range", "nan-sigma",
        ],
    )
    def test_the_lowest_failing_charge_gives_the_error(self, argv, code, forks):
        argv = ["table", *argv]
        serial, split = self._calls([("run", argv), (2, argv)])
        assert serial["result"][0] == code
        assert serial["result"][1] == ""
        assert serial["result"][2].startswith("error: ")
        assert split["result"] == serial["result"]
        assert split["forks"] == forks

    @pytest.mark.parametrize("alpha_inv", ["1e4", "1e5"])
    def test_a_table_at_a_large_alpha_inv_succeeds(self, alpha_inv):
        # At Z = 1 (1e4) and Z = 25 (1e5) the propagation's second
        # difference is a few ulp of rounding, not curvature.
        argv = ["table", "--alpha-inv", alpha_inv, "--format", "csv"]
        serial, split = self._calls([("run", argv), (2, argv)])
        assert serial["result"][0::2] == [0, ""]
        assert split["result"] == serial["result"]
        assert [serial["forks"], split["forks"]] == [0, 1]

    @pytest.mark.parametrize("fork_patch, patch", UNDELIVERED, ids=["every-fork-fails", "child-exits-1"])
    def test_an_undelivered_share_is_computed_here(self, fork_patch, patch):
        argv = ["table", "--format", "csv"]
        serial, split = self._calls([("run", argv), (2, argv)], fork_patch, patch)
        assert serial["result"][0::2] == [0, ""]
        assert split["result"] == serial["result"]
        assert [serial["forks"], split["forks"]] == [0, 1]

    @pytest.mark.parametrize(
        "fork_patch, patch", [("", ""), *UNDELIVERED], ids=["split", "fork-fails", "child-exits-1"]
    )
    def test_a_split_leaves_no_descriptor_and_no_child(self, fork_patch, patch):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to list the open descriptors")
        # A table and a failing one; _calls checks that no child is left.
        argvs = [["table", "--z-max", "6"], ["table", "--z-min", "68", "--z-max", "70"]]
        calls = self._calls([(2, argv) for argv in argvs], fork_patch, patch)
        assert [call["result"][0] for call in calls] == [0, 3]
        assert [call["forks"] for call in calls] == [1, 1]
        for call in calls:
            before, after = call["fds"]
            assert after == before

    def test_one_worker_forks_nothing(self):
        # A single row forks nothing, however many CPUs.
        one_row = ["table", "--z-min", "7", "--z-max", "7"]
        serial, *split = self._calls([("run", one_row), (2, one_row), (64, one_row)])
        assert serial["result"][0] == 0
        assert [call["result"] for call in split] == [serial["result"]] * 2
        assert [call["forks"] for call in split] == [0, 0]

    @pytest.mark.parametrize(
        "patch, forks",
        [
            ("os.sched_getaffinity = lambda pid: {0}", 0),
            ("os.sched_getaffinity = lambda pid: {0, 1}", 1),
            # One child, however many CPUs.
            ("os.sched_getaffinity = lambda pid: set(range(64))", 1),
            # Without affinity, the CPU count.
            ("del os.sched_getaffinity\nos.cpu_count = lambda: 64", 1),
            # Without os.fork (Windows), no child whatever the CPUs.
            ("del os.fork\nos.sched_getaffinity = lambda pid: set(range(64))", 0),
        ],
        ids=["one-cpu", "two-cpus", "64-cpus", "no-affinity", "no-fork"],
    )
    def test_the_program_counts_its_usable_cpus(self, patch, forks):
        argv = ["table", "--format", "csv"]
        serial, program = self._calls([("run", argv), (None, argv)], patch=patch)
        assert serial["result"][0::2] == [0, ""]
        assert program["result"] == serial["result"]
        assert [serial["forks"], program["forks"]] == [0, forks]


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
    # could import it.  With ``split`` true the program's entry runs, and
    # two CPUs let a table fork one child; otherwise the entry is run(),
    # which never forks.
    UNUSED = textwrap.dedent(
        """
        import contextlib, io, os, sys
        from diracpol import cli

        os.sched_getaffinity = lambda pid: {{0, 1}}
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli._run(argv, {split!r}) == 0, argv
        print(" ".join(m for m in {watched!r} if m in sys.modules))
        """
    )
    # The table's split lives in tablegen and sends its rows by marshal, so
    # no command loads pickle, forked or not.
    CLOSED_FORM_UNUSED = (
        "diracpol.sturmian", "diracpol.tablegen", "pickle", "dataclasses", "json", "decimal", "numpy",
    )

    @pytest.mark.parametrize(
        "argvs, watched, split",
        [
            (
                [["planar", "--Z", "26"], ["spatial", "--Z", "3"], ["limits"]],
                CLOSED_FORM_UNUSED,
                False,
            ),
            # The longest closed-form series, 15,873 terms.
            (
                [["spatial", "--Z", repr(math.nextafter(ALPHA_INV_CODATA2014, 0.0))]],
                CLOSED_FORM_UNUSED,
                False,
            ),
            ([["table", "--format", "csv"]], ("diracpol.sturmian", "pickle", "numpy"), False),
            # The program's table on two CPUs: one forked child, rows by marshal.
            ([["table", "--format", "csv"]], ("pickle", "numpy"), True),
            ([["crosscheck", "--Z", "12.3"]], ("diracpol.tablegen", "pickle", "numpy"), False),
            # The oracle runs on plain floats, and so does its 3F2 sum,
            # 9,729 terms just below the critical charge.
            (
                [
                    *(
                        ["crosscheck", "--Z", z, *fmt]
                        for z in ("1e-3", "26")
                        for fmt in ([], ["--format", "json"])
                    ),
                    ["crosscheck", "--Z", repr(math.nextafter(critical_charge("planar"), 0.0))],
                ],
                ("diracpol.tablegen", "pickle", "numpy"),
                False,
            ),
        ],
        ids=[
            "closed-form", "spatial-near-critical", "table", "table-forked", "crosscheck",
            "crosscheck-without-numpy",
        ],
    )
    def test_commands_load_only_what_they_use(self, argvs, watched, split):
        proc = self._fresh(self.UNUSED.format(argvs=argvs, watched=watched, split=split))
        assert proc.stdout.split() == []

    def test_table_program_loads_no_pool(self):
        # Two CPUs: the program forks one child by os.fork and reads a pipe.
        script = textwrap.dedent(
            """
            import contextlib, io, os, sys
            from diracpol import cli

            os.sched_getaffinity = lambda pid: {0, 1}
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli._run(["table", "--format", "csv"], True) == 0
            print(" ".join(m for m in sys.modules if m.startswith(("pickle", "multiprocessing", "concurrent"))))
            """
        )
        assert self._fresh(script).stdout.split() == []

    def test_table_leaves_decimal_unloaded(self):
        # format_scaled rounds by fixed-point formatting: decimal is imported
        # nowhere in tablegen, and a cold table command never loads it.
        nodes = ast.walk(ast.parse(Path(tablegen.__file__).read_text()))
        assert "decimal" not in _imported_roots(nodes)
        proc = self._fresh(
            self.UNUSED.format(argvs=[["table", "--format", "csv"]], watched=("decimal",), split=False)
        )
        assert proc.stdout.split() == []

    def test_no_module_imports_pickle(self):
        # The forked table sends its rows by marshal, which is built in and
        # loaded at start-up; pickle would cost its import on the table's
        # critical path.
        src = Path(tablegen.__file__).parent
        for module in sorted(src.glob("*.py")):
            nodes = ast.walk(ast.parse(module.read_text()))
            assert "pickle" not in _imported_roots(nodes), module.name

    @pytest.mark.parametrize(
        "z",
        [
            "26",
            # One 9,729-term 3F2 sum, which alpha_1 reads back from the
            # channel's call.
            repr(math.nextafter(critical_charge("planar"), 0.0)),
        ],
        ids=["Z=26", "near-critical"],
    )
    def test_cold_crosscheck_bytes_equal_a_run_with_numpy_loaded(self, capsys, z):
        script = textwrap.dedent(
            """
            import contextlib, io, sys
            from diracpol.cli import run

            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run({argv!r})
            print(code, "numpy" in sys.modules)
            sys.stdout.write(out.getvalue())
            """
        )
        argv = ["crosscheck", "--Z", z, "--format", "json"]
        status, cold = self._fresh(script.format(argv=argv)).stdout.split("\n", 1)
        assert status == "0 False"
        # The in-process run must see numpy loaded, whichever tests ran before.
        import numpy  # noqa: F401

        assert "numpy" in sys.modules
        assert _capture(capsys, argv) == (0, cold)

    def test_cold_table_prints_the_golden_bytes_without_numpy(self):
        # Every 3F2 sum of the table is computed in plain floats.
        script = textwrap.dedent(
            """
            import contextlib, io, sys
            from diracpol.cli import run

            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(["table", "--format", "csv"])
            print(code, "numpy" in sys.modules)
            sys.stdout.write(out.getvalue())
            """
        )
        status, csv = self._fresh(script).stdout.split("\n", 1)
        assert status == "0 False"
        golden = Path(__file__).resolve().parents[1] / "bench" / "golden_table.csv"
        assert csv.encode() == golden.read_bytes()
