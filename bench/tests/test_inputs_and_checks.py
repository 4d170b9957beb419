"""Tests of the benchmark itself: seeded inputs, the golden table and the
output checkers."""

import ast
import itertools
import json
import math
from pathlib import Path

import pytest

import diracpol
from bench import checks, workloads
from bench.workloads import Z_CRIT, inputs, run_in_process

REPO = Path(__file__).resolve().parents[2]


def _first(workload, seed, n=60):
    return list(itertools.islice(inputs(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(workload):
    assert _first(workload, 7) == _first(workload, 7)


@pytest.mark.parametrize("workload", ["cli-cold", "scan", "oracle"])
def test_inputs_change_with_the_seed(workload):
    assert _first(workload, 7) != _first(workload, 8)


def test_constants_match_the_package():
    assert workloads.ALPHA_INV == diracpol.ALPHA_INV_CODATA2014
    for dim, zc in Z_CRIT.items():
        assert zc == diracpol.critical_charge(dim)


def test_scan_inputs_start_with_anchors_and_stay_subcritical():
    ops = _first("scan", 3, 4000)
    assert tuple(ops[:4]) == workloads.SCAN_ANCHORS
    assert all(0.0 < z < Z_CRIT[dim] for dim, z in ops)
    assert {dim for dim, _ in ops} == {"planar", "spatial"}


def test_oracle_prefix_has_one_charge_per_log_slice():
    n = workloads.CHECKED_OPS["oracle"]
    zs = list(itertools.islice(workloads.oracle_charges(5), n))
    lo, hi = math.log(1e-3), math.log(Z_CRIT["planar"])
    slices = sorted(int((math.log(z) - lo) / (hi - lo) * n) for z in zs)
    assert slices == list(range(n))


def test_cli_argvs_cycle_through_every_command():
    commands = [argv[0] for argv in _first("cli-cold", 2, 10)]
    assert commands == list(workloads.CLI_COMMANDS) * 2


def test_golden_table_matches_reference_digits():
    """The golden CSV quotes every digit and uncertainty of the reference
    table in tests/table_data.py, which is read as text, not imported."""
    tree = ast.parse((REPO / "tests" / "table_data.py").read_text())
    reference = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "REFERENCE_SCALED"
    )
    lines = checks.GOLDEN_CSV.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 69))
    for z, display, sigma, _ in rows:
        assert (display, int(sigma)) == reference[int(z)]


def test_golden_table_is_what_the_table_op_returns():
    op = workloads.make_op("table")
    assert checks.classify_bytes(0, op(None), checks.GOLDEN_CSV.read_bytes()) == checks.PASS


def test_table_checker_flags_one_changed_digit():
    golden = checks.GOLDEN_CSV.read_bytes()
    i = golden.index(b"0.1435165934310")  # Z = 26
    corrupted = golden[:i + 5] + (b"2" if golden[i + 5:i + 6] != b"2" else b"3") + golden[i + 6:]
    assert len(corrupted) == len(golden)
    assert checks.classify_bytes(0, corrupted, golden) == checks.FAIL
    assert checks.classify_bytes(1, golden, golden) == checks.FAIL


@pytest.mark.parametrize("dim, z", [("planar", 26.0), ("spatial", 92.0)])
def test_scan_checker_flags_value_off_by_1e14(dim, z):
    fn = diracpol.polarizability_planar if dim == "planar" else diracpol.polarizability_spatial
    value = fn(diracpol.AtomSpec(z, dim)).value_a0_cubed
    assert checks.classify_scan(dim, z, value)[0] == checks.PASS
    assert checks.classify_scan(dim, z, value * (1.0 + 1e-14))[0] == checks.FAIL
    assert not checks.scan_plausible(dim, z, math.nan)


def test_scan_checker_sorts_the_near_critical_miss_as_known():
    dim, z = workloads.SCAN_ANCHORS[0]
    value = diracpol.polarizability_planar(diracpol.AtomSpec(z, dim)).value_a0_cubed
    verdict, err = checks.classify_scan(dim, z, value)
    assert verdict == checks.KNOWN and 1e-9 < err < 1e-8


def _crosscheck(z):
    code, out = run_in_process(workloads.crosscheck_argv(z))
    return code, json.loads(out)


@pytest.mark.parametrize(
    "field",
    [("alpha_1_rel_dev",), ("channels", "0.5", "closed_vs_series"), ("channels", "-1.5", "quadrature_max_dev")],
)
def test_crosscheck_checker_flags_deviation_of_1e9(field):
    z = 26.0
    code, doc = _crosscheck(z)
    assert checks.classify_crosscheck(z, code, json.dumps(doc).encode())[0] == checks.PASS
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = 1e-9
    assert checks.classify_crosscheck(z, code, json.dumps(doc).encode())[0] == checks.FAIL


def test_crosscheck_checker_rejects_errors_and_other_inputs():
    code, doc = _crosscheck(26.0)
    out = json.dumps(doc).encode()
    assert checks.classify_crosscheck(26.0, 4, out)[0] == checks.FAIL
    assert checks.classify_crosscheck(27.0, code, out)[0] == checks.FAIL
    assert checks.classify_crosscheck(26.0, code, b"not json")[0] == checks.FAIL


def test_crosscheck_checker_sorts_weak_coupling_miss_as_known():
    z = 0.0013808750270648449  # the series misses 1e-10 here by rounding luck
    code, doc = _crosscheck(z)
    verdict, worst = checks.classify_crosscheck(z, code, json.dumps(doc).encode())
    assert verdict == checks.KNOWN and worst > 1e-10


def test_reference_agrees_with_mpmath_hyp3f2():
    import mpmath as mp

    a1, a2, a3, b1, b2 = (mp.mpf(x) for x in ("0.3", "0.3", "2.3", "3.3", "3.9"))
    with mp.workdps(25):
        levin = checks._hyp3f2_unit_levin(a1, a2, a3, b1, b2)
        direct = mp.hyp3f2(a1, a2, a3, b1, b2, 1)
        assert abs(levin / direct - 1) < 1e-19
