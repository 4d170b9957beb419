"""Command-line interface: single-value queries, reference-table emission,
oracle cross-checks, and limit verification.

The program, ``main()`` (the ``diracpol`` script and ``python -m
diracpol.cli``), computes every other row of ``table`` in one forked child
when the process may use two CPUs or more; the output, stderr and exit code
are those of the serial run.  Any failure of the split, a failing row
included, reruns the serial table, which gives the error; a failing table
costs up to one extra serial table.  ``run()``, the in-process entry,
computes every row in the calling process.

Exit codes: 0 success, 2 argument errors (an unwritable --output path and a
non-finite JSON value among them), 3 supercritical, 4 series convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .atom import ALPHA_INV_CODATA2014, ALPHA_INV_SIGMA_CODATA2014, AtomSpec, ChannelIndex, SupercriticalError
from .polarizability import (
    nonrel_limit,
    polarizability_planar,
    polarizability_spatial,
    quasirel_coefficient,
    r_channel_closed,
)
from .specfun import ConvergenceError

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_SUPERCRITICAL = 3
_EXIT_CONVERGENCE = 4


def _fmt(x: float) -> str:
    return f"{x:.15g}"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracpol",
        description=(
            "Ground-state static dipole polarizabilities of relativistic "
            "hydrogen-like atoms (planar and spatial)."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="output format (csv applies to the table command only)",
    )
    common.add_argument("--output", default=None, help="output file (default: stdout)")
    coupled = argparse.ArgumentParser(add_help=False, parents=[common])
    coupled.add_argument(
        "--alpha-inv",
        type=float,
        default=ALPHA_INV_CODATA2014,
        help=f"inverse fine-structure constant (default: {ALPHA_INV_CODATA2014})",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_planar = sub.add_parser("planar", parents=[coupled], help="planar (2D) polarizability at one charge")
    p_planar.add_argument("--Z", type=float, required=True, help="nuclear charge")

    p_spatial = sub.add_parser("spatial", parents=[coupled], help="spatial (3D) polarizability at one charge")
    p_spatial.add_argument("--Z", type=float, required=True, help="nuclear charge")

    p_table = sub.add_parser("table", parents=[coupled], help="scaled-polarizability table over a charge range")
    p_table.add_argument("--z-min", type=int, default=1)
    p_table.add_argument("--z-max", type=int, default=68)
    p_table.add_argument(
        "--alpha-inv-sigma",
        type=float,
        default=ALPHA_INV_SIGMA_CODATA2014,
        help="one-standard-deviation uncertainty of alpha_inv",
    )

    p_cross = sub.add_parser(
        "crosscheck",
        parents=[coupled],
        help="closed form vs Sturmian series vs quadrature at one charge",
    )
    p_cross.add_argument("--Z", type=float, required=True, help="nuclear charge")
    p_cross.add_argument(
        "--tol", type=float, default=1e-10, help="relative tolerance of the Sturmian series"
    )

    sub.add_parser("limits", parents=[common], help="nonrelativistic and quasi-relativistic reference limits")
    return parser


def _emit(document: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(document)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(document)


def _json_document(payload: dict) -> str:
    import json  # only the JSON format needs it

    # Refuse inf and nan, which JSON cannot spell, rather than print Infinity.
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _reldev(a: float, b: float, floor: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def _run_single(args: argparse.Namespace) -> str:
    dimension = args.command
    spec = AtomSpec(args.Z, dimension, args.alpha_inv)
    compute = polarizability_planar if dimension == "planar" else polarizability_spatial
    result = compute(spec)
    diag = result.diagnostics
    if args.format == "json":
        payload = {
            "command": dimension,
            "Z": args.Z,
            "alpha_inv": args.alpha_inv,
            "alpha_1_a0^3": result.value_a0_cubed,
            "Z^4*alpha_1_a0^3": result.scaled_Z4,
            "method": result.method,
            "terms_used": diag.terms_used,
            "tail_estimate": diag.tail_estimate,
        }
        return _json_document(payload)
    lines = [
        f"Z = {_fmt(args.Z)}",
        f"alpha_inv = {_fmt(args.alpha_inv)}",
        f"alpha_1 = {_fmt(result.value_a0_cubed)} a0^3",
        f"Z^4*alpha_1 = {_fmt(result.scaled_Z4)} a0^3",
        f"series: terms = {diag.terms_used}, tail <= {diag.tail_estimate:.2e}",
    ]
    return "\n".join(lines) + "\n"


# Each command imports what only it uses: the table layer, the oracle and
# json stay out of the closed-form commands' start-up.
def _run_table(args: argparse.Namespace, split: bool) -> str:
    from .tablegen import ConstantSet, _split_table, generate_table, rows_to_csv, rows_to_json

    consts = ConstantSet(args.alpha_inv, args.alpha_inv_sigma)
    rows = (_split_table if split else generate_table)(args.z_min, args.z_max, consts)
    if args.format == "csv":
        return rows_to_csv(rows)
    if args.format == "json":
        return rows_to_json(rows)
    lines = [f"{'Z':>3}  {'Z^4*alpha_1 (a0^3)':<22} uncertainty"]
    lines.extend(f"{row.Z:>3}  {row.display:<22} ({row.sigma_last_two})" for row in rows)
    return "\n".join(lines) + "\n"


def _run_crosscheck(args: argparse.Namespace) -> str:
    from .sturmian import SERIES_TOL_FLOOR, channel_first_order_integrals, polarizability_sturmian, r_channel_series

    spec = AtomSpec(args.Z, "planar", args.alpha_inv)
    channels = (ChannelIndex(0.5), ChannelIndex(-1.5))
    # Every closed value before any series, alpha_1 right after R_{-3/2}:
    # they share one 3F2, which hyp3f2_unit then reads back from its memo.
    closed_values = [r_channel_closed(ch, spec) for ch in channels]
    closed_alpha = polarizability_planar(spec)
    report = {}
    for ch, closed in zip(channels, closed_values):
        series, diag = r_channel_series(ch, spec, args.tol)
        pairs = channel_first_order_integrals(ch, spec, 3)
        # Exactly-zero integrals are compared on the scale of the channel's
        # largest integral; quadrature returns rounding noise for them.
        scale = max(
            max(abs(exact.plain), abs(exact.mu_weighted)) for exact, _ in pairs
        )
        quad_dev = 0.0
        for exact, quad in pairs:
            quad_dev = max(
                quad_dev,
                _reldev(exact.plain, quad.plain, scale),
                _reldev(exact.mu_weighted, quad.mu_weighted, scale),
            )
        report[ch.kappa] = {
            "closed": closed,
            "series": series,
            "series_terms": diag.terms_used,
            "closed_vs_series": _reldev(closed, series, 1e-300),
            "quadrature_max_dev": quad_dev,
        }
    series_alpha = polarizability_sturmian(spec, args.tol)
    # Report the tolerance the series used: it has validated args.tol by now
    # and clamps it to its floor.
    tol = max(args.tol, SERIES_TOL_FLOOR)
    alpha_dev = _reldev(closed_alpha.value_a0_cubed, series_alpha.value_a0_cubed, 1e-300)
    if args.format == "json":
        payload = {
            "Z": args.Z,
            "alpha_inv": args.alpha_inv,
            "tol": tol,
            "channels": {
                str(kappa): entry for kappa, entry in report.items()
            },
            "alpha_1_closed": closed_alpha.value_a0_cubed,
            "alpha_1_series": series_alpha.value_a0_cubed,
            "alpha_1_rel_dev": alpha_dev,
        }
        return _json_document(payload)
    lines = [f"Z = {_fmt(args.Z)}, alpha_inv = {_fmt(args.alpha_inv)}, tol = {tol:g}"]
    for kappa, entry in report.items():
        lines.append(
            f"channel kappa = {kappa:+g}: closed = {_fmt(entry['closed'])}, "
            f"series = {_fmt(entry['series'])} ({entry['series_terms']} terms), "
            f"rel dev = {entry['closed_vs_series']:.3e}"
        )
        lines.append(
            f"  closed integrals vs quadrature (|n_r| <= 3): max rel dev = "
            f"{entry['quadrature_max_dev']:.3e}"
        )
    lines.append(
        f"alpha_1: closed = {_fmt(closed_alpha.value_a0_cubed)} a0^3, "
        f"series = {_fmt(series_alpha.value_a0_cubed)} a0^3, rel dev = {alpha_dev:.3e}"
    )
    return "\n".join(lines) + "\n"


def _run_limits(args: argparse.Namespace) -> str:
    # The closed forms recover the nonrelativistic limits at alpha_inv = inf,
    # where gamma = |kappa| exactly and the 3F2 is its leading 1.
    planar_nr = polarizability_planar(AtomSpec(1.0, "planar", math.inf)).scaled_Z4
    spatial_nr = polarizability_spatial(AtomSpec(1.0, "spatial", math.inf)).scaled_Z4
    planar_c = quasirel_coefficient("planar")
    spatial_c = quasirel_coefficient("spatial")
    if args.format == "json":
        payload = {
            "planar_nonrel_scaled": planar_nr,
            "planar_nonrel_target": "21/128",
            "spatial_nonrel_scaled": spatial_nr,
            "spatial_nonrel_target": "9/2",
            "planar_quasirel_coefficient": planar_c,
            "planar_quasirel_target": -3.5,
            "spatial_quasirel_coefficient": spatial_c,
            "spatial_quasirel_target": -28.0 / 27.0,
        }
        return _json_document(payload)
    lines = [
        f"planar nonrelativistic Z^4*alpha_1 = {_fmt(planar_nr)} a0^3 "
        f"(target 21/128 = {_fmt(nonrel_limit('planar'))})",
        f"spatial nonrelativistic Z^4*alpha_1 = {_fmt(spatial_nr)} a0^3 "
        f"(target 9/2 = {_fmt(nonrel_limit('spatial'))})",
        f"planar quasi-relativistic coefficient = {planar_c:.9f} (target -7/2 = -3.5)",
        f"spatial quasi-relativistic coefficient = {spatial_c:.9f} "
        f"(target -28/27 = {-28.0 / 27.0:.9f})",
    ]
    return "\n".join(lines) + "\n"


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, execute one command in this process, and return the
    exit code."""
    return _run(argv, False)


def _run(argv: list[str] | None, split: bool) -> int:
    """``run``, with the rows of ``table`` split with a forked child if
    ``split`` is true."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.format == "csv" and args.command != "table":
            parser.error("csv output is only defined for the table command")

        if args.command in ("planar", "spatial"):
            document = _run_single(args)
        elif args.command == "table":
            document = _run_table(args, split)
        elif args.command == "crosscheck":
            document = _run_crosscheck(args)
        else:
            document = _run_limits(args)
    except SupercriticalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SUPERCRITICAL
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONVERGENCE
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE

    try:
        _emit(document, args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return _EXIT_OK


def main() -> None:
    sys.exit(_run(sys.argv[1:], True))


if __name__ == "__main__":
    main()
