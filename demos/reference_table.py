"""Reproduce the 68-row reference table of scaled planar polarizabilities
with propagated uncertainties, and write it as CSV and JSON.

Usage: python demos/reference_table.py [OUTPUT_DIR]

The two files go to OUTPUT_DIR, by default the directory of this script.

Each displayed value carries exactly two uncertain digits; the
parenthesized integer is the one-standard-deviation uncertainty in those
digits, inherited from the inverse fine-structure constant.
"""

import pathlib
import sys

from diracpol import ConstantSet, generate_table, rows_to_csv, rows_to_json


def main(out_dir: pathlib.Path) -> None:
    consts = ConstantSet()  # CODATA 2014 with sigma(alpha_inv) = 3.1e-8
    rows = generate_table(1, 68, consts)

    print("selected rows:")
    print(f"  {'Z':>3}  {'Z^4*alpha_1 (a0^3)':<22} uncertainty")
    for row in rows:
        if row.Z in (1, 8, 26, 47, 68):
            print(f"  {row.Z:>3}  {row.display:<22} ({row.sigma_last_two})")

    csv_path = out_dir / "scaled_polarizabilities.csv"
    json_path = out_dir / "scaled_polarizabilities.json"
    csv_path.write_text(rows_to_csv(rows))
    json_path.write_text(rows_to_json(rows))
    print()
    print(f"wrote {csv_path.name} and {json_path.name} to {out_dir}")

    print()
    print("display convention in action: the decimal count per row is the")
    print("smallest at which the uncertainty reads as a two-digit integer,")
    print("so rows lose displayed digits as Z grows:")
    for row in rows:
        if row.Z in (1, 30, 68):
            print(
                f"  Z={row.Z:>2}: sigma = {row.sigma_abs:.2e} a0^3 "
                f"-> {row.digits} decimals, ({row.sigma_last_two})"
            )


if __name__ == "__main__":
    here = pathlib.Path(__file__).resolve().parent
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else here)
