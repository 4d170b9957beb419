"""Tests of table generation: uncertainty propagation, the two-uncertain-
digit display convention, serialization determinism."""

import json
import math
import random
from decimal import ROUND_HALF_EVEN, Decimal

import pytest

from diracpol.tablegen import (
    CSV_HEADER,
    ConstantSet,
    PropagationError,
    format_scaled,
    generate_table,
    propagate_uncertainty,
    rows_to_csv,
    rows_to_json,
)
from tests.table_data import REFERENCE_SCALED, reference_decimals


class TestPropagateUncertainty:
    def test_hydrogen_value(self):
        sigma = propagate_uncertainty(1)
        assert sigma == pytest.approx(1.4e-14, rel=0.05)

    def test_zero_sigma_constant_set(self):
        consts = ConstantSet(alpha_inv_sigma=0.0)
        assert propagate_uncertainty(1, consts) == 0.0

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="alpha_inv_sigma must be finite"):
            ConstantSet(alpha_inv_sigma=sigma)

    @pytest.mark.parametrize(
        "z, display, units",
        [(1, "0.164031922357129", 14), (24, "0.1465407746157", 79), (68, "0.01833185081", 13)],
    )
    def test_display_examples(self, z, display, units):
        rows = generate_table(z, z)
        assert rows[0].display == display
        assert rows[0].sigma_last_two == units

    def test_oversized_step_raises(self):
        # A step comparable to the distance from criticality leaves the
        # linear regime and must fail the curvature check.
        consts = ConstantSet(alpha_inv_sigma=1e-4)  # step becomes 1.0
        with pytest.raises(PropagationError):
            propagate_uncertainty(68, consts)


class TestFormatScaled:
    def test_two_uncertain_digits(self):
        display, digits, units = format_scaled(0.164031922357129, 1.4e-14)
        assert (display, digits, units) == ("0.164031922357129", 15, 14)

    def test_digit_count_tracks_sigma(self):
        # sigma = 9.4e-10 shows a single digit at 10 decimals, so the
        # convention moves to 11 decimals where it reads 94.
        display, digits, units = format_scaled(0.12345678901234, 9.4e-10)
        assert digits == 11
        assert units == 94
        assert display == "0.12345678901"

    def test_round_half_even(self):
        # 0.125 and 0.375 are exact binary ties at two decimals.
        display, digits, _ = format_scaled(0.125, 0.1)
        assert (digits, display) == (2, "0.12")
        display, _, _ = format_scaled(0.375, 0.1)
        assert display == "0.38"

    def test_zero_sigma_full_precision(self):
        display, digits, units = format_scaled(0.5, 0.0)
        assert units == 0
        assert float(display) == 0.5

    def test_matches_a_search_from_one_decimal(self):
        # The search starts at the first decimal count that can reach ten
        # units; the result must be that of searching from 1 on, for random
        # uncertainties and at the 9.5, 0.95 and 0.5 boundaries of a decade.
        rng = random.Random(29)
        sigmas = [rng.uniform(0.5, 10.0) * 10.0 ** rng.randint(-25, 2) for _ in range(5000)]
        for k in range(-25, 3):
            for mantissa in (9.5, 0.95, 0.5, 5.0, 1.0):
                x = mantissa * 10.0**k
                sigmas += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
        for sigma in sigmas:
            value = rng.uniform(-3.0, 3.0)
            assert format_scaled(value, sigma) == _format_from_one_decimal(value, sigma), sigma

    def test_more_digits_than_the_default_decimal_context(self):
        # 31 significant digits: the default 28-digit context cannot hold
        # the quantized value.
        assert format_scaled(0.5, 1e-29) == ("0." + "5" + "0" * 29, 30, 10)
        assert format_scaled(1e13, 0.0) == ("10000000000000." + "0" * 16, 16, 0)

    @pytest.mark.parametrize("sigma", [-1e-3, math.nan, math.inf])
    def test_rejects_negative_and_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite non-negative uncertainty"):
            format_scaled(0.5, sigma)

    def test_too_small_sigma_raises(self):
        for sigma in (1e-41, 5e-324):
            with pytest.raises(ValueError, match="too small"):
                format_scaled(0.5, sigma)


def _format_from_one_decimal(value: float, sigma: float) -> tuple[str, int, int]:
    """format_scaled's digit search as it was: every decimal count from 1."""
    for digits in range(1, 40):
        units = int(Decimal(sigma).scaleb(digits).quantize(Decimal(1), rounding=ROUND_HALF_EVEN))
        if units >= 10:
            quantum = Decimal(1).scaleb(-digits)
            return str(Decimal(value).quantize(quantum, rounding=ROUND_HALF_EVEN)), digits, units
    raise ValueError(f"uncertainty {sigma!r} too small to display two digits")


class TestGenerateTable:
    def test_bad_range(self):
        with pytest.raises(ValueError):
            generate_table(0, 5)
        with pytest.raises(ValueError):
            generate_table(10, 5)

    def test_reference_row_26(self):
        row = generate_table(26, 26)[0]
        assert row.display == "0.1435165934310"
        assert row.sigma_last_two == 92

    def test_reference_row_5(self):
        row = generate_table(5, 5)[0]
        assert row.display == "0.16329822873023"

    def test_weak_coupling_surrogate(self):
        consts = ConstantSet(alpha_inv=1e9, alpha_inv_sigma=0.0)
        row = generate_table(1, 1, consts)[0]
        assert abs(row.scaled_Z4 - 0.1640625) <= 1e-12

    def test_row_fields_consistent(self):
        row = generate_table(10, 10)[0]
        assert row.Z == 10
        assert row.value_a0_cubed == pytest.approx(row.scaled_Z4 / 10.0**4, rel=1e-15)
        quantum = Decimal(1).scaleb(-row.digits)
        assert row.display == str(
            Decimal(row.scaled_Z4).quantize(quantum, rounding=ROUND_HALF_EVEN)
        )


class TestSerialization:
    def test_csv_shape(self):
        rows = generate_table(1, 3)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert lines[1].startswith("1,0.164031922357129,14,")

    def test_json_round_trip(self):
        rows = generate_table(1, 2)
        payload = json.loads(rows_to_json(rows))
        assert [entry["Z"] for entry in payload] == [1, 2]
        for entry, row in zip(payload, rows):
            assert float(entry["scaled_Z4"]) == row.scaled_Z4
            assert float(entry["polarizability_a0^3"]) == row.value_a0_cubed

    def test_deterministic_bytes(self):
        first = rows_to_csv(generate_table(1, 4))
        second = rows_to_csv(generate_table(1, 4))
        assert first.encode() == second.encode()
        assert rows_to_json(generate_table(2, 3)) == rows_to_json(generate_table(2, 3))


class TestFullReproduction:
    def test_all_rows_display_and_uncertainty(self):
        rows = generate_table(1, 68)
        for row in rows:
            ref_display, ref_units = REFERENCE_SCALED[row.Z]
            assert row.display == ref_display, f"Z={row.Z}"
            assert row.digits == reference_decimals(row.Z), f"Z={row.Z}"
            assert row.sigma_last_two == ref_units, f"Z={row.Z}"
