"""Tests of table generation: uncertainty propagation, the two-uncertain-
digit display convention, serialization determinism."""

import json
import math
import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

import hypothesis
import pytest
from hypothesis import strategies as st

from diracpol.atom import ALPHA_INV_CODATA2014, ALPHA_INV_SIGMA_CODATA2014, SupercriticalError
from diracpol.tablegen import (
    CSV_HEADER,
    ConstantSet,
    PropagationError,
    _scaled_at,
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

    @pytest.mark.parametrize(
        "sigma, error, shown",
        [
            # (alpha_inv - 2.0) / 2 = 67.5179995695 < 68
            (2e-4, SupercriticalError, "(alpha_inv - step)/2 = 67.5179995695"),
            (1e300, ValueError, "to -1.0000000000000001e+304"),
        ],
    )
    def test_step_that_leaves_the_domain_names_sigma(self, sigma, error, shown):
        consts = ConstantSet(alpha_inv_sigma=sigma)
        with pytest.raises(error) as info:
            propagate_uncertainty(68, consts)
        message = str(info.value)
        assert f"1e4 * alpha_inv_sigma = {1e4 * sigma!r} (alpha_inv_sigma = {sigma!r})" in message
        assert shown in message
        assert "alpha_inv must be positive" not in message

    @pytest.mark.parametrize(
        "alpha_inv, sigma",
        [
            (ALPHA_INV_CODATA2014, 1e-19),  # lost on both sides
            (128.0, 1e-18),  # 128 - h is the double below; 128 + h rounds back to 128
        ],
    )
    def test_step_lost_in_rounding_names_sigma(self, alpha_inv, sigma):
        # The central difference would read 0 and the row a zero uncertainty.
        consts = ConstantSet(alpha_inv, sigma)
        h = 1e4 * sigma
        assert alpha_inv + h == alpha_inv or alpha_inv - h == alpha_inv
        with pytest.raises(ValueError) as info:
            propagate_uncertainty(26, consts)
        message = str(info.value)
        assert f"1e4 * alpha_inv_sigma = {h!r} (alpha_inv_sigma = {sigma!r})" in message
        assert f"is lost in rounding: alpha_inv = {alpha_inv!r}" in message
        with pytest.raises(ValueError, match="is lost in rounding"):
            generate_table(26, 26, consts)

    def test_a_difference_at_the_rounding_floor_is_no_uncertainty(self):
        # At alpha_inv = 1e6 the two sides of Z = 1 and Z = 3 differ by a
        # few ulp of the centre, which would read a sigma below 1e-3 ulp of
        # the value; Z = 2 and Z = 4 differ by exactly 0.  All four resolve
        # no derivative and propagate no uncertainty.
        consts = ConstantSet(alpha_inv=1e6)
        h = 1e4 * consts.alpha_inv_sigma
        differences = [
            _scaled_at(z, consts.alpha_inv + h) - _scaled_at(z, consts.alpha_inv - h) for z in range(1, 5)
        ]
        assert [d != 0.0 for d in differences] == [True, False, True, False]
        assert all(abs(d) <= 16.0 * math.ulp(_scaled_at(z, 1e6)) for z, d in enumerate(differences, 1))
        assert [propagate_uncertainty(z, consts) for z in range(1, 5)] == [0.0] * 4

    def test_infinite_alpha_inv_keeps_a_zero_uncertainty(self):
        # At alpha_inv = inf every step leaves the constant where it is, and
        # the nonrelativistic value has no alpha_inv dependence to propagate.
        for sigma in (1e-19, ALPHA_INV_SIGMA_CODATA2014):
            assert propagate_uncertainty(26, ConstantSet(math.inf, sigma)) == 0.0


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
            expected = _format_from_one_decimal(value, sigma)
            if expected[2] >= 100:  # three or more uncertain digits
                with pytest.raises(ValueError, match="too large"):
                    format_scaled(value, sigma)
            else:
                assert format_scaled(value, sigma) == expected, sigma

    def test_more_digits_than_the_default_decimal_context(self):
        # 31 significant digits: the default 28-digit context cannot hold
        # the quantized value.
        assert format_scaled(0.5, 1e-29) == ("0." + "5" + "0" * 29, 30, 10)
        assert format_scaled(1e13, 0.0) == ("10000000000000." + "0" * 16, 16, 0)

    @pytest.mark.parametrize("sigma", [-1e-3, math.nan, math.inf])
    def test_rejects_negative_and_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite non-negative uncertainty"):
            format_scaled(0.5, sigma)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_value(self, value):
        with pytest.raises(ValueError, match="finite value"):
            format_scaled(value, 1e-9)
        with pytest.raises(ValueError, match="finite value"):
            format_scaled(value, 0.0)

    def test_too_large_sigma_raises(self):
        # From 9.95 on, one decimal already shows 100 units or more; 1e27
        # once overflowed the 28-digit Decimal context instead.
        assert format_scaled(0.5, 9.9) == ("0.5", 1, 99)
        for sigma in (9.95 + 2e-15, 12.0, 1e27, 1e308):
            with pytest.raises(ValueError, match="too large"):
                format_scaled(0.5, sigma)

    def test_too_small_sigma_raises(self):
        for sigma in (1e-41, 5e-324):
            with pytest.raises(ValueError, match="too small"):
                format_scaled(0.5, sigma)

    def test_small_values_show_every_decimal(self):
        # str(Decimal) switched to an exponent below 1e-6, which showed
        # fewer decimals than the count returned.
        assert format_scaled(2.5e-7, 1e-9) == ("0.0000002500", 10, 10)
        assert format_scaled(1e-7, 0.0) == ("0.0000001000000000", 16, 0)
        assert format_scaled(-1e-20, 1e-9) == ("-0.0000000000", 10, 10)

    @hypothesis.settings(max_examples=3000, derandomize=True, database=None, deadline=None)
    @hypothesis.given(
        value=st.one_of(
            st.floats(-3.0, 3.0),
            st.integers(-(10**6), 10**6).map(lambda n: n / 1024.0),  # binary ties
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        sigma=st.one_of(
            st.floats(0.0, 20.0),
            st.builds(
                lambda m, k, step: step(m * 10.0**k),
                st.sampled_from([9.5, 0.95, 0.5, 5.0, 1.0, 9.95]),
                st.integers(-40, 1),
                st.sampled_from(
                    [lambda x: x, lambda x: math.nextafter(x, 0.0), lambda x: math.nextafter(x, math.inf)]
                ),
            ),
            st.floats(),
        ),
    )
    def test_matches_the_decimal_rendering(self, value, sigma):
        # Same digits, units and errors as rounding the exact doubles with
        # Decimal; the same display wherever str(Decimal) shows no exponent,
        # and the same number where it does.
        try:
            expected = _decimal_format_scaled(value, sigma)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                format_scaled(value, sigma)
            assert str(raised.value) == str(exc)
            return
        display, digits, units = format_scaled(value, sigma)
        assert (digits, units) == expected[1:]
        if "E" in expected[0]:
            assert "E" not in display and "e" not in display
            assert float(display) == float(expected[0])
        else:
            assert display == expected[0]


def _format_from_one_decimal(value: float, sigma: float) -> tuple[str, int, int]:
    """format_scaled's digit search as it was: every decimal count from 1."""
    for digits in range(1, 40):
        units = int(Decimal(sigma).scaleb(digits).quantize(Decimal(1), rounding=ROUND_HALF_EVEN))
        if units >= 10:
            quantum = Decimal(1).scaleb(-digits)
            return str(Decimal(value).quantize(quantum, rounding=ROUND_HALF_EVEN)), digits, units
    raise ValueError(f"uncertainty {sigma!r} too small to display two digits")


def _decimal_format_scaled(value: float, sigma: float) -> tuple[str, int, int]:
    """format_scaled as it was, rounding through Decimal: the reference for
    fixed-point formatting."""

    def quantized(digits):
        exact = Decimal(value)
        with localcontext() as ctx:
            ctx.prec = max(ctx.prec, exact.adjusted() + digits + 2)
            return str(exact.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN))

    if sigma == 0.0:
        return quantized(16), 16, 0
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"format_scaled needs a finite non-negative uncertainty, got {sigma!r}")
    if Decimal(sigma).scaleb(1) >= Decimal("99.5"):
        raise ValueError(f"uncertainty {sigma!r} too large to display two digits")
    first = max(1, math.floor(math.log10(0.5) - math.log10(sigma)))
    for digits in range(first, 40):
        units = int(Decimal(sigma).scaleb(digits).quantize(Decimal(1), rounding=ROUND_HALF_EVEN))
        if units >= 10:
            return quantized(digits), digits, units
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
