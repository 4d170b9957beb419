"""Tests of the closed-form polarizabilities: channel integrals, the
two-hypergeometric reduction, planar and spatial values, nonrelativistic
limits, and quasi-relativistic coefficients."""

import math
import typing
from fractions import Fraction

import pytest

from diracpol.atom import ALPHA_INV_CODATA2014, AtomSpec, ChannelIndex, gamma_half, gamma_kappa
from diracpol.polarizability import (
    ExtrapolationError,
    Method,
    _neville_at_zero,
    _reduced_bracket,
    nonrel_limit,
    polarizability_planar,
    polarizability_spatial,
    polarizability_sturmian,
    quasirel_coefficient,
    r_channel_closed,
    r_channel_two_term,
    second_order_energy,
)
from tests.table_data import reference_tolerance, reference_value

# Weak-coupling surrogate: a huge inverse fine-structure constant drives

# every relativistic correction below rounding.
NR_SURROGATE = 1e9


def reduced_channel(ch, spec, tol=1e-16):
    """R_kappa of either dipole channel through the shared 3F2 bracket; for
    kappa = 1/2 the exponents coincide (gamma' = gamma) and the series
    truncates, so this is the generic route the elementary form replaces."""
    kappa = ch.kappa
    g = gamma_half(spec)
    gk = gamma_kappa(spec, ch)
    bracket, _ = _reduced_bracket(
        g, gk, 4.0, ((2.0 * kappa + 1.0) * g + 2.0) ** 2, 1.0, tol
    )
    prefactor = -(g + 1.0) * (2.0 * g + 1.0) * (2.0 * g + 3.0) / (
        32.0 * spec.Z**4 * (2.0 * kappa + 1.0)
    )
    return prefactor * bracket


class TestChannelClosed:
    def test_half_channel_weak_coupling(self):
        spec = AtomSpec(1.0, "planar", NR_SURROGATE)
        scaled = r_channel_closed(ChannelIndex(0.5), spec) * spec.Z**4
        assert scaled == pytest.approx(21.0 / 128.0, abs=1e-12)

    def test_m32_channel_weak_coupling(self):
        spec = AtomSpec(1.0, "planar", NR_SURROGATE)
        scaled = r_channel_closed(ChannelIndex(-1.5), spec) * spec.Z**4
        assert scaled == pytest.approx(21.0 / 128.0, abs=1e-12)

    @pytest.mark.parametrize("z", [1.0, 26.0, 68.0])
    def test_half_channel_generic_route_agrees(self, z):
        spec = AtomSpec(z, "planar")
        elementary = r_channel_closed(ChannelIndex(0.5), spec)
        generic = reduced_channel(ChannelIndex(0.5), spec)
        assert generic == pytest.approx(elementary, rel=1e-14)

    @pytest.mark.parametrize("z", [1e-3, 26.0, 68.5])
    def test_m32_channel_is_the_shared_bracket(self, z):
        # The test route above reproduces the production kappa = -3/2 value
        # bit for bit, so it exercises the same kernel and prefactor.
        spec = AtomSpec(z, "planar")
        ch = ChannelIndex(-1.5)
        assert reduced_channel(ch, spec) == r_channel_closed(ch, spec)

    def test_m32_against_sturmian_series(self):
        from diracpol.sturmian import r_channel_series

        spec = AtomSpec(26.0, "planar")
        closed = r_channel_closed(ChannelIndex(-1.5), spec)
        series, _ = r_channel_series(ChannelIndex(-1.5), spec, 1e-12)
        assert abs(closed - series) / abs(closed) <= 1e-10

    def test_rejects_other_channels(self):
        spec = AtomSpec(26.0, "planar")
        with pytest.raises(ValueError, match="dipole channels are kappa = 1/2 and -3/2"):
            r_channel_closed(ChannelIndex(1.5), spec)
        with pytest.raises(ValueError, match="dipole channels are kappa = 1/2 and -3/2"):
            r_channel_two_term(ChannelIndex(1.5), spec)


class TestTwoTermReduction:
    @pytest.mark.parametrize("z", [1.0, 26.0, 68.0])
    @pytest.mark.parametrize("kappa", [0.5, -1.5])
    def test_matches_reduced_form(self, z, kappa):
        # The unreduced two-hypergeometric representation and the reduced
        # single-hypergeometric one describe the same channel integral.
        spec = AtomSpec(z, "planar")
        ch = ChannelIndex(kappa)
        reduced = reduced_channel(ch, spec, 1e-16)
        unreduced = r_channel_two_term(ch, spec, 1e-16)
        assert abs(unreduced - reduced) / abs(reduced) <= 1e-12


class TestPinnedValues:
    # float.hex pins of the closed forms: the reference table and the other
    # tests tolerate a changed last bit, these catch any reordering of the
    # floating-point operations.
    @pytest.mark.parametrize(
        "z, expected",
        [
            (1.0, "0x1.1ffbedb1faa0fp+2"),
            (92.0, "0x1.40d78253368ddp+1"),
            (136.0, "0x1.50668f03f4579p-2"),
        ],
    )
    def test_spatial(self, z, expected):
        assert polarizability_spatial(AtomSpec(z, "spatial")).scaled_Z4.hex() == expected

    @pytest.mark.parametrize(
        "z, half, m32",
        [
            (1e-3, "0x1.319718a3d7c9fp+37", "0x1.319718a43ef6bp+37"),
            (26.0, "0x1.479c06c3b98a7p-22", "0x1.5ad2bbced7423p-22"),
            (68.5, "0x1.75788572a5c5ep-35", "0x1.1ff4ddf4bb55ap-30"),
        ],
    )
    def test_channels(self, z, half, m32):
        spec = AtomSpec(z, "planar")
        assert r_channel_closed(ChannelIndex(0.5), spec).hex() == half
        assert r_channel_closed(ChannelIndex(-1.5), spec).hex() == m32

    @pytest.mark.parametrize(
        "z, alpha_inv, expected",
        [
            (12.3456, ALPHA_INV_CODATA2014, "0x1.4677fb6469aeep-3"),
            (68.5, ALPHA_INV_CODATA2014, "0x1.8935a3083ffeep-7"),
            (1.0, NR_SURROGATE, "0x1.5000000000000p-3"),
            (3.7e5, NR_SURROGATE, "0x1.4ffff572f6555p-3"),
        ],
    )
    def test_planar(self, z, alpha_inv, expected):
        spec = AtomSpec(z, "planar", alpha_inv)
        assert polarizability_planar(spec).scaled_Z4.hex() == expected


class TestSecondOrderEnergy:
    def test_vanishes_without_field(self):
        assert second_order_energy(AtomSpec(30.0, "planar"), 0.0) == 0.0

    def test_consistency_with_polarizability(self):
        spec = AtomSpec(30.0, "planar")
        field = 1e-3
        shift = second_order_energy(spec, field)
        alpha = polarizability_planar(spec).value_a0_cubed
        assert -2.0 * shift / field**2 == pytest.approx(alpha, rel=1e-14)

    def test_weak_coupling_unit_field(self):
        spec = AtomSpec(1.0, "planar", NR_SURROGATE)
        assert second_order_energy(spec, 1.0) == pytest.approx(-21.0 / 256.0, abs=1e-12)


class TestPlanarPolarizability:
    @pytest.mark.parametrize("z", [1, 50, 68])
    def test_reference_anchors(self, z):
        result = polarizability_planar(AtomSpec(float(z), "planar"))
        assert abs(result.scaled_Z4 - reference_value(z)) <= reference_tolerance(z)

    def test_scaled_value_consistency(self):
        result = polarizability_planar(AtomSpec(26.0, "planar"))
        assert result.scaled_Z4 == pytest.approx(
            result.value_a0_cubed * 26.0**4, rel=1e-15
        )
        assert result.method == "closed_form"
        assert result.diagnostics.tail_estimate <= 1e-16

    def test_channel_sum_consistency(self):
        # The direct expression equals the mean of the two channel
        # integrals for every tabulated charge.
        for z in range(1, 69):
            spec = AtomSpec(float(z), "planar")
            direct = polarizability_planar(spec).value_a0_cubed
            channel_mean = 0.5 * (
                r_channel_closed(ChannelIndex(0.5), spec)
                + r_channel_closed(ChannelIndex(-1.5), spec)
            )
            assert abs(direct - channel_mean) / direct <= 1e-14, f"Z={z}"

    def test_bounds_and_monotonicity(self):
        previous = math.inf
        for z in range(1, 69):
            scaled = polarizability_planar(AtomSpec(float(z), "planar")).scaled_Z4
            assert 0.0 < scaled < 21.0 / 128.0
            assert scaled < previous
            previous = scaled

    def test_rejects_spatial_spec(self):
        # A spatial spec would also fail later, in gamma_kappa; matching the
        # message pins that each function's own check raises first.
        with pytest.raises(ValueError, match="polarizability_planar needs a planar spec"):
            polarizability_planar(AtomSpec(1.0, "spatial"))
        with pytest.raises(ValueError, match="polarizability_sturmian needs a planar spec"):
            polarizability_sturmian(AtomSpec(1.0, "spatial"))

    def test_sturmian_route_result(self):
        spec = AtomSpec(10.0, "planar")
        closed = polarizability_planar(spec)
        oracle = polarizability_sturmian(spec, 1e-12)
        assert oracle.method == "sturmian_series"
        assert oracle.value_a0_cubed == pytest.approx(closed.value_a0_cubed, rel=1e-10)

    def test_every_method_is_returned_by_a_route(self):
        # Method names exactly the routes that produce a result.
        spec = AtomSpec(10.0, "planar")
        returned = {
            polarizability_planar(spec).method,
            polarizability_spatial(AtomSpec(10.0, "spatial")).method,
            polarizability_sturmian(spec).method,
        }
        assert returned == set(typing.get_args(Method))


class TestSpatialPolarizability:
    def test_weak_coupling_limit(self):
        result = polarizability_spatial(AtomSpec(1e-3, "spatial"))
        assert result.scaled_Z4 == pytest.approx(4.5, abs=1e-9)

    def test_hydrogen_against_quasirel_estimate(self):
        # alpha_1(Z=1) agrees with 4.5 (1 - (28/27) alpha^2) up to the
        # neglected (alpha Z)^4 term, about 1.3e-8 here.
        result = polarizability_spatial(AtomSpec(1.0, "spatial"))
        estimate = 4.5 * (1.0 - (28.0 / 27.0) / ALPHA_INV_CODATA2014**2)
        assert abs(result.value_a0_cubed - estimate) <= 1.3e-8

    def test_strong_coupling_positive(self):
        spec = AtomSpec(0.5 * ALPHA_INV_CODATA2014, "spatial")
        result = polarizability_spatial(spec)
        assert result.scaled_Z4 > 0.0
        g1 = math.sqrt(1.0 - 0.25)
        prefactor = (g1 + 1.0) * (2.0 * g1 + 1.0) * (4.0 * g1**2 + 13.0 * g1 + 12.0) / 36.0
        brace = result.scaled_Z4 / prefactor
        assert 0.0 < brace < 1.0

    def test_monotone_in_charge(self):
        charges = [1.0, 20.0, 50.0, 80.0, 110.0, 130.0]
        values = [
            polarizability_spatial(AtomSpec(z, "spatial")).scaled_Z4 for z in charges
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_planar_spec(self):
        with pytest.raises(ValueError, match="polarizability_spatial needs a spatial spec"):
            polarizability_spatial(AtomSpec(1.0, "planar"))


class TestNonrelLimit:
    def test_planar_value(self):
        assert nonrel_limit("planar") == 0.1640625
        assert Fraction(nonrel_limit("planar")) == Fraction(21, 128)

    def test_spatial_value(self):
        assert nonrel_limit("spatial") == 4.5
        assert Fraction(nonrel_limit("spatial")) == Fraction(9, 2)

    def test_unknown_dimension(self):
        with pytest.raises(ValueError):
            nonrel_limit("volumetric")


class TestQuasirelCoefficient:
    def test_planar_coefficient(self):
        assert quasirel_coefficient("planar") == pytest.approx(-3.5, abs=1e-6)

    def test_spatial_coefficient(self):
        assert quasirel_coefficient("spatial") == pytest.approx(-28.0 / 27.0, abs=1e-6)

    def test_extrapolator_reproduces_constants(self):
        xs = [0.1, 0.05, 0.025]
        assert _neville_at_zero(xs, [0.0, 0.0, 0.0])[-1] == 0.0
        assert _neville_at_zero(xs, [2.5, 2.5, 2.5])[-1] == pytest.approx(2.5, rel=1e-15)

    def test_non_quadratic_samples_raise(self):
        with pytest.raises(ExtrapolationError):
            quasirel_coefficient("planar", z_values=(68.0, 67.0, 66.0, 65.0, 64.0))
