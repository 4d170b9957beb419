"""Tests of the closed-form polarizabilities: channel integrals, the
two-hypergeometric reduction, planar and spatial values, nonrelativistic
limits, and quasi-relativistic coefficients."""

import hashlib
import math
import random
import re
import struct
import sys
import typing
from fractions import Fraction

import hypothesis
import mpmath
import pytest
from hypothesis import strategies as st

from diracpol.atom import (
    ALPHA_INV_CODATA2014, AtomSpec, ChannelIndex, critical_charge, gamma_half, gamma_kappa,
)
from diracpol.polarizability import (
    Method,
    _reduced_bracket,
    nonrel_limit,
    polarizability_planar,
    polarizability_spatial,
    quasirel_coefficient,
    r_channel_closed,
    second_order_energy,
)
from diracpol.sturmian import polarizability_sturmian
from tests.reference import r_channel_two_term
from tests.table_data import reference_tolerance, reference_value

# Weak-coupling surrogate: a huge inverse fine-structure constant drives

# every relativistic correction below rounding.
NR_SURROGATE = 1e9


def reduced_channel(ch, spec):
    """R_kappa of either dipole channel through the shared 3F2 bracket; for
    kappa = 1/2 the exponents coincide (gamma' = gamma) and the series
    truncates, so this is the generic route the elementary form replaces."""
    kappa = ch.kappa
    g = gamma_half(spec)
    gk = gamma_kappa(spec, ch)
    bracket, _ = _reduced_bracket(
        g, gk, 4.0, ((2.0 * kappa + 1.0) * g + 2.0) ** 2, 1.0
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
        reduced = reduced_channel(ch, spec)
        unreduced = r_channel_two_term(ch, spec)
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

    def test_pinned_bits_on_a_grid(self):
        # float.hex of both values and the series diagnostics of about 600
        # seeded charges per dimension, at alpha_inv and at the table's
        # central-difference points alpha_inv -+ 3.1e-4, plus both
        # quasi-relativistic coefficients, hashed.  The hash was taken before
        # the 3F2 terms were summed outside math.fsum; every bit must stay.
        lines = []
        for dimension, closed in (("planar", polarizability_planar), ("spatial", polarizability_spatial)):
            rng = random.Random(f"grid-{dimension}")
            alpha_invs = [ALPHA_INV_CODATA2014 + h for h in (0.0, -3.1e-4, 3.1e-4)]
            z_max = critical_charge(dimension, min(alpha_invs))
            charges = [math.exp(rng.uniform(math.log(1e-6), math.log(z_max))) for _ in range(240)]
            charges += [rng.uniform(0.0, z_max) for _ in range(240)]
            charges += [float(z) for z in range(1, int(z_max) + 1)]
            for alpha_inv in alpha_invs:
                z_crit = math.nextafter(critical_charge(dimension, alpha_inv), 0.0)
                for z in [*charges, z_crit]:
                    result = closed(AtomSpec(z, dimension, alpha_inv))
                    diag = result.diagnostics
                    lines.append(
                        f"{result.value_a0_cubed.hex()} {result.scaled_Z4.hex()} "
                        f"{diag.terms_used} {diag.tail_estimate.hex()}"
                    )
            lines.append(quasirel_coefficient(dimension).hex())
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "5abe571ff96c8b265e6c64982d7ab0a897d2d104ca141ebddf745174c9f8c94f"
        )


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

    @pytest.mark.parametrize("field", [0.0, -0.0, 0])
    def test_zero_field_at_any_charge(self, field):
        # Both channels are normal doubles at the largest charges; the zero
        # shift is not refused.
        for spec in (AtomSpec(26.0, "planar"), AtomSpec(5.2e76, "planar", math.inf)):
            assert second_order_energy(spec, field) == 0.0

    @pytest.mark.parametrize(
        "spec, field, shown",
        [
            (AtomSpec(26.0, "planar"), math.inf, "-inf"),
            (AtomSpec(26.0, "planar"), -math.inf, "-inf"),
            (AtomSpec(26.0, "planar"), math.nan, "nan"),
            # field**2 overflows: no bare OverflowError.
            (AtomSpec(26.0, "planar"), 1e200, "-inf"),
            (AtomSpec(26.0, "planar"), 10**200, "-inf"),
            # Subnormal: both channels there are normal doubles.
            (AtomSpec(5.2e76, "planar", math.inf), 1.0, "-1.12"),
            # Underflows to -0.0.
            (AtomSpec(26.0, "planar"), 1e-160, "-0.0"),
        ],
    )
    def test_refuses_a_field_or_shift_outside_the_normal_doubles(self, spec, field, shown):
        with pytest.raises(ValueError) as info:
            second_order_energy(spec, field)
        message = str(info.value)
        assert f"field_strength={field!r} at Z={spec.Z!r}" in message
        assert f"shift {shown}" in message
        assert "not a normal double" in message

    def test_smallest_and_largest_accepted_fields_are_normal(self):
        # Bisect both refusal boundaries at Z = 26 down to adjacent doubles:
        # the last accepted field still gives a normal double.
        spec = AtomSpec(26.0, "planar")

        def accepted(field):
            try:
                second_order_energy(spec, field)
            except ValueError:
                return False
            return True

        for refused, kept in ((1e-160, 1e-3), (1e200, 1e-3)):
            for _ in range(200):
                mid = math.sqrt(refused) * math.sqrt(kept)
                if not min(refused, kept) < mid < max(refused, kept):
                    break
                if accepted(mid):
                    kept = mid
                else:
                    refused = mid
            assert math.nextafter(kept, refused) == refused
            assert sys.float_info.min <= -second_order_energy(spec, kept) < math.inf


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
        # integrals for every tabulated charge, and on the whole planar
        # domain: Z log-uniform in [1e-6, Z_crit) at a perturbed or infinite
        # alpha_inv, and the last double below Z_crit.
        def check(z, alpha_inv):
            spec = AtomSpec(z, "planar", alpha_inv)
            direct = polarizability_planar(spec).value_a0_cubed
            channel_mean = 0.5 * (
                r_channel_closed(ChannelIndex(0.5), spec)
                + r_channel_closed(ChannelIndex(-1.5), spec)
            )
            deviation = abs(direct - channel_mean) / direct
            assert deviation <= 1e-14, f"Z={z!r}, alpha_inv={alpha_inv!r}"

        for z in range(1, 69):
            check(float(z), ALPHA_INV_CODATA2014)

        @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @hypothesis.given(
            st.floats(0.0, 1.0),
            st.one_of(
                st.just(math.inf),
                st.floats(0.5, 2.0).map(lambda scale: scale * ALPHA_INV_CODATA2014),
            ),
        )
        @hypothesis.example(1.0, ALPHA_INV_CODATA2014)
        @hypothesis.example(1.0, ALPHA_INV_CODATA2014 + 3.1e-4)
        @hypothesis.example(1.0, 137.1)
        @hypothesis.example(1.0, 100.0)
        @hypothesis.example(1.0, math.inf)
        def sampled(u, alpha_inv):
            # u = 1 is the last double below Z_crit; alpha_inv = inf has no
            # critical charge and takes the CODATA range.
            finite = alpha_inv if alpha_inv < math.inf else ALPHA_INV_CODATA2014
            zc = critical_charge("planar", finite)
            z = math.nextafter(zc, 0.0)
            if u < 1.0:
                z = min(math.exp(math.log(1e-6) + u * math.log(zc / 1e-6)), z)
            check(z, alpha_inv)

        sampled()

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


class TestSmallestCharge:
    # Z**4 is 0 at Z = 1e-100 and subnormal at 1e-80, where the quotient
    # overflows.
    @pytest.mark.parametrize("z", [1e-80, 1e-100])
    @pytest.mark.parametrize(
        "dimension, compute",
        [("planar", polarizability_planar), ("spatial", polarizability_spatial)],
    )
    def test_underflowing_charge_raises(self, z, dimension, compute):
        message = rf"Z={z!r} is below the smallest allowed charge, about 1\.2"
        with pytest.raises(ValueError, match=message):
            compute(AtomSpec(z, dimension))

    @pytest.mark.parametrize("kappa", [0.5, -1.5])
    def test_channels_share_the_check(self, kappa):
        with pytest.raises(ValueError, match="Z=1e-90 is below the smallest allowed charge"):
            r_channel_closed(ChannelIndex(kappa), AtomSpec(1e-90, "planar"))

    def test_boundary(self):
        # The smallest charge whose Z**4 is a normal double is accepted in
        # the plane; the spatial value, 4.5 / Z**4, overflows there.
        z = sys.float_info.min**0.25
        while z**4 < sys.float_info.min:
            z = math.nextafter(z, math.inf)
        while math.nextafter(z, 0.0) ** 4 >= sys.float_info.min:
            z = math.nextafter(z, 0.0)
        planar = polarizability_planar(AtomSpec(z, "planar"))
        assert planar.value_a0_cubed == planar.scaled_Z4 / z**4
        assert math.isfinite(planar.value_a0_cubed)
        for ch in (ChannelIndex(0.5), ChannelIndex(-1.5)):
            assert math.isfinite(r_channel_closed(ch, AtomSpec(z, "planar")))
        with pytest.raises(ValueError, match="smallest allowed charge"):
            polarizability_planar(AtomSpec(math.nextafter(z, 0.0), "planar"))
        with pytest.raises(ValueError, match="smallest allowed charge, about 1.258e-77"):
            polarizability_spatial(AtomSpec(z, "spatial"))

    def test_two_term_form_shares_the_check(self):
        with pytest.raises(ValueError, match="Z=1e-100 is below the smallest allowed charge"):
            r_channel_two_term(ChannelIndex(0.5), AtomSpec(1e-100, "planar"))

    def test_sturmian_polarizability_shares_the_check(self):
        # The series overflows to inf here; the closed form's refusal, with
        # the same smallest charge, comes first.
        with pytest.raises(ValueError, match=r"Z=1e-100 is below the smallest allowed charge, about 1\.221e-77"):
            polarizability_sturmian(AtomSpec(1e-100, "planar"))


class TestLargestCharge:
    # Every charge is subcritical once alpha_inv is large or inf.  Z**4
    # overflows at Z = 1e100, and the planar alpha_1 is subnormal at 1e77;
    # the spatial one, 4.5 / Z**4, is still normal there, so its case is the
    # first overflowing charge instead.
    @pytest.mark.parametrize("alpha_inv", [math.inf, 1e300])
    @pytest.mark.parametrize(
        "dimension, compute, z",
        [
            *(
                (dimension, compute, z)
                for dimension, compute in [
                    ("planar", polarizability_planar),
                    ("planar", lambda spec: r_channel_closed(ChannelIndex(0.5), spec)),
                    ("planar", lambda spec: r_channel_closed(ChannelIndex(-1.5), spec)),
                    ("planar", lambda spec: second_order_energy(spec, 1.0)),
                ]
                for z in (1e77, 1e100)
            ),
            ("spatial", polarizability_spatial, 1.2e77),
            ("spatial", polarizability_spatial, 1e100),
            # The largest charge whose R_{-3/2} prefactor over Z**4 is a
            # normal double; the bracket, 0.875, takes the channel below.
            ("planar", lambda spec: r_channel_closed(ChannelIndex(-1.5), spec), 5.387834044491518e76),
        ],
        ids=[
            *(f"{name}-{z}" for name in ("planar", "r-half", "r-m32", "energy") for z in ("1e77", "1e100")),
            "spatial-1.2e77",
            "spatial-1e100",
            "r-m32-prefactor-normal",
        ],
    )
    def test_overflowing_charge_raises(self, dimension, compute, z, alpha_inv):
        message = f"Z={z!r} is above the largest allowed charge, about "
        with pytest.raises(ValueError, match=re.escape(message)):
            compute(AtomSpec(z, dimension, alpha_inv))

    @pytest.mark.parametrize("alpha_inv", [math.inf, 1e300])
    @pytest.mark.parametrize(
        "dimension, compute, shown",
        [
            ("planar", lambda spec: polarizability_planar(spec).value_a0_cubed, "5.211e+76"),
            ("spatial", lambda spec: polarizability_spatial(spec).value_a0_cubed, "1.158e+77"),
            ("planar", lambda spec: r_channel_closed(ChannelIndex(-1.5), spec), "5.211e+76"),
        ],
        ids=["planar", "spatial", "r-m32"],
    )
    def test_largest_accepted_charge(self, dimension, compute, shown, alpha_inv):
        def z_of(bits):
            return struct.unpack("<d", struct.pack("<q", bits))[0]

        def accepted(bits):
            try:
                compute(AtomSpec(z_of(bits), dimension, alpha_inv))
            except ValueError as exc:
                assert f"is above the largest allowed charge, about {shown}:" in str(exc)
                return False
            return True

        # Bisect over the bit patterns of the doubles from 1 (accepted) to
        # 1e100 (refused): positive doubles order as their patterns do.
        lo, hi = (struct.unpack("<q", struct.pack("<d", z))[0] for z in (1.0, 1e100))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        assert compute(AtomSpec(z_of(lo), dimension, alpha_inv)) >= sys.float_info.min
        assert f"{z_of(lo):.4g}" == shown


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

    @pytest.mark.parametrize("dimension", ["planar", "spatial"])
    @pytest.mark.parametrize("z", [1e-3, 1.0, 26.0, 68.0])
    def test_the_closed_form_recovers_it_at_alpha_inv_inf(self, dimension, z):
        # gamma = |kappa| exactly and the 3F2 is its leading 1: the same bits.
        compute = polarizability_planar if dimension == "planar" else polarizability_spatial
        assert compute(AtomSpec(z, dimension, math.inf)).scaled_Z4 == nonrel_limit(dimension)


QUASIREL_TARGETS = {"planar": -3.5, "spatial": -28.0 / 27.0}


def _shift_reference(dimension, x):
    """alpha_1 / alpha_1_NR - 1 at x = (alpha Z)**2 from the closed form in
    70-digit mpmath: the subtraction loses log10(1/x) <= 30 digits, which
    leaves 40.  3F2 - 1 is summed from k = 1 by Levin's transform."""
    with mpmath.workdps(70):
        x = mpmath.mpf(x)
        if dimension == "planar":
            g, gk = mpmath.sqrt(mpmath.mpf(1) / 4 - x), mpmath.sqrt(mpmath.mpf(9) / 4 - x)
            lower = 2 * g + 3
            poly = (g + 1) ** 2 * (2 * g + 1) * (4 * g + 3) / 128
            pre = 4 * (g - 1) ** 2 / ((g + 1) * (4 * g + 3))
        else:
            g, gk = mpmath.sqrt(1 - x), mpmath.sqrt(4 - x)
            quadratic = 4 * g**2 + 13 * g + 12
            lower = 2 * g + 2
            poly = (g + 1) * (2 * g + 1) * quadratic / 36
            pre = 2 * (g - 2) ** 2 / ((g + 1) * quadratic)
        d = gk - g
        a1, a2, a3, b1, b2 = d - 1, d - 1, d + 1, d + 2, 2 * gk + 1
        terms = [a1 * a2 * a3 / (b1 * b2)]

        def term(k):
            k = int(k)
            while len(terms) <= k:
                j = len(terms)
                terms.append(
                    terms[-1] * (a1 + j) * (a2 + j) * (a3 + j) / ((b1 + j) * (b2 + j) * (j + 1))
                )
            return terms[k]

        f = 1 + mpmath.nsum(term, [0, mpmath.inf], method="levin")
        coeff = pre * mpmath.gamma(gk + g + 2) ** 2 / (
            mpmath.gamma(lower) * mpmath.gamma(b2) * (d + 1)
        )
        return poly * (1 - coeff * f) / mpmath.mpf(nonrel_limit(dimension)) - 1


class TestQuasirelCoefficient:
    def test_planar_coefficient(self):
        assert quasirel_coefficient("planar") == pytest.approx(-3.5, abs=1e-6)

    def test_spatial_coefficient(self):
        assert quasirel_coefficient("spatial") == pytest.approx(-28.0 / 27.0, abs=1e-6)

    def test_smallest_resolvable_shift(self):
        # The coefficient is exact to 2 ulp.
        for dimension, target in QUASIREL_TARGETS.items():
            assert abs(quasirel_coefficient(dimension) - target) <= 2 * math.ulp(target)

    def test_unknown_dimension(self):
        with pytest.raises(ValueError, match="unknown dimension"):
            quasirel_coefficient("volumetric")

    @pytest.mark.parametrize(
        "dimension, exact", [("planar", Fraction(-7, 2)), ("spatial", Fraction(-28, 27))], ids=["planar", "spatial"]
    )
    def test_is_the_closed_forms_slope(self, dimension, exact):
        # limits reports c; it must be the correctly rounded exact value and
        # the slope at x = (alpha Z)**2 = 0 of the closed form that planar and
        # spatial compute.
        c = quasirel_coefficient(dimension)
        assert c.hex() == float(exact).hex()
        # The 70-digit closed form at x = 1e-30, where the x**2 term is 30
        # orders of magnitude down.
        with mpmath.workdps(70):
            slope = float(_shift_reference(dimension, 1e-30) / mpmath.mpf(1e-30))
        assert abs(c - slope) <= math.ulp(c)
        # The library's closed form at x = 1e-8, where the x**2 term and the
        # rounding of scaled_Z4, amplified 1e8 times, are both below 1e-7.
        compute = polarizability_planar if dimension == "planar" else polarizability_spatial
        x = (1.0 / 1e4) ** 2
        library = (compute(AtomSpec(1.0, dimension, 1e4)).scaled_Z4 / nonrel_limit(dimension) - 1.0) / x
        assert abs(library - c) <= 1e-7 * abs(c)
