"""Tests of the atomic-structure primitives: channel exponents, critical
charges, ground-state radial functions, axial spinors, and the dipole
selection rule that kills the first-order field shift."""

import math

import numpy as np
import pytest

from diracpol.atom import (
    ALPHA_INV_CODATA2014,
    AtomSpec,
    ChannelIndex,
    SupercriticalError,
    critical_charge,
    gamma_half,
    gamma_kappa,
    ground_energy,
)
from diracpol.sturmian import gauss_laguerre_integral, laguerre_rule
from tests.reference import axial_spinor, cos_matrix_element, first_order_shift, radial_PQ

# gamma_{1/2} and the ground energy at Z = 1 with the CODATA 2014 constant,
# frozen from a 40-digit evaluation of sqrt(1/4 - (alpha Z)^2).
GAMMA_HALF_Z1 = 0.49994674580951350807
GROUND_ENERGY_Z1 = 0.99989349161902701613

ALL_CHANNELS = [ChannelIndex(k / 2.0) for k in (-7, -5, -3, -1, 1, 3, 5, 7)]


class TestAtomSpec:
    def test_planar_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            AtomSpec(70.0, "planar")
        with pytest.raises(SupercriticalError):
            AtomSpec(critical_charge("planar"), "planar")

    def test_spatial_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            AtomSpec(138.0, "spatial")

    def test_spatial_accepts_beyond_planar_limit(self):
        spec = AtomSpec(100.0, "spatial")
        assert spec.alpha_z == pytest.approx(100.0 / ALPHA_INV_CODATA2014)

    def test_nonpositive_charge_rejected(self):
        with pytest.raises(ValueError):
            AtomSpec(0.0)
        with pytest.raises(ValueError):
            AtomSpec(-2.0)

    def test_bad_alpha_inv_rejected(self):
        with pytest.raises(ValueError):
            AtomSpec(1.0, "planar", 0.0)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            AtomSpec(1.0, "flat")


class TestChannelIndex:
    @pytest.mark.parametrize("kappa", [0.5, -0.5, 1.5, -3.5, 1.0, -2.0])
    def test_valid(self, kappa):
        assert ChannelIndex(kappa).kappa == kappa

    @pytest.mark.parametrize("kappa", [0.0, 0.3, -1.25, math.nan, math.inf, -math.inf])
    def test_invalid(self, kappa):
        with pytest.raises(ValueError, match="kappa must be a nonzero integer"):
            ChannelIndex(kappa)

    def test_dimension_compatibility(self):
        planar = AtomSpec(1.0, "planar")
        spatial = AtomSpec(1.0, "spatial")
        with pytest.raises(ValueError, match=r"^planar channels need half-odd-integer kappa, got 1\.0$"):
            gamma_kappa(planar, ChannelIndex(1.0))
        with pytest.raises(ValueError, match=r"^spatial channels need integer kappa, got 0\.5$"):
            gamma_kappa(spatial, ChannelIndex(0.5))


class TestGammaKappa:
    def test_weak_coupling_limits(self):
        spec = AtomSpec(1e-8, "planar")
        assert gamma_kappa(spec, ChannelIndex(0.5)) == pytest.approx(0.5, abs=1e-14)
        assert gamma_kappa(spec, ChannelIndex(1.5)) == pytest.approx(1.5, abs=1e-14)

    def test_hydrogen_value(self):
        spec = AtomSpec(1.0, "planar")
        assert gamma_half(spec) == pytest.approx(GAMMA_HALF_Z1, rel=5e-16)

    def test_monotonicity(self):
        # Gamma grows with |kappa| at fixed Z and falls with Z at fixed kappa.
        spec = AtomSpec(30.0, "planar")
        values = [gamma_kappa(spec, ChannelIndex(k + 0.5)) for k in range(4)]
        assert all(a < b for a, b in zip(values, values[1:]))
        charges = [1.0, 10.0, 30.0, 60.0, 68.0]
        gammas = [gamma_half(AtomSpec(z, "planar")) for z in charges]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))

    def test_small_coupling_expansion(self):
        # gamma_kappa = |kappa| - (alpha Z)^2 / (2 |kappa|) + O((alpha Z)^4).
        # For kappa = 1/2 the quartic residual is (alpha Z)^4 / (8 kappa^3),
        # which saturates the (alpha Z)^4 scale with unit coefficient, hence
        # the small margin.
        for az in (0.01, 0.05, 0.1):
            spec = AtomSpec(az * ALPHA_INV_CODATA2014, "planar")
            for kappa in (0.5, -0.5, 1.5, 2.5):
                gk = gamma_kappa(spec, ChannelIndex(kappa))
                leading = abs(kappa) - az**2 / (2.0 * abs(kappa))
                assert abs(gk - leading) <= 1.05 * az**4


class TestCriticalCharge:
    def test_planar_codata(self):
        assert critical_charge("planar") == pytest.approx(68.5179995695, rel=1e-12)

    def test_spatial_is_alpha_inv(self):
        assert critical_charge("spatial") == ALPHA_INV_CODATA2014

    def test_constructed_constant_set(self):
        assert critical_charge("planar", alpha_inv=2.0) == 1.0

    @pytest.mark.parametrize("alpha_inv", [0.0, -1.0, math.nan])
    def test_bad_alpha_inv_rejected(self, alpha_inv):
        for dimension in ("planar", "spatial"):
            with pytest.raises(ValueError, match="alpha_inv must be positive"):
                critical_charge(dimension, alpha_inv)


class TestGroundEnergy:
    def test_weak_coupling(self):
        assert ground_energy(AtomSpec(1e-8, "planar")) == pytest.approx(1.0, abs=1e-14)

    def test_hydrogen(self):
        assert ground_energy(AtomSpec(1.0, "planar")) == pytest.approx(
            GROUND_ENERGY_Z1, rel=5e-16
        )

    def test_vanishes_at_criticality(self):
        z_crit = critical_charge("planar")
        energy = ground_energy(AtomSpec(z_crit * (1.0 - 1e-12), "planar"))
        assert 0.0 < energy < 1e-5

    def test_spatial_rejected(self):
        with pytest.raises(ValueError):
            ground_energy(AtomSpec(1.0, "spatial"))


class TestRadialFunctions:
    def test_component_ratio_is_constant(self):
        spec = AtomSpec(26.0, "planar")
        g = gamma_half(spec)
        r = np.geomspace(1e-4, 2.0, 64)
        p, q = radial_PQ(spec, r)
        expected = math.sqrt((1.0 - 2.0 * g) / (1.0 + 2.0 * g))
        assert np.allclose(q / p, expected, rtol=1e-14, atol=0.0)

    def test_spatial_spec_rejected(self):
        with pytest.raises(ValueError, match="radial_PQ describes planar ground states"):
            radial_PQ(AtomSpec(1.0, "spatial"), 1.0)

    def test_vanishes_at_origin(self):
        p, q = radial_PQ(AtomSpec(5.0, "planar"), 1e-280)
        assert p == 0.0 or p < 1e-30
        assert q == 0.0 or q < 1e-30

    @pytest.mark.parametrize("z", [1, 10, 26, 68])
    def test_normalization_spot(self, z):
        spec = AtomSpec(float(z), "planar")

        def density(r):
            p, q = radial_PQ(spec, r)
            return p * p + q * q

        rule = laguerre_rule(2.0 * gamma_half(spec))
        norm = gauss_laguerre_integral(density, rule, 4.0 * spec.Z)
        assert abs(norm - 1.0) <= 1e-12

    def test_normalization_all_charges(self):
        for z in range(1, 69):
            spec = AtomSpec(float(z), "planar")

            def density(r):
                p, q = radial_PQ(spec, r)
                return p * p + q * q

            rule = laguerre_rule(2.0 * gamma_half(spec))
            norm = gauss_laguerre_integral(density, rule, 4.0 * spec.Z)
            assert abs(norm - 1.0) <= 1e-12, f"Z={z}"


class TestAxialSpinor:
    def test_pointwise_norm(self):
        phi = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
        for ch in ALL_CHANNELS:
            for m in (ch.kappa, -ch.kappa):
                spinor = axial_spinor(ch, m, phi)
                norms = np.sum(np.abs(spinor) ** 2, axis=0)
                assert np.allclose(norms, 1.0 / (2.0 * math.pi), rtol=1e-14)

    def test_selector_value(self):
        spinor = axial_spinor(ChannelIndex(0.5), 0.5, 0.0)
        assert spinor[0] == 0.0
        assert spinor[1] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)

    def test_orthonormality_by_quadrature(self):
        phi = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
        dphi = 2.0 * math.pi / phi.size
        labels = [(ch, m) for ch in ALL_CHANNELS for m in (ch.kappa, -ch.kappa)]
        for ch, m in labels:
            left = axial_spinor(ch, m, phi)
            for ch2, m2 in labels:
                right = axial_spinor(ch2, m2, phi)
                overlap = np.sum(np.conj(left) * right) * dphi
                expected = 1.0 if (ch.kappa == ch2.kappa and m == m2) else 0.0
                assert abs(overlap - expected) <= 1e-13

    def test_invalid_projection(self):
        with pytest.raises(ValueError):
            axial_spinor(ChannelIndex(0.5), 1.5, 0.0)
        # round() of a non-finite m would raise its own error first.
        for m in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="m must equal"):
                axial_spinor(ChannelIndex(0.5), m, 0.0)
            with pytest.raises(ValueError, match="invalid spinor labels"):
                cos_matrix_element(ChannelIndex(0.5), m, ChannelIndex(-0.5), 0.5)
            with pytest.raises(ValueError, match="invalid spinor labels"):
                cos_matrix_element(ChannelIndex(0.5), 0.5, ChannelIndex(-0.5), m)


class TestCosMatrixElement:
    def test_coupled_pairs(self):
        assert cos_matrix_element(ChannelIndex(1.5), 1.5, ChannelIndex(0.5), 0.5) == 0.5
        assert cos_matrix_element(ChannelIndex(-1.5), 1.5, ChannelIndex(-0.5), 0.5) == 0.5

    def test_diagonal_vanishes(self):
        assert cos_matrix_element(ChannelIndex(0.5), 0.5, ChannelIndex(0.5), 0.5) == 0.0

    def test_against_quadrature(self):
        phi = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
        dphi = 2.0 * math.pi / phi.size
        cos_phi = np.cos(phi)
        labels = [(ch, m) for ch in ALL_CHANNELS for m in (ch.kappa, -ch.kappa)]
        for ch, m in labels:
            left = axial_spinor(ch, m, phi)
            for ch2, m2 in labels:
                right = axial_spinor(ch2, m2, phi)
                overlap = np.sum(np.conj(left) * right * cos_phi) * dphi
                assert abs(overlap.imag) <= 1e-13
                expected = cos_matrix_element(ch, m, ch2, m2)
                assert abs(overlap.real - expected) <= 1e-13


class TestFirstOrderShift:
    def test_zero_for_any_mixing(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            assert first_order_shift((math.cos(theta), math.sin(theta))) == 0.0

    def test_requires_normalized_coefficients(self):
        with pytest.raises(ValueError):
            first_order_shift((1.0, 1.0))

    def test_matrix_elements_all_zero(self):
        upper, lower = ChannelIndex(-0.5), ChannelIndex(0.5)
        for m in (0.5, -0.5):
            for m2 in (0.5, -0.5):
                angular = cos_matrix_element(upper, m, upper, m2) + cos_matrix_element(
                    lower, m, lower, m2
                )
                assert angular == 0.0

    def test_full_integrand_by_2d_quadrature(self):
        # The dipole matrix element of one ground-state basis function with
        # itself, integrated as a genuine 2D integral (radial rule times an
        # angular trapezoid); vanishes by the angular selection rule.
        spec = AtomSpec(26.0, "planar")
        m = m2 = 0.5
        upper, lower = ChannelIndex(-0.5), ChannelIndex(0.5)
        phi = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        dphi = 2.0 * math.pi / phi.size
        up_l, up_r = axial_spinor(upper, m, phi), axial_spinor(upper, m2, phi)
        low_l, low_r = axial_spinor(lower, m, phi), axial_spinor(lower, m2, phi)
        angular_upper = np.sum(np.conj(up_l) * up_r, axis=0)
        angular_lower = np.sum(np.conj(low_l) * low_r, axis=0)

        def radial_big(r):
            p, q = radial_PQ(spec, r)
            return r * p * p

        def radial_small(r):
            p, q = radial_PQ(spec, r)
            return r * q * q

        rule = laguerre_rule(2.0 * gamma_half(spec) + 1.0)
        big = gauss_laguerre_integral(radial_big, rule, 4.0 * spec.Z)
        small = gauss_laguerre_integral(radial_small, rule, 4.0 * spec.Z)
        value = float(
            np.sum(np.cos(phi) * (big * angular_upper + small * angular_lower)).real
        ) * dphi
        assert abs(value) <= 1e-14
