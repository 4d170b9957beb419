"""Tests of the Sturmian oracle: basis functions, apparent eigenvalues,
closed-form first-order integrals against quadrature, and the symmetric
channel series."""

import math

import mpmath
import numpy as np
import pytest

from diracpol.atom import (
    AtomSpec,
    ChannelIndex,
    gamma_half,
    gamma_kappa,
    radial_PQ,
)
from diracpol.specfun import laguerre, log_gamma
from diracpol.sturmian import (
    _caps,
    _channel,
    _doublets,
    _index_integrals,
    _log_envelope,
    _log_factorial,
    _mu,
    channel_first_order_integrals,
    gauss_laguerre_integral,
    r_channel_series,
    roots_genlaguerre,
)

mpmath.mp.dps = 40

CHANNELS = (ChannelIndex(0.5), ChannelIndex(-1.5))

# Sturmian doublet at r = 1 for Z = 26, n_r = 2, kappa = 1/2, frozen from a
# 40-digit term-by-term evaluation of the defining expression.
S_REFERENCE = -8.6472777849636725714e-20
T_REFERENCE = -1.6061319288881874128e-20


def _cap(n_r: int, ch: ChannelIndex, spec: AtomSpec) -> float:
    """Signed N of one index, from the kernel that serves both signs."""
    return _caps(abs(n_r), gamma_kappa(spec, ch), ch.kappa)[n_r < 0]


def _mu_of(n_r: int, ch: ChannelIndex, spec: AtomSpec) -> float:
    return _mu(abs(n_r), gamma_kappa(spec, ch), _cap(n_r, ch, spec), gamma_half(spec))


def _st(n_r: int, ch: ChannelIndex, spec: AtomSpec, r):
    """Sturmian doublet (S, T) of one index at r, from the shared kernel."""
    c = _channel(ch, spec)
    x = 4.0 * spec.Z * np.asarray(r, dtype=float)
    return _doublets(c, abs(n_r), x, _log_envelope(c, x))[n_r < 0]


def _integrals(n_r: int, ch: ChannelIndex, spec: AtomSpec) -> tuple[float, float, float]:
    """Closed (plain, mu_weighted, mu) of one index."""
    return _index_integrals(_channel(ch, spec), abs(n_r))[n_r < 0]


def _one_rule_per_integrand(n_r: int, ch: ChannelIndex, spec: AtomSpec) -> tuple[float, float]:
    """(plain, mu_weighted) of one index, one Gauss-Laguerre rule per integrand."""
    power = gamma_half(spec) + gamma_kappa(spec, ch) + 1.0
    mu_val = _integrals(n_r, ch, spec)[2]

    def plain(r):
        p, q = radial_PQ(spec, r)
        s, t = _st(n_r, ch, spec, r)
        return r * (p * s + q * t)

    def weighted(r):
        p, q = radial_PQ(spec, r)
        s, t = _st(n_r, ch, spec, r)
        return r * (mu_val * p * s + q * t)

    return (
        gauss_laguerre_integral(plain, power, 4.0 * spec.Z),
        gauss_laguerre_integral(weighted, power, 4.0 * spec.Z),
    )


def _st_oracle(z: int, n_r: int, kappa: float, r: float) -> tuple[float, float]:
    """Independent high-precision evaluation of the Sturmian doublet."""
    zm = mpmath.mpf(z)
    az = zm / mpmath.mpf("137.035999139")
    g = mpmath.sqrt(mpmath.mpf(1) / 4 - az**2)
    gk = mpmath.sqrt(mpmath.mpf(kappa) ** 2 - az**2)
    n = abs(n_r)
    mag = mpmath.sqrt(n**2 + 2 * n * gk + mpmath.mpf(kappa) ** 2)
    if n_r > 0:
        nn = mag
    elif n_r < 0:
        nn = -mag
    else:
        nn = -mpmath.mpf(kappa)
    x = 4 * zm * r
    norm = mpmath.sqrt(
        mpmath.factorial(n)
        * (n + 2 * gk)
        / (4 * zm * nn * (nn - kappa) * mpmath.gamma(n + 2 * gk))
    )
    low = mpmath.laguerre(n - 1, 2 * gk, x) if n >= 1 else mpmath.mpf(0)
    high = (nn - kappa) / (n + 2 * gk) * mpmath.laguerre(n, 2 * gk, x)
    envelope = x**gk * mpmath.e ** (-x / 2)
    s = mpmath.sqrt(1 + 2 * g) * norm * envelope * (low - high)
    t = -mpmath.sqrt(1 - 2 * g) * norm * envelope * (low + high)
    return float(s), float(t)


class TestNCap:
    def test_zero_index_values(self):
        spec = AtomSpec(26.0, "planar")
        assert _cap(0, ChannelIndex(0.5), spec) == -0.5
        assert _cap(0, ChannelIndex(-1.5), spec) == 1.5

    def test_weak_coupling(self):
        spec = AtomSpec(1e-8, "planar")
        value = _cap(1, ChannelIndex(0.5), spec)
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_sign_convention_consistency(self):
        # N**2 reproduces n**2 + 2|n| gamma + kappa**2 exactly up to rounding.
        spec = AtomSpec(40.0, "planar")
        for ch in CHANNELS:
            gk = gamma_kappa(spec, ch)
            for n_r in (-50, -3, -1, 0, 1, 3, 50):
                nn = _cap(n_r, ch, spec)
                target = n_r**2 + 2 * abs(n_r) * gk + ch.kappa**2
                assert nn * nn == pytest.approx(target, rel=4e-16)
                assert (nn > 0) == (n_r > 0 or (n_r == 0 and ch.kappa <= -0.5))


class TestMu:
    def test_weak_coupling_values(self):
        spec = AtomSpec(1e-8, "planar")
        assert _mu_of(0, ChannelIndex(-1.5), spec) == pytest.approx(3.0, abs=1e-11)
        assert _mu_of(0, ChannelIndex(0.5), spec) == pytest.approx(0.0, abs=1e-11)
        assert _mu_of(1, ChannelIndex(0.5), spec) == pytest.approx(3.0, abs=1e-11)

    def test_no_resonant_denominator(self):
        # min |mu - 1| > 0.4 over both dipole channels, |n_r| <= 10^4, and
        # all integer charges; the expansion never touches mu = 1.
        n = np.arange(0, 10_001, dtype=float)
        gap = math.inf
        for z in range(1, 69):
            spec = AtomSpec(float(z), "planar")
            g = gamma_half(spec)
            for ch in CHANNELS:
                gk = gamma_kappa(spec, ch)
                mag = np.sqrt(n * n + 2.0 * n * gk + ch.kappa**2)
                for sign in (+1.0, -1.0):
                    nn = sign * mag
                    if sign > 0:
                        nn[0] = -ch.kappa
                    mus = (n + gk + nn) / (g + 0.5)
                    rows = mus if sign > 0 else mus[1:]
                    gap = min(gap, float(np.min(np.abs(rows - 1.0))))
        assert gap > 0.4

    def test_vectorized_sweep_matches_scalar(self):
        spec = AtomSpec(26.0, "planar")
        for ch in CHANNELS:
            for n_r in (-7, -1, 0, 1, 7):
                g = gamma_half(spec)
                gk = gamma_kappa(spec, ch)
                expected = (abs(n_r) + gk + _cap(n_r, ch, spec)) / (g + 0.5)
                assert _mu_of(n_r, ch, spec) == expected


class TestSturmianST:
    def test_zero_index_collapses_to_single_term(self):
        # With L_{-1} identically zero the bracket is one Laguerre term;
        # S/envelope is then r-independent, positive for kappa = 1/2
        # (bracket -(N-kappa)/(2 gamma) = +1/(2 gamma)) and negative for
        # kappa = -3/2 (bracket -3/(2 gamma)).
        spec = AtomSpec(10.0, "planar")
        r = np.geomspace(1e-3, 1.0, 31)
        for ch, sign in ((ChannelIndex(0.5), +1.0), (ChannelIndex(-1.5), -1.0)):
            gk = gamma_kappa(spec, ch)
            s, t = _st(0, ch, spec, r)
            envelope = (4.0 * spec.Z * r) ** gk * np.exp(-2.0 * spec.Z * r)
            ratio = s / envelope
            assert np.allclose(ratio, ratio[0], rtol=1e-12)
            assert np.all(sign * ratio > 0.0)

    def test_pointwise_against_frozen_oracle(self):
        spec = AtomSpec(26.0, "planar")
        s, t = _st(2, ChannelIndex(0.5), spec, 1.0)
        assert s == pytest.approx(S_REFERENCE, rel=1e-12)
        assert t == pytest.approx(T_REFERENCE, rel=1e-12)
        s_live, t_live = _st_oracle(26, 2, 0.5, 1.0)
        assert s == pytest.approx(s_live, rel=1e-12)
        assert t == pytest.approx(t_live, rel=1e-12)

    def test_pointwise_negative_index(self):
        spec = AtomSpec(26.0, "planar")
        s, t = _st(-2, ChannelIndex(-1.5), spec, 0.3)
        s_live, t_live = _st_oracle(26, -2, -1.5, 0.3)
        assert s == pytest.approx(s_live, rel=1e-12)
        assert t == pytest.approx(t_live, rel=1e-12)


class TestGaussLaguerreRule:
    ALPHAS = (-0.99, -0.5, 0.0, 0.37, 1.0, 2.5, 3.999, 6.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_scipy_reference(self, alpha):
        from scipy.special import roots_genlaguerre as scipy_roots_genlaguerre

        nodes, weights = roots_genlaguerre(alpha)
        ref_nodes, ref_weights = scipy_roots_genlaguerre(16, alpha)
        assert nodes.shape == weights.shape == (16,)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_exact_through_degree_31(self, alpha):
        # integral of x**(alpha + k) e**-x over (0, inf) is Gamma(alpha + k + 1).
        nodes, weights = roots_genlaguerre(alpha)
        for k in range(32):
            moment = math.fsum(weights * nodes**k)
            assert moment == pytest.approx(math.gamma(alpha + k + 1.0), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [-1.0, -2.5, math.nan])
    def test_rejects_non_integrable_weight(self, alpha):
        with pytest.raises(ValueError, match="weight_power must exceed -1"):
            roots_genlaguerre(alpha)


class TestFirstOrderIntegrals:
    @pytest.mark.parametrize("kappa", [0.5, -1.5])
    def test_quadrature_match(self, kappa):
        spec = AtomSpec(26.0, "planar")
        ch = ChannelIndex(kappa)
        pairs = channel_first_order_integrals(ch, spec, 3)
        scale = max(max(abs(a.plain), abs(a.mu_weighted)) for a, _ in pairs)
        for exact, quad in pairs:
            for x, y in ((exact.plain, quad.plain), (exact.mu_weighted, quad.mu_weighted)):
                if abs(x) >= 1e-6 * scale:
                    assert abs(x - y) / abs(x) <= 1e-12
                else:
                    assert abs(x - y) <= 1e-12 * scale

    @pytest.mark.parametrize("z", [0.05, 26.0, 68.0])
    def test_quadrature_equals_one_rule_per_integrand(self, z):
        # Each integrand rebuilt from the doublets and integrated on its own:
        # sharing the doublet evaluations must not move a single bit.
        spec = AtomSpec(z, "planar")
        for ch in CHANNELS:
            pairs = channel_first_order_integrals(ch, spec, 3)
            for n_r, (_, quad) in zip(range(-3, 4), pairs):
                plain, weighted = _one_rule_per_integrand(n_r, ch, spec)
                assert quad.plain == plain
                assert quad.mu_weighted == weighted

    @pytest.mark.parametrize("z", [1e-3, 0.05, 12.3456, 26.0, 68.5])
    def test_channel_integrals_equal_per_index_integrals(self, z):
        # Built once per channel, the closed and quadrature integrals must
        # keep every bit of the per-index kernel and integrands.
        spec = AtomSpec(z, "planar")
        for ch in CHANNELS:
            pairs = channel_first_order_integrals(ch, spec, 3)
            assert len(pairs) == 7
            for n_r, (exact, quad) in zip(range(-3, 4), pairs):
                plain_exact, weighted_exact, _ = _integrals(n_r, ch, spec)
                plain_quad, weighted_quad = _one_rule_per_integrand(n_r, ch, spec)
                for got, want in (
                    (exact, (plain_exact, weighted_exact)),
                    (quad, (plain_quad, weighted_quad)),
                ):
                    assert float.hex(got.plain) == float.hex(want[0])
                    assert float.hex(got.mu_weighted) == float.hex(want[1])

    def test_log_factorial_is_log_gamma_bit_for_bit(self):
        for n in range(301):
            assert float.hex(_log_factorial(n)) == float.hex(log_gamma(n + 1.0))

    def test_degenerate_weighted_integral_is_exactly_zero(self):
        for z in (1.0, 26.0, 68.0):
            plain, mu_weighted, _ = _integrals(0, ChannelIndex(0.5), AtomSpec(z, "planar"))
            assert mu_weighted == 0.0
            assert plain != 0.0

    def test_half_channel_truncates(self):
        spec = AtomSpec(26.0, "planar")
        for n_r in (3, -3, 7, -20):
            plain, mu_weighted, _ = _integrals(n_r, ChannelIndex(0.5), spec)
            assert plain == 0.0 and mu_weighted == 0.0

    def test_decay_with_radial_index(self):
        spec = AtomSpec(1.0, "planar")
        for ch in CHANNELS:
            mags = [abs(_integrals(n, ch, spec)[0]) for n in range(5, 40)]
            assert all(a >= b for a, b in zip(mags, mags[1:]))
        # Long-range falloff: the pair vanishes as |n_r| grows.
        far_plain, far_weighted, _ = _integrals(10_000, ChannelIndex(-1.5), spec)
        assert abs(far_plain) < 1e-12 and abs(far_weighted) < 1e-8

    def test_rejects_out_of_scope_channels(self):
        spec = AtomSpec(26.0, "planar")
        with pytest.raises(ValueError, match="dipole channels are kappa = 1/2 and -3/2"):
            _channel(ChannelIndex(1.5), spec)
        with pytest.raises(ValueError, match="dipole channels are kappa = 1/2 and -3/2"):
            r_channel_series(ChannelIndex(1.5), spec)
        with pytest.raises(ValueError, match="dipole channels are kappa = 1/2 and -3/2"):
            channel_first_order_integrals(ChannelIndex(1.5), spec, 3)


class TestChannelSeries:
    def test_weak_coupling_limit(self):
        spec = AtomSpec(1e-3, "planar")
        value, diag = r_channel_series(ChannelIndex(0.5), spec, 1e-12)
        assert diag.tail_estimate <= 1e-12
        scaled = value * spec.Z**4
        assert scaled == pytest.approx(21.0 / 128.0, rel=1e-5)

    @pytest.mark.parametrize("z", [26.0, 50.0])
    def test_against_closed_form(self, z):
        from diracpol.polarizability import r_channel_closed

        spec = AtomSpec(z, "planar")
        for ch in CHANNELS:
            series, diag = r_channel_series(ch, spec, 1e-12)
            closed = r_channel_closed(ch, spec, 1e-16)
            assert diag.tail_estimate <= 1e-12
            assert abs(series - closed) / abs(closed) <= 1e-10

    @pytest.mark.parametrize("z", [1e-3, 1.0, 26.0, 68.5])
    def test_equals_fsum_of_per_index_terms(self, z):
        # The series shares one kernel with the closed first-order
        # integrals; summed index by index it must come out bit for bit the
        # same.
        spec = AtomSpec(z, "planar")

        def term(n_r, ch):
            plain, mu_weighted, mu_val = _integrals(n_r, ch, spec)
            if plain == 0.0 and mu_weighted == 0.0:
                return 0.0
            return plain * mu_weighted / (mu_val - 1.0)

        for ch in CHANNELS:
            value, diag = r_channel_series(ch, spec, 1e-12)
            pairs = (diag.terms_used - 1) // 2
            pieces = [term(0, ch)]
            pieces.extend(term(n, ch) + term(-n, ch) for n in range(1, pairs + 1))
            assert value == math.fsum(pieces)

    def test_tolerance_validation(self):
        spec = AtomSpec(26.0, "planar")
        with pytest.raises(ValueError):
            r_channel_series(ChannelIndex(0.5), spec, -1e-12)
        with pytest.raises(ValueError):
            r_channel_series(ChannelIndex(-0.5), spec, 1e-12)


class TestLaguerreIntegralFormula:
    def test_weighted_moments_against_closed_form(self):
        # integral of rho**g e**-rho L_n^(a)(rho) over (0, inf) equals
        # Gamma(g+1) * prod_{j<n} (a - g + j) / n!; checked by a generalized
        # Gauss-Laguerre rule whose weight carries rho**g e**-rho exactly,
        # for random (n, a, g) triples.
        from scipy.special import roots_genlaguerre

        rng = np.random.default_rng(37)
        checked = 0
        while checked < 20:
            n = int(rng.integers(0, 11))
            a = float(rng.uniform(0.0, 6.0))
            g = float(rng.uniform(-0.9, 6.0))
            if any(abs(a - g + j) < 0.3 for j in range(n)):
                # A near-zero rising factor collapses the closed value and
                # makes the relative comparison ill-conditioned.
                continue
            nodes, weights = roots_genlaguerre(200, g)
            sampled = laguerre(n, a, nodes)
            quad = math.fsum(weights * sampled)
            closed = math.exp(log_gamma(g + 1.0) - log_gamma(n + 1.0))
            for j in range(n):
                closed *= a - g + j
            # Round-off floor of the rule: the summands are exact up to a
            # few ulp each, so their absolute sum bounds the waste.
            eps = np.finfo(float).eps
            noise = 32.0 * eps * math.fsum(weights * np.abs(sampled))
            assert abs(quad - closed) <= max(1e-11 * abs(closed), noise)
            checked += 1
