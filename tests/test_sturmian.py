"""Tests of the Sturmian oracle: basis functions, apparent eigenvalues,
closed-form first-order integrals against quadrature, and the symmetric
channel series."""

import hashlib
import math
import random
import re

import mpmath
import numpy as np
import pytest

from diracpol.atom import (
    AtomSpec,
    ChannelIndex,
    critical_charge,
    gamma_half,
    gamma_kappa,
)
from diracpol import sturmian
from diracpol.cli import run
from diracpol.specfun import ConvergenceError, Hyp3F2Params, hyp3f2_unit, log_gamma
from diracpol.sturmian import (
    _caps,
    _channel,
    _doublets,
    _index_integrals,
    _laguerre_table,
    _log_factorial,
    _mu,
    _radial_pq,
    _sturmian_parts,
    channel_first_order_integrals,
    gauss_laguerre_integral,
    laguerre_rule,
    polarizability_sturmian,
    r_channel_series,
    roots_genlaguerre,
)
from tests.reference import radial_PQ

mpmath.mp.dps = 40

CHANNELS = (ChannelIndex(0.5), ChannelIndex(-1.5))

# The crosscheck contract for closed first-order integrals against their
# quadrature, on the scale of the channel's largest integral.
QUADRATURE_TOL = 1e-12

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
    """Sturmian doublet (S, T) of one index at the point r, or as arrays at
    each point of the sequence r, from the shared kernel."""
    c = _channel(ch, spec)
    x = (4.0 * spec.Z * np.atleast_1d(np.asarray(r, dtype=float))).tolist()
    s, t = _doublets(c, abs(n_r), *_sturmian_parts(c, x, abs(n_r)))[n_r < 0]
    return (s[0], t[0]) if np.ndim(r) == 0 else (np.array(s), np.array(t))


def _integrals(n_r: int, ch: ChannelIndex, spec: AtomSpec) -> tuple[float, float, float]:
    """Closed (plain, mu_weighted, mu) of one index."""
    return _index_integrals(_channel(ch, spec), abs(n_r))[n_r < 0]


def _one_rule_per_integrand(
    n_r: int, ch: ChannelIndex, spec: AtomSpec, nodes: int
) -> tuple[float, float]:
    """(plain, mu_weighted) of one index on a ``nodes``-point Gauss-Laguerre
    rule, one quadrature per integrand, each integrand evaluated on its own
    from the nodes r it is passed."""
    c = _channel(ch, spec)
    rule = laguerre_rule(gamma_half(spec) + gamma_kappa(spec, ch) + 1.0, nodes)
    mu_val = _integrals(n_r, ch, spec)[2]

    def integrand(weight):
        def func(r):
            x = [4.0 * spec.Z * ri for ri in r]
            p, q = _radial_pq(c, x)
            s, t = _doublets(c, abs(n_r), *_sturmian_parts(c, x, abs(n_r)))[n_r < 0]
            return [ri * (weight * pi * si + qi * ti) for ri, pi, si, qi, ti in zip(r, p, s, q, t)]

        return func

    return (
        gauss_laguerre_integral(integrand(1.0), rule, 4.0 * spec.Z),
        gauss_laguerre_integral(integrand(mu_val), rule, 4.0 * spec.Z),
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

    @pytest.mark.parametrize("z", [1e-3, 26.0, 68.5])
    def test_channel_laguerre_values_are_laguerre_bit_for_bit(self, z):
        # The channel's one recurrence gives each degree the bits of the
        # recurrence of order 2 gamma_kappa run to that degree alone, on its
        # nodes and at random points.
        spec = AtomSpec(z, "planar")
        rng = np.random.default_rng(29)
        for ch in CHANNELS:
            c = _channel(ch, spec)
            # The points 4Z r at the nodes r = x / 4Z of the channel's
            # 32-node rule, as channel_first_order_integrals forms them.
            scale = 4.0 * c.z
            x_nodes = [scale * (x / scale) for x in laguerre_rule(c.g + c.gk + 1.0, 32)[0]]
            x_random = rng.uniform(0.0, 60.0, 16).tolist()
            for x in (x_nodes, x_random):
                table = _sturmian_parts(c, x, 31)[1]
                assert len(table) == 33
                for n in range(-1, 32):
                    want = _laguerre_table(n, 2.0 * c.gk, x)[-1]
                    assert [float.hex(v) for v in table[n + 1]] == [float.hex(v) for v in want]

    @pytest.mark.parametrize("z", [1e-3, 26.0, 68.5])
    def test_ground_doublet_matches_radial_pq(self, z):
        # The quadrature's plain-float (P, Q) against reference.radial_PQ.
        spec = AtomSpec(z, "planar")
        c = _channel(CHANNELS[0], spec)
        r = np.random.default_rng(31).uniform(0.0, 60.0, 16) / (4.0 * z)
        p, q = _radial_pq(c, (4.0 * z * r).tolist())
        want_p, want_q = radial_PQ(spec, r)
        np.testing.assert_allclose(p, want_p, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(q, want_q, rtol=1e-14, atol=0.0)

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
        assert len(nodes) == len(weights) == 16
        np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_exact_through_degree_31(self, alpha):
        # integral of x**(alpha + k) e**-x over (0, inf) is Gamma(alpha + k + 1).
        nodes, weights = roots_genlaguerre(alpha)
        for k in range(32):
            moment = math.fsum(w * x**k for x, w in zip(nodes, weights))
            assert moment == pytest.approx(math.gamma(alpha + k + 1.0), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_m_nodes_are_exact_through_degree_2m_minus_1(self, alpha):
        # m = 16 is the default rule of test_exact_through_degree_31.
        for m in range(1, 16):
            nodes, weights = roots_genlaguerre(alpha, m)
            assert len(nodes) == len(weights) == m
            assert all(0.0 < a < b for a, b in zip(nodes, nodes[1:]))
            for k in range(2 * m):
                moment = math.fsum(w * x**k for x, w in zip(nodes, weights))
                assert moment == pytest.approx(math.gamma(alpha + k + 1.0), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_at_least_as_close_to_mpmath_as_scipy(self, alpha):
        # The worst relative error over nodes and weights, against the rule
        # polished to 40 digits: each node by Newton steps on the
        # recurrence in mpmath, each weight from
        # Gamma(m + alpha + 1) x / (m! (m + 1)**2 L_{m+1}(x)**2).
        from scipy.special import roots_genlaguerre as scipy_roots_genlaguerre

        m, a = 16, mpmath.mpf(alpha)

        def lag(n, order, x):
            prev, cur = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(n):
                prev, cur = cur, ((2 * k + order + 1 - x) * cur - (k + order) * prev) / (k + 1)
            return cur

        nodes, weights = roots_genlaguerre(alpha, m)
        ref = []
        for x0 in nodes:
            x = mpmath.mpf(x0)
            for _ in range(5):
                x += lag(m, a, x) / lag(m - 1, a + 1, x)
            w = mpmath.gamma(m + a + 1) * x / (mpmath.factorial(m) * (m + 1) ** 2 * lag(m + 1, a, x) ** 2)
            ref.append((x, w))

        def worst(rule_nodes, rule_weights):
            return max(
                max(abs(float(mpmath.mpf(x) / rx - 1)), abs(float(mpmath.mpf(w) / rw - 1)))
                for x, w, (rx, rw) in zip(rule_nodes, rule_weights, ref)
            )

        ref_nodes, ref_weights = scipy_roots_genlaguerre(m, alpha)
        assert worst(nodes, weights) <= worst(ref_nodes.tolist(), ref_weights.tolist())

    @pytest.mark.parametrize("alpha", [-1.0, -2.5, math.nan, -math.inf, math.inf])
    def test_rejects_non_integrable_weight(self, alpha):
        with pytest.raises(ValueError, match="weight_power must exceed -1"):
            roots_genlaguerre(alpha)

    @pytest.mark.parametrize("alpha", [170.7, 171.0, 1e6, 1.7e308])
    @pytest.mark.parametrize("rule", [roots_genlaguerre, laguerre_rule])
    def test_refuses_a_weight_power_whose_gamma_overflows(self, rule, alpha):
        # Gamma(alpha + 1) is not a double above alpha of about 170.6; the
        # refusal names the weight power, not the math library's overflow.
        with pytest.raises(ValueError, match=re.escape(f"overflows for weight_power={alpha!r}")):
            rule(alpha, 4)

    def test_rejects_an_empty_rule(self):
        with pytest.raises(ValueError, match="nodes must be at least 1"):
            roots_genlaguerre(0.5, 0)

    def test_refuses_nodes_out_of_order(self):
        # For a large weight power and many nodes, Newton from the gaulag
        # guess lands at or below the node before; the rule is refused, not
        # returned short of a node.
        with pytest.raises(ConvergenceError, match="missed node 73 of the 80-node"):
            roots_genlaguerre(20.0, 80)

    def test_refuses_weights_that_underflow(self):
        # The smallest weights of a 201-node rule underflow to zero, where
        # the pre-scaled weights would take their log; the refusal names
        # the node count, for the channel integrals that ask for it too.
        assert min(roots_genlaguerre(3.0, 200)[1]) == 0.0
        with pytest.raises(ValueError, match="the 200-node Gauss-Laguerre rule"):
            laguerre_rule(3.0, 200)
        with pytest.raises(ValueError, match="the 201-node Gauss-Laguerre rule"):
            channel_first_order_integrals(ChannelIndex(-1.5), AtomSpec(26), 200)


class TestGaussLaguerreIntegral:
    # The integrand itself is multiplied by the rule's pre-scaled weights:
    # moments, a sign change and an identically zero integrand, over weight
    # powers and scales that span the oracle's and more.
    POWERS = (-0.9, 0.0, 1.37, 3.5)
    SCALES = (0.004, 4.0, 272.0)

    @pytest.mark.parametrize("power", POWERS)
    @pytest.mark.parametrize("scale", SCALES)
    def test_moments(self, power, scale):
        # integral of (s r)**(p + k) e**(-s r) dr over (0, inf) is Gamma(p + k + 1) / s.
        rule = laguerre_rule(power)
        for k in range(32):
            got = gauss_laguerre_integral(
                lambda r: (scale * np.asarray(r)) ** (power + k) * np.exp(-scale * np.asarray(r)),
                rule,
                scale,
            )
            assert got == pytest.approx(math.gamma(power + k + 1.0) / scale, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("power", POWERS)
    @pytest.mark.parametrize("scale", SCALES)
    def test_sign_changing_integrand(self, power, scale):
        # L_1^(p)(x) = p + 1 - x changes sign at x = p + 1 and is orthogonal
        # to 1 under the weight x**p e**-x, so the integral vanishes.
        def func(r):
            x = scale * np.asarray(r)
            return (power + 1.0 - x) * x**power * np.exp(-x)

        got = gauss_laguerre_integral(func, laguerre_rule(power), scale)
        assert abs(got) <= 1e-13 * math.gamma(power + 1.0) / scale

    @pytest.mark.parametrize("power", POWERS)
    @pytest.mark.parametrize("scale", SCALES)
    def test_zero_integrand_is_exactly_zero(self, power, scale):
        assert gauss_laguerre_integral(np.zeros_like, laguerre_rule(power), scale) == 0.0

    @pytest.mark.parametrize("count", [1, 6])
    def test_rejects_values_not_one_per_node(self, count):
        # Four nodes: a shorter or longer list of values is not silently cut.
        with pytest.raises(ValueError, match="zip"):
            gauss_laguerre_integral(lambda r: [1.0] * count, laguerre_rule(0.0, 4), 1.0)

    @pytest.mark.parametrize("scale", [-1.0, math.inf, math.nan, 0.0])
    def test_rejects_scale_not_finite_and_positive(self, scale):
        # The nodes r = x / scale must lie in (0, inf).
        with pytest.raises(ValueError, match="scale must be finite and positive"):
            gauss_laguerre_integral(lambda r: [math.exp(-ri) for ri in r], laguerre_rule(0.0), scale)


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

    @pytest.mark.parametrize("kappa", [0.5, -1.5])
    def test_quadrature_is_exact_up_to_index_40(self, kappa):
        # The rule grows with n_max: 41 nodes integrate |n_r| <= 40, where
        # a fixed 16-node rule is exact only through |n_r| = 31.
        pairs = channel_first_order_integrals(ChannelIndex(kappa), AtomSpec(26.0, "planar"), 40)
        assert len(pairs) == 81
        scale = max(max(abs(a.plain), abs(a.mu_weighted)) for a, _ in pairs)
        for exact, quad in pairs:
            assert abs(exact.plain - quad.plain) <= QUADRATURE_TOL * scale
            assert abs(exact.mu_weighted - quad.mu_weighted) <= QUADRATURE_TOL * scale

    @pytest.mark.parametrize("z", [0.05, 26.0, 68.0])
    def test_quadrature_equals_one_rule_per_integrand(self, z):
        # Each integrand rebuilt from the doublets and integrated on its own:
        # sharing the doublet evaluations must not move a single bit.
        spec = AtomSpec(z, "planar")
        for ch in CHANNELS:
            pairs = channel_first_order_integrals(ch, spec, 3)
            for n_r, (_, quad) in zip(range(-3, 4), pairs):
                plain, weighted = _one_rule_per_integrand(n_r, ch, spec, 4)
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
                plain_quad, weighted_quad = _one_rule_per_integrand(n_r, ch, spec, 4)
                for got, want in (
                    (exact, (plain_exact, weighted_exact)),
                    (quad, (plain_quad, weighted_quad)),
                ):
                    assert float.hex(got.plain) == float.hex(want[0])
                    assert float.hex(got.mu_weighted) == float.hex(want[1])

    def test_integral_bits_are_pinned(self):
        # Every closed and quadrature integral, not only the largest
        # deviation the crosscheck prints: the SHA-256 of their float.hex
        # over both channels, three rule sizes and three charges.
        digest = hashlib.sha256()
        for z in (1e-3, 12.3456, 68.5):
            spec = AtomSpec(z, "planar")
            for ch in CHANNELS:
                for n_max in (0, 2, 3):
                    for pairs in channel_first_order_integrals(ch, spec, n_max):
                        for pair in pairs:
                            digest.update(" ".join(map(float.hex, pair)).encode() + b"\n")
        assert digest.hexdigest() == (
            "824bc75f41c9901b13670e362f729b5f002271df6d1c0964a1040d78ba4517fd"
        )

    def test_rejects_negative_n_max(self):
        # Named as the caller's argument, not as the n_max + 1 node rule.
        with pytest.raises(ValueError, match="n_max must be non-negative, got -1"):
            channel_first_order_integrals(ChannelIndex(0.5), AtomSpec(26.0, "planar"), -1)

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
            closed = r_channel_closed(ch, spec)
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


class TestSmallestCharge:
    # At Z = 1e-100, Z**4 is 0: the series read inf and the first-order
    # integrals about 1e199 before the closed form's refusal came first.
    MESSAGE = r"Z=1e-100 is below the smallest allowed charge, about 1\.221e-77"

    @pytest.mark.parametrize("ch", CHANNELS)
    def test_series_shares_the_closed_form_check(self, ch):
        with pytest.raises(ValueError, match=self.MESSAGE):
            r_channel_series(ch, AtomSpec(1e-100, "planar"))

    @pytest.mark.parametrize("ch", CHANNELS)
    def test_first_order_integrals_share_the_closed_form_check(self, ch):
        with pytest.raises(ValueError, match=self.MESSAGE):
            channel_first_order_integrals(ch, AtomSpec(1e-100, "planar"), 1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_series_refuses_the_charge_before_the_tolerance(self, tol):
        with pytest.raises(ValueError, match=self.MESSAGE):
            r_channel_series(CHANNELS[0], AtomSpec(1e-100, "planar"), tol)


@pytest.mark.parametrize(
    "tol, message",
    [
        (0.0, "tol must be positive, got 0.0"),
        (-1e-12, "tol must be positive, got -1e-12"),
        (math.nan, "tol must be positive, got nan"),
        (math.inf, "tol must be finite, got inf"),
    ],
)
def test_series_and_3f2_refuse_a_tolerance_alike(tol, message):
    spec = AtomSpec(26.0, "planar")
    for call in (
        lambda: hyp3f2_unit(Hyp3F2Params(0.5, 0.5, 0.5, 2.0, 2.0), tol),
        lambda: r_channel_series(CHANNELS[0], spec, tol),
        lambda: polarizability_sturmian(spec, tol),
    ):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


def _pinned_charges() -> list[float]:
    """40 seeded planar charges log-uniform over [1e-3, Z_crit), then 12.3456
    and 68.5."""
    rng = random.Random(16)
    lo, hi = math.log(1e-3), math.log(critical_charge("planar"))
    return [math.exp(rng.uniform(lo, hi)) for _ in range(40)] + [12.3456, 68.5]


class TestCaches:
    # SHA-256 of the concatenated crosscheck --format json stdout of
    # _pinned_charges(), taken before channels and index integrals were
    # cached, and taken again when the quadrature moved to an n_max + 1 node
    # Newton rule, which changed only the quadrature_max_dev fields.
    PINNED = "d66b23b20754c59e27a00ab6bf69544321157c995de00588ddab8f6bd8fc8c43"
    CACHES = (_channel, _log_factorial)

    @staticmethod
    def _crosscheck(capsys, z: float, *extra: str) -> str:
        assert run(["crosscheck", "--Z", repr(z), "--format", "json", *extra]) == 0
        return capsys.readouterr().out

    @staticmethod
    def _digest(outputs) -> str:
        return hashlib.sha256("".join(outputs).encode()).hexdigest()

    def test_crosscheck_bytes_are_pinned_cold_and_warm(self, capsys):
        charges = _pinned_charges()
        cold = []
        for z in charges:
            _channel.cache_clear()
            cold.append(self._crosscheck(capsys, z))
        assert self._digest(cold) == self.PINNED
        # Warm: each charge finds the channels of whichever charge ran
        # before it, and its own rows from its first pass over each series.
        order = list(range(len(charges)))
        random.Random(61).shuffle(order)
        warm = {i: self._crosscheck(capsys, charges[i]) for i in order}
        assert self._digest(warm[i] for i in range(len(charges))) == self.PINNED

    def test_caches_are_bounded(self, capsys):
        assert _channel.cache_info().maxsize == 2
        for cache in self.CACHES:
            assert cache.cache_info().maxsize is not None
        # Three charges near critical need 700-788 indices each at the tol
        # floor; each channel holds them all, and only the last 2 channels
        # are kept.
        zc = critical_charge("planar")
        rng = random.Random(50)
        charges = [math.exp(rng.uniform(math.log(1e-3), math.log(zc))) for _ in range(47)]
        charges += [68.5, math.nextafter(zc, 0.0), 68.51]
        for z in charges:
            self._crosscheck(capsys, z, "--tol", "1e-12")
        for cache in self.CACHES:
            info = cache.cache_info()
            assert info.currsize <= info.maxsize

    def test_each_crosscheck_builds_one_rule_per_channel(self, capsys, monkeypatch):
        # No rule outlives a call: each crosscheck builds the 4-node rules of
        # its two channels, whether its charge is new or the one before.
        roots, calls = sturmian.roots_genlaguerre, []

        def counted(*args):
            calls.append(args)
            return roots(*args)

        monkeypatch.setattr(sturmian, "roots_genlaguerre", counted)
        for z, total in ((26.0, 2), (26.0, 4), (12.3456, 6)):
            self._crosscheck(capsys, z)
            assert len(calls) == total
        assert [nodes for _, nodes in calls] == [4] * 6

    @pytest.mark.parametrize("z", [1e-3, 12.3456, 68.5])
    def test_cached_values_equal_fresh_values(self, z):
        # Read back after the series has filled the channel's rows, every
        # row has the bits of a fresh channel's evaluation, and is
        # immutable; the channel holds the rows of its series and no others.
        spec = AtomSpec(z, "planar")
        _channel.cache_clear()
        for ch in CHANNELS:
            _, diag = r_channel_series(ch, spec, 1e-12)
            c, fresh_c = _channel(ch, spec), _channel.__wrapped__(ch, spec)
            assert [None if v is None else float.hex(v) for v in c[:-1]] == [
                None if v is None else float.hex(v) for v in fresh_c[:-1]
            ]
            indices = range((diag.terms_used + 1) // 2)
            assert sorted(c.rows) == list(indices)
            for n in indices:
                cached = _index_integrals(c, n)
                assert cached is c.rows[n]
                assert isinstance(cached, tuple)
                assert all(isinstance(row, tuple) for row in cached)
                fresh = _index_integrals(fresh_c, n)
                assert [[float.hex(v) for v in row] for row in cached] == [
                    [float.hex(v) for v in row] for row in fresh
                ]

    @pytest.mark.parametrize("z", [1, 26, 68])
    def test_integer_and_float_charge_give_same_bytes(self, z):
        # AtomSpec(26) and AtomSpec(26.0) are one cache key, so they share
        # one channel and its rows; cold or warm, either spelling must give
        # the same values of the same types.
        def outputs(spec):
            values = []
            for ch in CHANNELS:
                values.append(r_channel_series(ch, spec, 1e-12))
                values.append(channel_first_order_integrals(ch, spec, 3))
            values.append(polarizability_sturmian(spec, 1e-12))
            return repr(values)

        runs = []
        for first, second in ((z, float(z)), (float(z), z)):
            _channel.cache_clear()
            runs.append(outputs(AtomSpec(first, "planar")))
            runs.append(outputs(AtomSpec(second, "planar")))
            for ch in CHANNELS:
                assert _channel(ch, AtomSpec(first, "planar")) is _channel(
                    ch, AtomSpec(second, "planar")
                )
        assert len(set(runs)) == 1

    @pytest.mark.parametrize("z", [26, np.float64(26.0), True])
    def test_channel_holds_plain_floats(self, z):
        # Every spelling of an equal charge shares the entry of the first,
        # so the entry must not carry the first caller's number type.
        for ch in (ChannelIndex(0.5), ChannelIndex(np.float64(-1.5))):
            c = _channel.__wrapped__(ch, AtomSpec(z, "planar"))
            assert all(type(v) is float for v in c[:-1] if v is not None)

    def test_errors_are_not_cached(self, capsys, monkeypatch):
        # At this charge _channel succeeds and _index_integrals(c, 1) of
        # kappa = -3/2 reaches log_gamma(0.0) (the n = 1 Gamma ratio of
        # _gamma_shift_ratio): a cached channel must not turn the second call
        # into anything else, and holds no row for the index that raised.
        argv = ["crosscheck", "--Z", "1.6424084441835034e-06"]
        first = (run(argv), capsys.readouterr())
        second = (run(argv), capsys.readouterr())
        assert first == second
        assert first[0] == 2 and "log_gamma requires x > 0" in first[1].err
        weak = AtomSpec(1.6424084441835034e-06, "planar")
        assert sorted(_channel(CHANNELS[1], weak).rows) == [0]
        argv = ["crosscheck", "--Z", "26", "--tol", "-1"]
        assert (run(argv), capsys.readouterr()) == (run(argv), capsys.readouterr())
        # The same at any charge: the fifth _gamma_shift_ratio call of a cold
        # crosscheck raises, after its channels and first index integrals
        # are cached.  Restored, the next run prints the bytes of a run from
        # cleared caches.
        argv = ["crosscheck", "--Z", "26", "--format", "json"]
        ratio, calls = sturmian._gamma_shift_ratio, []

        def failing_fifth(*args):
            calls.append(args)
            if len(calls) == 5:
                raise ValueError("injected failure")
            return ratio(*args)

        _channel.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(sturmian, "_gamma_shift_ratio", failing_fifth)
            assert run(argv) == 2
            assert capsys.readouterr() == ("", "error: injected failure\n")
        assert len(calls) == 5
        assert sorted(_channel(CHANNELS[0], AtomSpec(26.0, "planar")).rows) == [0, 1, 2, 3]
        after_failure = (run(argv), capsys.readouterr())
        _channel.cache_clear()
        assert after_failure == (run(argv), capsys.readouterr())
        assert after_failure[0] == 0

    @pytest.mark.parametrize("tol", [-1e-12, 0.0, math.nan, math.inf])
    def test_invalid_tol_raises_on_every_call(self, tol):
        spec = AtomSpec(26.0, "planar")
        for _ in range(2):
            for ch in CHANNELS:
                with pytest.raises(ValueError, match="tol must be"):
                    r_channel_series(ch, spec, tol)
            with pytest.raises(ValueError, match="tol must be"):
                polarizability_sturmian(spec, tol)

    @pytest.mark.parametrize("ch", CHANNELS)
    def test_refused_charge_raises_on_every_call(self, ch):
        for _ in range(2):
            with pytest.raises(ValueError, match="below the smallest allowed charge"):
                r_channel_series(ch, AtomSpec(1e-100, "planar"))


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
            sampled = np.array(_laguerre_table(n, a, nodes.tolist())[-1])
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
