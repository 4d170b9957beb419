"""Tests of the special-function kernels: log-gamma, gamma ratios,
Laguerre recurrence, and the 3F2 series at unit argument."""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from functools import reduce
from itertools import accumulate
from operator import add, mul
from pathlib import Path

import hypothesis
import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from diracpol import _numpy_producer, polarizability, specfun
from diracpol.atom import ALPHA_INV_CODATA2014, AtomSpec, critical_charge
from diracpol.specfun import (
    MAX_TERMS,
    TOL_FLOOR,
    ConvergenceError,
    Hyp3F2Params,
    SeriesDiagnostics,
    hyp3f2_unit,
    log_gamma,
)
from diracpol._numpy_producer import _exact_sum
from diracpol.sturmian import _laguerre_table, laguerre_rule
from tests.reference import gamma_ratio, hyp3f2_contiguous_rhs

mpmath.mp.dps = 40


class TestLogGamma:
    def test_gamma_of_one_is_exactly_zero(self):
        assert log_gamma(1.0) == 0.0

    def test_gamma_of_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)

    def test_infinity_gives_infinity(self):
        assert log_gamma(math.inf) == math.inf == math.lgamma(math.inf)

    def test_gamma_of_ten_is_log_nine_factorial(self):
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)

    def test_ulp_accuracy_against_mpmath(self):
        # 4 ulp relative accuracy over (0, 300], including the
        # neighbourhoods of the zeros at x = 1 and x = 2.
        rng = np.random.default_rng(7)
        xs = np.concatenate(
            [
                np.geomspace(1e-3, 300.0, 160),
                rng.uniform(0.01, 300.0, 160),
                np.arange(0.5, 300.0, 7.5),
                np.linspace(0.95, 1.05, 40),
                np.linspace(1.95, 2.05, 40),
                np.linspace(1.4, 1.5, 20),
            ]
        )
        eps = np.finfo(float).eps
        for x in xs:
            exact = mpmath.loggamma(mpmath.mpf(float(x)))
            got = log_gamma(float(x))
            if exact == 0:
                assert got == 0.0
                continue
            rel = float(abs(mpmath.mpf(got) - exact) / abs(exact))
            assert rel <= 4.0 * eps

    def test_one_step_recurrence_adds_two_pieces_as_fsum_does(self):
        # On (3, 4) ln Gamma(x) is the series at x - 3 plus ln(x - 1), added
        # once; a correctly rounded addition of two doubles is fsum's value.
        rng = np.random.default_rng(34)
        xs = [math.nextafter(3.0, 4.0), math.nextafter(4.0, 3.0)]
        xs += (3.0 + rng.random(100_000)).tolist()
        for x in xs:
            if 3.0 < x < 4.0:
                pieces = [specfun._reduced_series(x - 3.0, 2), math.log(x - 1.0)]
                assert log_gamma(x) == math.fsum(pieces), x

    @pytest.mark.parametrize(
        "x, bits",
        [
            (0.3, "0x1.188637a6c4196p+0"),
            (0.999, "0x1.2f0f04c1bbb44p-11"),
            (1.2, "-0x1.5db138c7d70c7p-4"),
            (1.7, "-0x1.886da6f118371p-4"),
            (2.0001, "0x1.62af2b5e4f9fbp-15"),
            (2.95, "0x1.4b85c23ebb331p-1"),
            (5.9, "0x1.2789e7e634b23p+2"),
            (11.5, "0x1.04ac08b1145d1p+4"),
        ],
    )
    def test_pinned_bits_of_both_zeta_series(self, x, bits):
        # Bits of the series around 1 and 2 and of the recurrence onto them;
        # the closed form and the table inherit these exact values.
        assert float.hex(log_gamma(x)) == bits

    def test_pinned_bits_on_a_grid(self):
        # float.hex of every value on (0, 30] and within 50 * 2**-40 of 1 and
        # 2, hashed; the hash was taken before the series signs were folded
        # into the coefficient tables, and every branch must keep its bits.
        grid = [30.0 * k / 20_000 for k in range(1, 20_001)]
        grid += [c + j * 2.0**-40 for c in (1.0, 2.0) for j in range(-50, 51) if j]
        bits = "\n".join(float.hex(log_gamma(x)) for x in grid)
        assert hashlib.sha256(bits.encode()).hexdigest() == (
            "fef6bfdb9be5169f8b05eeb8ea0498efa1de17e0f37b1279e7680336ac4a5809"
        )


class TestSeriesCache:
    # log_gamma keeps the last _SERIES_CACHE series values, keyed by the
    # reduced argument t and the expansion point.  Every branch that sums a
    # series, and ladders x0 + n that reduce to a few t, must give the bits
    # of the same reduction with each series summed afresh.
    XS = [
        0.3, 0.75,  # (0, 1): the series about 1, then about 2
        1.2, 1.25, 1.7, 2.0,  # (1, 2]
        2.25, 2.5, 3.0,  # (2, 3]; 2.25 shares t = 0.25 with 1.25
        4.0, 5.9, 11.5,  # (3, 12); 4.0 reduces to t = +0.0
        *(x0 + n for x0 in (0.3, 0.75, 1.2, 2.5, 3.3) for n in range(13)),
    ]

    def test_cached_values_keep_the_uncached_bits(self, monkeypatch):
        specfun._reduced_series.cache_clear()
        first = [log_gamma(x).hex() for x in self.XS]
        assert specfun._reduced_series.cache_info().hits > 0  # within the ladders
        again = [log_gamma(x).hex() for x in self.XS]
        with pytest.raises(ValueError):
            log_gamma(0.0)
        monkeypatch.setattr(specfun, "_reduced_series", specfun._reduced_series.__wrapped__)
        fresh = [log_gamma(x).hex() for x in self.XS]
        assert first == again == fresh

    def test_a_table_leaves_at_most_maxsize_entries(self):
        from diracpol.tablegen import generate_table

        generate_table(1, 68)
        info = specfun._reduced_series.cache_info()
        assert info.maxsize == specfun._SERIES_CACHE == 32
        assert 0 < info.currsize <= info.maxsize


class TestGammaRatio:
    def test_integer_factorials(self):
        assert gamma_ratio([4.0, 4.0], [5.0, 4.0]) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("x", [0.3, 1.0, 17.5, 250.0])
    def test_identity(self, x):
        assert gamma_ratio([x], [x]) == pytest.approx(1.0, rel=1e-15)

    def test_shift_by_one(self):
        assert gamma_ratio([2.5], [1.5]) == pytest.approx(1.5, rel=1e-15)

    def test_no_overflow_for_large_arguments(self):
        value = gamma_ratio([300.0, 10.0], [299.0, 11.0])
        assert value == pytest.approx(299.0 / 10.0, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_ratio([1.0, -2.0], [3.0])


def _laguerre(n: int, alpha: float, x: float) -> float:
    """L_n^(alpha)(x) from the plain-float table of every degree."""
    return _laguerre_table(n, alpha, [x])[-1][0]


class TestLaguerre:
    def test_degree_minus_one_is_zero(self):
        assert _laguerre_table(-1, 1.23, [0.7]) == [(0.0,)]
        assert _laguerre_table(-1, 0.4, [0.0, 2.0]) == [(0.0, 0.0)]

    def test_degree_zero_is_one(self):
        assert _laguerre_table(0, 0.9, [5.0]) == [(0.0,), (1.0,)]

    def test_degree_one(self):
        alpha, x = 1.7, 0.3
        assert _laguerre(1, alpha, x) == pytest.approx(alpha + 1.0 - x, rel=1e-15)

    def test_value_at_origin(self):
        assert _laguerre(2, 0.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(0, 30))
            alpha = float(rng.uniform(-0.9, 6.0))
            x = float(rng.uniform(0.0, 40.0))
            assert _laguerre(n, alpha, x) == pytest.approx(
                float(eval_genlaguerre(n, alpha, x)), rel=1e-10, abs=1e-12
            )

    def test_recurrence_residual(self):
        # |(n+1) L_{n+1} - (2n+alpha+1-x) L_n + (n+alpha) L_{n-1}| stays at
        # the rounding floor of its largest contribution, up to n = 200.
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha = float(rng.uniform(-0.5, 5.0))
            x = float(rng.uniform(0.0, 60.0))
            table = [row[0] for row in _laguerre_table(201, alpha, [x])]
            for n in range(1, 201, 7):
                low, mid, high = table[n : n + 3]
                terms = ((n + 1) * high, (2 * n + alpha + 1 - x) * mid, (n + alpha) * low)
                residual = abs(terms[0] - terms[1] + terms[2])
                scale = max(abs(t) for t in terms)
                assert residual <= 8.0 * math.ulp(max(scale, 1.0))

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 1.0, 2.9, 9.05])
    def test_table_is_laguerre_bit_for_bit(self, alpha):
        # One run of the recurrence gives every degree the value of the
        # recurrence run to that degree on its own in plain floats, on
        # quadrature nodes and at random points, over many points and at
        # one point at a time.
        rng = np.random.default_rng(23)
        points = [list(laguerre_rule(power)[0]) for power in (alpha, 1.37)]
        points.append(rng.uniform(0.0, 60.0, 16).tolist())
        for xs in points:
            table = _laguerre_table(31, alpha, xs)
            assert len(table) == 33
            for n in range(-1, 32):
                want = [float.hex(_laguerre_one_degree(n, alpha, x)) for x in xs]
                assert [float.hex(v) for v in table[n + 1]] == want
                for x, v in zip(xs[::5], want[::5]):
                    assert float.hex(_laguerre(n, alpha, x)) == v


def _laguerre_one_degree(n: int, alpha: float, x: float) -> float:
    """L_n^(alpha)(x) by the recurrence that _laguerre_table runs, on one float."""
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, ((2 * k + alpha + 1.0 - x) * cur - (k + alpha) * prev) / (k + 1.0)
    return prev if n == -1 else cur


def _term_ratios_oracle(p: Hyp3F2Params, k: np.ndarray) -> np.ndarray:
    return (p.a1 + k) * (p.a2 + k) * (p.a3 + k) / ((p.b1 + k) * (p.b2 + k) * (1.0 + k))


def _direct_sum(p: Hyp3F2Params, n_terms: int) -> float:
    """Independent plain summation of the defining series (test oracle)."""
    k = np.arange(n_terms - 1, dtype=float)
    terms = np.concatenate([[1.0], np.cumprod(_term_ratios_oracle(p, k))])
    return math.fsum(terms)


class TestHyp3F2Unit:
    def test_zero_numerator_gives_one(self):
        value, diag = hyp3f2_unit(Hyp3F2Params(0.0, 3.3, -2.2, 1.5, 4.0))
        assert value == 1.0
        assert diag.terms_used == 1
        assert diag.tail_estimate == 0.0

    def test_two_term_truncating_series(self):
        value, diag = hyp3f2_unit(Hyp3F2Params(-1.0, 1.0, 1.0, 2.0, 2.0))
        assert value == pytest.approx(0.75, rel=1e-15)
        assert diag.terms_used == 2

    def test_gauss_summation_case(self):
        # a3 = b1 reduces the series to a 2F1 at unit argument with the
        # closed Gauss value; its slow k**-2 tail limits the feasible tol.
        value, diag = hyp3f2_unit(Hyp3F2Params(0.5, 0.5, 1.0, 1.0, 2.0), tol=1e-5)
        assert diag.tail_estimate <= 1e-5
        assert value == pytest.approx(4.0 / math.pi, rel=1e-4)

    def test_truncation_term_count_bound(self):
        for a in (-1.0, -4.0, -9.0):
            _, diag = hyp3f2_unit(Hyp3F2Params(a, 2.7, 1.9, 3.1, 4.2))
            assert diag.terms_used <= int(-a) + 1

    def test_truncating_exactness(self):
        p = Hyp3F2Params(-3.0, 1.2, 2.5, 3.4, 2.2)
        value, _ = hyp3f2_unit(p)
        exact = float(mpmath.hyp3f2(-3, "1.2", "2.5", "3.4", "2.2", 1))
        assert value == pytest.approx(exact, rel=5e-16)

    def test_matches_mpmath_on_channel_like_parameters(self):
        for d, b2 in ((1.05, 3.2), (1.3, 3.9), (1.414, 3.83)):
            p = Hyp3F2Params(d - 1, d - 1, d + 1, d + 2, b2)
            value, diag = hyp3f2_unit(p, tol=1e-16)
            exact = float(
                mpmath.hyp3f2(p.a1, p.a2, p.a3, p.b1, p.b2, 1, maxterms=10**7)
            )
            assert diag.tail_estimate <= 1e-16
            assert value == pytest.approx(exact, rel=5e-15)

    def test_divergent_parameters_raise(self):
        with pytest.raises(ConvergenceError):
            hyp3f2_unit(Hyp3F2Params(3.0, 3.0, 3.0, 1.0, 1.0))

    def test_invalid_denominator_raises(self):
        with pytest.raises(ValueError):
            Hyp3F2Params(1.0, 1.0, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            Hyp3F2Params(1.0, 1.0, 1.0, 2.0, -3.0)

    def test_tolerance_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hyp3f2_unit(Hyp3F2Params(0.5, 0.5, 0.5, 2.0, 2.0), tol=0.0)

    def test_tolerance_rejects_infinity(self):
        # An infinite tol would pass the stop test after the first chunk.
        with pytest.raises(ValueError, match="tol must be finite"):
            hyp3f2_unit(Hyp3F2Params(0.5, 0.5, 0.5, 2.0, 2.0), tol=math.inf)

    def test_monotone_partial_sums_and_tail_dominates_remainder(self):
        # For all-positive parameters the terms are positive, so partial
        # sums increase monotonically; the reported tail estimate must
        # dominate the true remainder measured against a 10x longer sum.
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 25:
            a = rng.uniform(0.1, 5.0, 3)
            b = rng.uniform(0.5, 8.0, 2)
            p = Hyp3F2Params(*a, *b)
            if p.balance() < 2.0:
                continue
            value, diag = hyp3f2_unit(p, tol=1e-9)
            assert diag.tail_estimate <= 1e-9
            n_used = diag.terms_used
            k = np.arange(n_used - 1, dtype=float)
            terms = np.concatenate(
                [[1.0], np.cumprod(_term_ratios_oracle(p, k))]
            )
            assert np.all(terms > 0.0)  # hence monotone partial sums
            partial = _direct_sum(p, n_used)
            longer = _direct_sum(p, 10 * n_used)
            remainder = abs(longer - partial) / abs(longer)
            assert diag.tail_estimate >= remainder
            assert value == pytest.approx(longer, rel=1e-8)
            checked += 1

    def test_gauss_reduction_property(self):
        # Whenever a3 = b1 the value collapses to the Gauss closed form
        # G(b2) G(b2-a1-a2) / (G(b2-a1) G(b2-a2)).
        rng = np.random.default_rng(5)
        tol = 1e-7
        checked = 0
        while checked < 25:
            a1, a2 = rng.uniform(0.1, 3.0, 2)
            shared = rng.uniform(0.5, 6.0)
            b2 = a1 + a2 + rng.uniform(1.5, 5.0)
            p = Hyp3F2Params(a1, a2, shared, shared, b2)
            value, _ = hyp3f2_unit(p, tol=tol)
            closed = gamma_ratio([b2, b2 - a1 - a2], [b2 - a1, b2 - a2])
            assert abs(value - closed) / abs(closed) <= 10.0 * tol
            checked += 1


def _chunk_terms_reference(p: Hyp3F2Params, k: np.ndarray, t_last: float):
    """Ratios and terms of one block of k, as the unbatched loop formed them."""
    s = np.array([*p, 1.0])[:, None] + k
    np.multiply(s[0], s[1], out=s[0])
    np.multiply(s[0], s[2], out=s[0])
    np.multiply(s[3], s[4], out=s[3])
    np.multiply(s[3], s[5], out=s[3])
    ratios = np.divide(s[0], s[3], out=s[0])
    block = np.cumprod(ratios)
    block *= t_last
    return ratios, block


def _in_order_sum(block: np.ndarray) -> float:
    return reduce(add, block.tolist())


def _hyp3f2_unit_reference(p: Hyp3F2Params, tol: float, chunk_sum=_in_order_sum):
    """hyp3f2_unit as one 512-term chunk per numpy pass, each chunk tested
    before the next is computed against the running sum of the chunk sums,
    each chunk added in order unless ``chunk_sum`` says otherwise; summed by
    math.fsum.  A running sum, or a truncating series' term, that is not
    finite raises the overflow error."""
    tol = max(tol, TOL_FLOOR)
    n_trunc = p.truncation_order()
    if n_trunc is not None:
        _, block = _chunk_terms_reference(p, np.arange(n_trunc, dtype=float), 1.0)
        if not np.isfinite(block).all():
            raise ConvergenceError(f"3F2 series overflows in its terms t_1 to t_{n_trunc}")
        return math.fsum([1.0, *block.tolist()]), SeriesDiagnostics(n_trunc + 1, 0.0)
    balance = p.balance()
    if balance <= 0.0:
        raise ConvergenceError(
            f"series diverges at unit argument: b-sum - a-sum = {balance} <= 0"
        )
    k_safe = max(0.0, -p.a1, -p.a2, -p.a3, -p.b1, -p.b2)
    denom = balance - 1.0 if balance > 1.0 else balance
    blocks = [np.ones(1)]
    approx, t_last, k0 = 1.0, 1.0, 1
    while k0 <= MAX_TERMS:
        k = np.arange(k0 - 1, k0 - 1 + 512, dtype=float)
        ratios, block = _chunk_terms_reference(p, k, t_last)
        blocks.append(block)
        approx += chunk_sum(block)
        if not math.isfinite(approx):
            raise ConvergenceError(f"3F2 series overflows in its terms t_{k0} to t_{k0 + 511}")
        t_last = float(block[-1])
        k0 += 512
        if t_last == 0.0:
            break
        if k0 > k_safe + 2 and ratios.min() > 0.0 and ratios.max() < 1.0:
            tail = abs(t_last) * k0 / denom
            if tail <= tol * max(abs(approx), specfun._TINY):
                break
    else:
        raise ConvergenceError(
            f"3F2 series did not reach tol={tol:g} within {MAX_TERMS} terms"
        )
    value = math.fsum(np.concatenate(blocks).tolist())
    scale = max(abs(value), specfun._TINY)
    tail_rel = 0.0 if t_last == 0.0 else abs(t_last) * k0 / denom / scale
    return value, SeriesDiagnostics(k0, tail_rel)


def _outcome(f, *args):
    """float.hex of the value and tail estimate and the term count, or the
    type and message of the error raised."""
    try:
        value = f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(value, float):
        return value.hex()
    value, diag = value
    return value.hex(), diag.terms_used, diag.tail_estimate.hex()


def _closed_form_parameter_sets() -> list[Hyp3F2Params]:
    """The 3F2 parameters of the closed forms at seeded charges in both
    dimensions, at alpha_inv and alpha_inv +- 3.1e-4, each set including
    the largest subcritical charge."""
    captured = []

    def spy(p, tol=TOL_FLOOR):
        captured.append(p)
        return hyp3f2_unit(p, tol)

    rng = np.random.default_rng(1313)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polarizability, "hyp3f2_unit", spy)
        for alpha_inv in (ALPHA_INV_CODATA2014, ALPHA_INV_CODATA2014 + 3.1e-4, ALPHA_INV_CODATA2014 - 3.1e-4):
            for dim, closed in (("planar", polarizability.polarizability_planar), ("spatial", polarizability.polarizability_spatial)):
                z_crit = critical_charge(dim, alpha_inv)
                charges = z_crit * rng.random(60) ** 0.3
                for z in [*charges.tolist(), math.nextafter(z_crit, 0.0)]:
                    closed(AtomSpec(z, dim, alpha_inv))
    return captured


def _general_cases() -> list[tuple[Hyp3F2Params, float]]:
    """Seeded parameter sets with negative numerators and slow or fast
    convergence, log-uniform tol in [1e-16, 1e-6], truncating orders
    around 512 and 1024, and a series that reaches MAX_TERMS; then sets with
    a1 == a2, whose numerator product the numpy producer forms as a square,
    and one with a2 an ulp above a1, which it must not."""
    rng = np.random.default_rng(2024)
    cases = []
    while len(cases) < 75:
        a = rng.uniform(-6.0, 6.0, 3)
        b1 = rng.uniform(0.1, 8.0)
        balance = rng.uniform(0.0, 1.0) if len(cases) < 15 else rng.uniform(1.0, 4.0)
        b2 = a.sum() - b1 + balance
        if not balance > 0.0 or b2 <= 0.05 or b2 == round(b2):
            continue
        cases.append((Hyp3F2Params(*a, b1, b2), 10.0 ** rng.uniform(-16.0, -6.0)))
    for n in (511, 512, 513, 1023, 1024, 1025):
        a2, a3 = rng.uniform(0.1, 2.0, 2)
        b1, b2 = rng.uniform(2.0, 8.0, 2)
        cases.append((Hyp3F2Params(a2, -float(n), a3, b1, b2), 1e-12))
    cases.append((Hyp3F2Params(0.5, 0.5, 0.5, 1.0, 0.51), 1e-16))  # balance 0.01
    for n in (511, 512, 1024):
        # Denominators of order n keep the squared binomial terms finite.
        a3 = rng.uniform(0.1, 2.0)
        b1, b2 = rng.uniform(0.5 * n, 2.0 * n, 2)
        cases.append((Hyp3F2Params(-float(n), -float(n), a3, b1, b2), 1e-12))
    a1, a3 = rng.uniform(0.1, 2.0, 2)
    a2 = math.nextafter(a1, math.inf)
    b1 = rng.uniform(0.5, 2.0)
    cases.append((Hyp3F2Params(a1, a2, a3, b1, a1 + a2 + a3 - b1 + 3.5), 1e-12))
    return cases


@pytest.fixture(scope="module")
def closed_form_parameter_sets():
    return _closed_form_parameter_sets()


def _threshold_cases(parameter_sets: list[Hyp3F2Params]) -> list[tuple[Hyp3F2Params, float]]:
    """(p, tol) for which the one-chunk reference stops after another chunk
    when its running sum adds each chunk pairwise instead of in order: tol
    is tail / |running sum| at some chunk of p, within an ulp."""
    cases = []
    for p in parameter_sets:
        denom = p.balance() - 1.0
        approx, t_last = 1.0, 1.0
        for k0 in range(513, 4 * 512 + 2, 512):
            _, block = _chunk_terms_reference(p, np.arange(k0 - 513, k0 - 1, dtype=float), t_last)
            approx += _in_order_sum(block)
            t_last = float(block[-1])
            ratio = abs(t_last) * k0 / denom / abs(approx)
            for tol in (math.nextafter(ratio, 0.0), ratio, math.nextafter(ratio, 1.0)):
                if tol >= TOL_FLOOR and _outcome(_hyp3f2_unit_reference, p, tol) != _outcome(
                    _hyp3f2_unit_reference, p, tol, lambda b: float(b.sum())
                ):
                    cases.append((p, tol))
    return cases


@pytest.fixture(scope="module")
def threshold_cases(closed_form_parameter_sets):
    return _threshold_cases(closed_form_parameter_sets)


def _forget_last_sum(monkeypatch):
    """Empty hyp3f2_unit's one-entry memo, so that the next call sums."""
    monkeypatch.setattr(specfun, "_last_sum", (None, None, None))


def _force_pure_producer(monkeypatch):
    """Make every 3F2 here come from the pure-Python producer: numpy hidden
    from ``sys.modules``, and a numpy producer that fails if it is reached.
    The memo is emptied, so no earlier sum is read back in its place."""
    def numpy_used(*args):
        raise AssertionError("the numpy producer was used")

    _forget_last_sum(monkeypatch)
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(_numpy_producer, "_term_rows", numpy_used)


class TestBatchedChunks:
    # The 3F2 chunks are computed several per numpy pass and the stop test
    # is replayed on them; values, term counts, tail estimates and errors
    # must be those of the loop that computed and tested one chunk at a
    # time, whatever the chunk-count prediction says.  The pure-Python
    # producer, which computes one chunk at a time in plain floats and
    # predicts nothing, must give them too.
    @pytest.fixture(
        params=[None, 1, 16, _numpy_producer._MAX_CHUNKS, "pure"],
        ids=lambda n: "pure-python" if n == "pure" else f"predict-{n}",
    )
    def prediction(self, request, monkeypatch):
        _forget_last_sum(monkeypatch)
        if request.param == "pure":
            _force_pure_producer(monkeypatch)
        elif request.param is not None:
            monkeypatch.setattr(_numpy_producer, "_predicted_chunks", lambda *args, n=request.param: n)
        return request.param

    def test_closed_form_parameters(self, prediction, closed_form_parameter_sets):
        for p in closed_form_parameter_sets:
            assert _outcome(hyp3f2_unit, p, TOL_FLOOR) == _outcome(_hyp3f2_unit_reference, p, TOL_FLOOR), p

    def test_general_parameters(self, prediction):
        outcomes = []
        for p, tol in _general_cases():
            outcome = _outcome(hyp3f2_unit, p, tol)
            assert outcome == _outcome(_hyp3f2_unit_reference, p, tol), (p, tol)
            outcomes.append(outcome[0])
        # Both the converged and the capped series are covered.
        assert ConvergenceError in outcomes
        assert sum(isinstance(o, str) for o in outcomes) >= 40

    def test_stop_test_at_its_threshold_follows_the_in_order_sum(self, prediction, threshold_cases):
        # At these tolerances a pairwise running sum would stop the series
        # after another chunk than the in-order one; each producer must
        # follow the in-order sum.
        assert len(threshold_cases) >= 20
        for p, tol in threshold_cases:
            assert _outcome(hyp3f2_unit, p, tol) == _outcome(_hyp3f2_unit_reference, p, tol), (p, tol)

    def test_numpy_serves_every_series_once_loaded(self, monkeypatch, closed_form_parameter_sets):
        # numpy is loaded here, so the pure-Python producer computes no series
        # that does not truncate.
        def pure_used(*args):
            raise AssertionError("the pure-Python producer was used")

        _forget_last_sum(monkeypatch)
        monkeypatch.setattr(specfun, "_pure_terms", pure_used)
        assert specfun._loaded_numpy() is np
        for p in closed_form_parameter_sets[::10]:
            hyp3f2_unit(p)

    @pytest.mark.parametrize("dim", ["planar", "spatial"])
    def test_truncating_closed_form_makes_no_numpy_pass(self, monkeypatch, dim):
        # At Z = 1e-6, delta = gamma_kappa - gamma - 1 rounds to zero, so the
        # 3F2 truncates at its leading 1; with numpy loaded it is still summed
        # in plain floats.
        def numpy_used(*args):
            raise AssertionError("the numpy producer was used")

        _forget_last_sum(monkeypatch)
        monkeypatch.setattr(_numpy_producer, "_term_rows", numpy_used)
        assert specfun._loaded_numpy() is np
        closed = getattr(polarizability, f"polarizability_{dim}")
        assert closed(AtomSpec(1e-6, dim)).diagnostics == SeriesDiagnostics(1, 0.0)

    def test_a_blocked_numpy_counts_as_not_loaded(self, monkeypatch):
        # A None entry, which makes ``import numpy`` fail, and any other
        # object that is not a module leave the series to plain floats.
        for entry in (None, "numpy"):
            monkeypatch.setitem(sys.modules, "numpy", entry)
            assert specfun._loaded_numpy() is None
        monkeypatch.delitem(sys.modules, "numpy")
        assert specfun._loaded_numpy() is None

    @pytest.mark.parametrize("a1", [-1.5, -3.0], ids=["convergent", "truncating"])
    def test_underflowed_denominator_is_left_to_numpy(self, monkeypatch, a1):
        # (k + b1)(k + b2) rounds to zero at k = 0, where numpy's division
        # gives inf and plain floats raise; with numpy loaded, the outcome
        # is the one-chunk numpy reference's, whichever producer sums it.
        _forget_last_sum(monkeypatch)
        p = Hyp3F2Params(a1, 0.7, 0.8, 1e-200, 1e-200)
        with np.errstate(all="ignore"):
            assert _outcome(hyp3f2_unit, p, TOL_FLOOR) == _outcome(_hyp3f2_unit_reference, p, TOL_FLOOR)

    @pytest.mark.parametrize("producer", ["numpy", "pure-python"])
    @pytest.mark.parametrize("a1, last", [(-1.5, 512), (-3.0, 3)], ids=["convergent", "truncating"])
    def test_overflowing_terms_raise_at_their_chunk(self, monkeypatch, producer, a1, last):
        # t_1 is -inf, since (k + b1)(k + b2) underflows to zero at k = 0.
        # The error names the first chunk and no later one is computed: not
        # fsum's "-inf + inf" nor, after 200,000 infinite terms, the cap.  A
        # truncating series comes from _pure_terms with or without numpy.
        if producer == "numpy":
            _forget_last_sum(monkeypatch)
            spied = "_term_rows" if a1 == -1.5 else "_pure_terms"
        else:
            _force_pure_producer(monkeypatch)
            spied = "_pure_terms"
        passes = []
        module = _numpy_producer if spied == "_term_rows" else specfun
        produce = getattr(module, spied)
        monkeypatch.setattr(module, spied, lambda *args: passes.append(args) or produce(*args))
        p = Hyp3F2Params(a1, 0.7, 0.8, 1e-200, 1e-200)
        message = rf"^3F2 series overflows in its terms t_1 to t_{last}$"
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match=message):
            hyp3f2_unit(p)
        assert len(passes) == 1

    @pytest.mark.parametrize("producer", ["numpy", "pure-python"])
    def test_truncating_sum_that_overflows_raises(self, monkeypatch, producer):
        # The terms 1, 1e308 and 1.125e308 are finite and their sum is not:
        # the error names the terms, not fsum's intermediate overflow.
        if producer == "numpy":
            _forget_last_sum(monkeypatch)
            assert specfun._loaded_numpy() is np
        else:
            _force_pure_producer(monkeypatch)
        p = Hyp3F2Params(-2.0, 2.0, -2.5, 1e-307, 1.0)
        with pytest.raises(ConvergenceError, match=r"^3F2 series overflows in its terms t_0 to t_2$"):
            hyp3f2_unit(p)

    # The table, the first 200 scan values and the two underflowed series,
    # as computed by whichever producer the process's numpy selects.
    PRODUCER_REPORT = textwrap.dedent(
        """
        import itertools, json, sys
        from bench.workloads import scan_inputs
        from diracpol import AtomSpec, polarizability_planar, polarizability_spatial
        from diracpol.specfun import TOL_FLOOR, Hyp3F2Params, hyp3f2_unit
        from diracpol.tablegen import generate_table, rows_to_csv

        def outcome(p):
            try:
                value, diag = hyp3f2_unit(p, TOL_FLOOR)
            except (ArithmeticError, ValueError) as exc:
                return [type(exc).__name__, str(exc)]
            return [value.hex(), diag.terms_used, diag.tail_estimate.hex()]

        def report():
            closed = {"planar": polarizability_planar, "spatial": polarizability_spatial}
            return {
                "numpy": sys.modules.get("numpy") is not None,
                "table": rows_to_csv(generate_table(1, 68)),
                "scan": [
                    closed[dim](AtomSpec(z, dim)).value_a0_cubed.hex()
                    for dim, z in itertools.islice(scan_inputs(0), 200)
                ],
                "underflow": [
                    outcome(Hyp3F2Params(a1, 0.7, 0.8, 1e-200, 1e-200)) for a1 in (-1.5, -3.0)
                ],
            }
        """
    )

    def test_process_without_numpy_gives_the_numpy_bits(self):
        # A fresh interpreter in which ``import numpy`` fails sums every
        # series in plain floats, the table's and the underflowed ones
        # included.
        root = Path(__file__).resolve().parents[1]
        script = 'import sys\nsys.modules["numpy"] = None\n' + self.PRODUCER_REPORT
        proc = subprocess.run(
            [sys.executable, "-c", script + "print(json.dumps(report()))"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        pure = json.loads(proc.stdout)
        namespace = {}
        exec(self.PRODUCER_REPORT, namespace)
        with np.errstate(all="ignore"):
            numpy_run = namespace["report"]()
        assert (pure.pop("numpy"), numpy_run.pop("numpy")) == (False, True)
        assert pure == numpy_run
        assert pure["table"].encode() == (root / "bench" / "golden_table.csv").read_bytes()

    def test_prediction_is_exact_or_one_over_on_channel_parameters(self, closed_form_parameter_sets):
        for p in closed_form_parameter_sets:
            chunks = (hyp3f2_unit(p)[1].terms_used - 1) // 512
            assert chunks <= _numpy_producer._predicted_chunks(p, p.balance(), TOL_FLOOR) <= chunks + 1, p

    def test_row_sums_equal_plain_float_in_order_sums(self, monkeypatch, closed_form_parameter_sets):
        # The stop test's running sum adds each chunk in order: numpy along
        # the rows of a pass, the pure-Python producer by reduce.  They must
        # agree bit for bit on rows where pairwise sums, numpy's default,
        # differ; the pure producer must not use builtin sum, which is
        # compensated from Python 3.12 on.
        rng = np.random.default_rng(77)
        pairwise_differs = 0
        for _ in range(2000):
            rows = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 17)), 512))
            rows = np.ldexp(rows, rng.integers(-40, 40, rows.shape))
            in_order = [reduce(add, row) for row in rows.tolist()]
            assert np.add.accumulate(rows, axis=1)[:, -1].tolist() == in_order
            pairwise_differs += np.add.reduce(rows, axis=1).tolist() != in_order
        assert pairwise_differs > 1000

        def builtin_sum(*args):
            raise AssertionError("the pure-Python producer summed a chunk with sum()")

        _force_pure_producer(monkeypatch)
        monkeypatch.setattr(specfun, "sum", builtin_sum, raising=False)
        for p in closed_form_parameter_sets[::10]:
            assert _outcome(hyp3f2_unit, p, TOL_FLOOR) == _outcome(_hyp3f2_unit_reference, p, TOL_FLOOR), p

    def test_near_critical_call_peak_memory(self, monkeypatch):
        # One planar call at the largest subcritical charge (9729 terms)
        # peaked at 336.6 KiB of traced allocations with one chunk per
        # numpy pass (numpy 2.4); summed in one pass of its 19 chunks it
        # must not need more.
        # The memo is emptied after the warm-up call, so the measured call
        # sums its series instead of reading the warm-up's back.
        spec = AtomSpec(math.nextafter(critical_charge("planar"), 0.0), "planar")
        polarizability.polarizability_planar(spec)
        warm = specfun._last_sum
        _forget_last_sum(monkeypatch)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            polarizability.polarizability_planar(spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert specfun._last_sum[2] is not warm[2]
        assert specfun._last_sum[2][1].terms_used == 9729
        assert peak <= 344_666

    @pytest.mark.parametrize("dim, chunks, terms", [("planar", 19, 9729), ("spatial", 32, 15873)])
    def test_near_critical_series_is_one_numpy_pass(self, monkeypatch, dim, chunks, terms):
        # The prediction is exact or one chunk over on the closed forms'
        # series, and the first pass holds every predicted chunk, so the
        # longest series of the scan anchors are summed in one pass: the
        # planar one of 19 chunks, the spatial one of 31 in a pass of 32.
        passes = []
        term_rows = _numpy_producer._term_rows

        def counted(np_, p, rows, *args):
            passes.append(len(rows))
            return term_rows(np_, p, rows, *args)

        _forget_last_sum(monkeypatch)
        monkeypatch.setattr(_numpy_producer, "_term_rows", counted)
        closed = getattr(polarizability, f"polarizability_{dim}")
        result = closed(AtomSpec(math.nextafter(critical_charge(dim), 0.0), dim))
        assert result.diagnostics.terms_used == terms
        assert passes == [chunks]


def _pure_terms_reference(p: Hyp3F2Params, k_first: int, n: int, t_first: float):
    """``specfun._pure_terms`` written plainly: an integer counter turned to
    float, four sums per ratio whether or not a1 == a2, and the scaling by
    t_first in a second list."""
    a1, a2, a3, b1, b2 = p
    try:
        ratios = [
            ((k + a1) * (k + a2)) * (k + a3) / (((k + b1) * (k + b2)) * (k + 1.0))
            for k in map(float, range(k_first, k_first + n))
        ]
    except ZeroDivisionError:
        raise ConvergenceError(
            f"3F2 series overflows in its terms t_{k_first + 1} to t_{k_first + n}"
        ) from None
    terms = list(accumulate(ratios, mul))
    if t_first != 1.0:
        terms = [t * t_first for t in terms]
    return ratios, terms


def _terms_outcome(f, *args):
    """float.hex of every ratio and term, or the type and message raised."""
    try:
        ratios, terms = f(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return [r.hex() for r in ratios], [t.hex() for t in terms]


@st.composite
def _series_parameters(draw) -> Hyp3F2Params:
    """Parameter sets with a1 == a2 or not, negative non-integers among them,
    and no denominator at a pole."""
    value = st.one_of(
        st.floats(-40.0, 40.0, allow_subnormal=False),
        st.sampled_from([-0.5, -1.5, -2.25, 0.0123, 1e-200, 2.0 / 3.0]),
    )
    a1, a3, b1, b2 = draw(value), draw(value), draw(value), draw(value)
    a2 = a1 if draw(st.booleans()) else draw(value)
    hypothesis.assume(not any(b <= 0.0 and b == round(b) for b in (b1, b2)))
    return Hyp3F2Params(a1, a2, a3, b1, b2)


class TestPureTerms:
    # The plain-float producer's float counter, shared squared sum and
    # fused scaling must give the plainly written formula's bits.
    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(
        p=_series_parameters(),
        k_first=st.one_of(
            st.sampled_from([0, 1, 511, MAX_TERMS - 512, MAX_TERMS - 7, MAX_TERMS - 1]),
            st.integers(0, MAX_TERMS // 512).map(lambda m: 512 * m),
        ),
        n=st.sampled_from([1, 7, 512]),
        t_first=st.one_of(
            st.just(1.0),
            st.floats(min_value=specfun._TINY, max_value=1e300),
            st.floats(min_value=-1e300, max_value=-specfun._TINY),
            st.floats(-specfun._TINY, specfun._TINY).filter(lambda t: 0.0 < abs(t) < specfun._TINY),
        ),
    )
    def test_bits_equal_the_plain_formula(self, p, k_first, n, t_first):
        outcome = _terms_outcome(specfun._pure_terms, p, k_first, n, t_first)
        assert outcome == _terms_outcome(_pure_terms_reference, p, k_first, n, t_first)

    @pytest.mark.parametrize("a1", [0.7, -1.5], ids=["shared-sum", "distinct-sums"])
    def test_underflowed_denominator_raises_the_overflow_error(self, a1):
        # (k + b1)(k + b2) rounds to zero at k = 0.
        p = Hyp3F2Params(a1, 0.7, 0.8, 1e-200, 1e-200)
        message = r"^3F2 series overflows in its terms t_1 to t_512$"
        with pytest.raises(ConvergenceError, match=message):
            specfun._pure_terms(p, 0, 512, 1.0)
        assert _terms_outcome(specfun._pure_terms, p, 0, 512, 0.5) == _terms_outcome(
            _pure_terms_reference, p, 0, 512, 0.5
        )


class TestLastSumMemo:
    # hyp3f2_unit remembers the (p, tol) and result of its last call that
    # returned, and gives that result back to a call that repeats them.
    P = Hyp3F2Params(0.3, 0.3, 2.3, 3.3, 4.1)

    @pytest.fixture
    def sums(self, monkeypatch):
        """The parameter sets _convergent_sum sums, from an empty memo."""
        summed = []
        convergent_sum = specfun._convergent_sum

        def counted(p, tol):
            summed.append(p)
            return convergent_sum(p, tol)

        _forget_last_sum(monkeypatch)
        monkeypatch.setattr(specfun, "_convergent_sum", counted)
        return summed

    def test_a_table_sums_each_central_3f2_once(self, monkeypatch, sums):
        from diracpol.tablegen import generate_table, rows_to_csv

        calls = []
        monkeypatch.setattr(polarizability, "hyp3f2_unit", lambda *a: calls.append(a) or hyp3f2_unit(*a))
        csv = rows_to_csv(generate_table(1, 68))
        assert (len(calls), len(sums)) == (272, 204)
        golden = Path(__file__).resolve().parents[1] / "bench" / "golden_table.csv"
        assert csv.encode() == golden.read_bytes()

    def test_a_repeat_reads_back_the_same_result(self, sums):
        first = hyp3f2_unit(self.P)
        assert hyp3f2_unit(self.P) is first
        assert hyp3f2_unit(self.P, 1e-20) is first  # clamped to TOL_FLOOR
        assert len(sums) == 1

    def test_another_tol_sums_again(self, sums):
        loose = hyp3f2_unit(self.P, 1e-8)
        tight = hyp3f2_unit(self.P)
        assert len(sums) == 2
        assert loose[1].terms_used < tight[1].terms_used
        assert hyp3f2_unit(self.P, 1e-8) == loose
        assert len(sums) == 3

    def test_a_call_that_raises_keeps_the_entry(self, sums):
        result = hyp3f2_unit(self.P)
        entry = specfun._last_sum
        with pytest.raises(ConvergenceError):
            hyp3f2_unit(Hyp3F2Params(3.0, 3.0, 3.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            hyp3f2_unit(self.P, math.nan)
        with pytest.raises(ConvergenceError):
            hyp3f2_unit(Hyp3F2Params(-(MAX_TERMS + 1.0), 1.0, 1.0, 2.0, 2.0))
        assert specfun._last_sum is entry
        assert hyp3f2_unit(self.P) is result
        assert len(sums) == 2

    def test_signed_zero_arguments_give_equal_results(self, monkeypatch):
        # Tuple equality takes -0.0 for 0.0, so one reads the other's
        # entry; both truncate at order 0 and sum to 1.
        for a in (0.0, -0.0):
            _forget_last_sum(monkeypatch)
            fresh = _outcome(hyp3f2_unit, Hyp3F2Params(a, 1.5, 2.5, 3.0, 4.0))
            for b in (0.0, -0.0):
                assert _outcome(hyp3f2_unit, Hyp3F2Params(b, 1.5, 2.5, 3.0, 4.0)) == fresh
            assert fresh == ((1.0).hex(), 1, (0.0).hex())

    def test_a_plain_tuple_is_refused_as_without_the_memo(self, monkeypatch):
        _forget_last_sum(monkeypatch)
        with pytest.raises(AttributeError) as without:
            hyp3f2_unit(tuple(self.P))
        hyp3f2_unit(self.P)
        with pytest.raises(AttributeError) as with_entry:
            hyp3f2_unit(tuple(self.P))
        assert str(with_entry.value) == str(without.value)
        assert specfun._last_sum[0] is self.P


def _fsum_outcome(terms: list[float]):
    """float.hex of math.fsum(terms), or the type of the error it raises."""
    try:
        return math.fsum(terms).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _exact_sum_outcome(terms: list[float]):
    try:
        return _exact_sum(np.array(terms, dtype=float)).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


@st.composite
def _hard_sums(draw) -> list[float]:
    """Seeded arrays of 1 to 5000 terms: mixed signs, binary exponents over
    up to +-1000 (about +-300 decades), and in two of the modes heavy
    cancellation, exact or down to a relative 2**-60."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5000))
    lo = draw(st.integers(-1000, 1000))
    hi = draw(st.integers(lo, 1000))
    mode = draw(st.sampled_from(["mixed", "same sign", "cancel", "near cancel"]))
    terms = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, hi + 1, n))
    if mode == "same sign":
        terms = np.abs(terms)
    elif mode == "cancel":
        half = terms[: (n + 1) // 2]
        terms = np.concatenate([half, -half[: n - half.size]])
    elif mode == "near cancel":
        half = terms[: (n + 1) // 2]
        wobble = 1.0 + np.ldexp(rng.uniform(-1.0, 1.0, half.size), -60)
        terms = np.concatenate([half, -(half * wobble)[: n - half.size]])
    rng.shuffle(terms)
    return terms.tolist()


class TestExactSum:
    # _exact_sum replaces math.fsum over the 3F2 terms; it must return the
    # same double, including the sign of zero, and the same errors.
    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(_hard_sums())
    def test_equals_fsum(self, terms):
        assert _exact_sum_outcome(terms) == _fsum_outcome(terms)

    @pytest.mark.parametrize(
        "terms",
        [
            [1.0, 2.0**-53],
            [2.0**-53, 1.0],
            [1.0, 2.0**-53, 2.0**-106],
            [1.0, 2.0**-53, -(2.0**-106)],
            [1.0 + 2.0**-52, 2.0**-53],
            [-1.0, -(2.0**-53)],
            [2.0**900, 2.0**847, 2.0**-900],
            [1.0, 2.0**-53, 2.0**-1074],
            [3.0, 2.0**-52, 1.0, -(2.0**-53)] * 7,
        ],
    )
    def test_exact_ties(self, terms):
        assert _exact_sum_outcome(terms) == _fsum_outcome(terms)

    @pytest.mark.parametrize(
        "terms", [[0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0] * 700, [0.0] * 700, [1.0, -1.0]]
    )
    def test_zeros_keep_their_sign(self, terms):
        assert _exact_sum_outcome(terms) == _fsum_outcome(terms)

    @pytest.mark.parametrize(
        "terms",
        [
            [math.inf, 1.0],
            [-math.inf, -1.0, 2.0],
            [math.inf, -math.inf],
            [math.nan, 1.0],
            [1.0, math.nan, math.inf],
            [1e308, 1e308],
            [1.7e308, -1e308, 1e308],
            [5e-324, 5e-324, -1e-320],
        ],
    )
    def test_non_finite_terms_and_overflow_match_fsum(self, terms):
        assert _exact_sum_outcome(terms) == _fsum_outcome(terms)

    def test_low_sum_error_is_bracketed(self):
        # The high parts sum to 3 units of their grid; the low parts cancel
        # to 2**-30 relative, so numpy's sum of them is off by many of the
        # result's ulps.  Without the error bound delta about one seed in
        # five comes out wrong.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = np.ldexp(rng.uniform(1.0, 2.0, 500), rng.integers(-60, -44, 500))
            wobble = 1.0 + np.ldexp(rng.uniform(-1.0, 1.0, 500), -30)
            terms = np.concatenate([[1.0, -1.0, 3.0 * 2.0**-42], x, -x * wobble])
            rng.shuffle(terms)
            assert _exact_sum(terms) == math.fsum(terms.tolist()), seed

    def test_fallback_and_fast_path(self, monkeypatch):
        # An exact tie cannot be decided from the bracketed low sum and goes
        # to math.fsum; a plain sum of positive terms never does.
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(len(xs)) or fsum(xs))
        assert _exact_sum(np.array([1.0, 2.0**-53, 2.0**-200])) == 1.0 + 2.0**-52
        assert calls == [3]
        assert _exact_sum(np.arange(1.0, 1001.0) / 7.0) == fsum((np.arange(1.0, 1001.0) / 7.0).tolist())
        assert calls == [3]


class TestContiguousIdentity:
    def test_truncating_case_matches_direct(self):
        p = Hyp3F2Params(-1.0, 1.0, 1.0, 2.0, 3.0)
        direct, _ = hyp3f2_unit(p)
        assert direct == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert hyp3f2_contiguous_rhs(p) == pytest.approx(direct, rel=1e-14)

    def test_generic_case_matches_direct(self):
        p = Hyp3F2Params(0.5, 0.5, 1.0, 2.0, 2.5)
        direct, _ = hyp3f2_unit(p, tol=1e-12)
        assert hyp3f2_contiguous_rhs(p, tol=1e-12) == pytest.approx(direct, rel=1e-10)

    def test_channel_parameters_at_z30(self):
        # Parameter set of the slower dipole-channel series at Z = 30.
        alpha_z = 30.0 / 137.035999139
        g = math.sqrt(0.25 - alpha_z**2)
        gk = math.sqrt(2.25 - alpha_z**2)
        d = gk - g
        tol = 1e-12
        p = Hyp3F2Params(d - 1.0, d - 1.0, d, d + 1.0, 2.0 * gk + 1.0)
        direct, _ = hyp3f2_unit(p, tol=tol)
        rhs = hyp3f2_contiguous_rhs(p, tol=tol)
        assert abs(rhs - direct) / abs(direct) <= 10.0 * tol

    def test_identity_on_random_parameter_sets(self):
        # 1000 in-domain random sets with the contiguous structure
        # b1 = a3 + 1; agreement to 100 * tol.  Draws keep the balance
        # above 2.5 so direct summation can certify tol within the cap.
        rng = np.random.default_rng(101)
        tol = 1e-10
        checked = 0
        while checked < 1000:
            a1, a2, a3 = rng.uniform(0.05, 9.0, 3)
            b2 = rng.uniform(0.5, 10.0)
            p = Hyp3F2Params(a1, a2, a3, a3 + 1.0, b2)
            if p.balance() < 2.5:
                continue
            if b2 - a1 - a2 <= -0.5 or abs(b2 - a3 - 1.0) < 0.05:
                continue
            if min(b2 - a1, b2 - a2) <= 0.05:
                continue
            direct, _ = hyp3f2_unit(p, tol=tol)
            rhs = hyp3f2_contiguous_rhs(p, tol=tol)
            assert abs(rhs - direct) / abs(direct) <= 100.0 * tol
            checked += 1

    def test_rejects_wrong_contiguous_structure(self):
        with pytest.raises(ValueError):
            hyp3f2_contiguous_rhs(Hyp3F2Params(0.5, 0.5, 1.0, 2.5, 2.0))

    def test_rejects_singular_second_denominator(self):
        # b2 = a3 + 1 makes both right-hand-side pieces individually
        # singular (the identity only holds there as a limit).
        with pytest.raises(ValueError):
            hyp3f2_contiguous_rhs(Hyp3F2Params(0.5, 0.5, 1.0, 2.0, 2.0))
