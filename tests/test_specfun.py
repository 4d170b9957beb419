"""Tests of the special-function kernels: log-gamma, gamma ratios,
Laguerre recurrence, and the 3F2 series at unit argument."""

import hashlib
import math
import tracemalloc

import hypothesis
import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from diracpol import polarizability, specfun
from diracpol.atom import ALPHA_INV_CODATA2014, AtomSpec, critical_charge
from diracpol.specfun import (
    MAX_TERMS,
    TOL_FLOOR,
    ConvergenceError,
    Hyp3F2Params,
    SeriesDiagnostics,
    _exact_sum,
    gamma_ratio,
    hyp3f2_unit,
    laguerre,
    log_gamma,
)
from diracpol.sturmian import hyp3f2_contiguous_rhs

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


class TestLaguerre:
    def test_degree_minus_one_is_zero(self):
        assert laguerre(-1, 1.23, 0.7) == 0.0
        assert laguerre(-1, 0.4, np.array([0.0, 2.0])).tolist() == [0.0, 0.0]

    def test_degree_zero_is_one(self):
        assert laguerre(0, 0.9, 5.0) == 1.0

    def test_degree_one(self):
        alpha, x = 1.7, 0.3
        assert laguerre(1, alpha, x) == pytest.approx(alpha + 1.0 - x, rel=1e-15)

    def test_value_at_origin(self):
        assert laguerre(2, 0.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(0, 30))
            alpha = float(rng.uniform(-0.9, 6.0))
            x = float(rng.uniform(0.0, 40.0))
            assert laguerre(n, alpha, x) == pytest.approx(
                float(eval_genlaguerre(n, alpha, x)), rel=1e-10, abs=1e-12
            )

    def test_recurrence_residual(self):
        # |(n+1) L_{n+1} - (2n+alpha+1-x) L_n + (n+alpha) L_{n-1}| stays at
        # the rounding floor of its largest contribution, up to n = 200.
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha = float(rng.uniform(-0.5, 5.0))
            x = float(rng.uniform(0.0, 60.0))
            for n in range(1, 201, 7):
                low = laguerre(n - 1, alpha, x)
                mid = laguerre(n, alpha, x)
                high = laguerre(n + 1, alpha, x)
                terms = ((n + 1) * high, (2 * n + alpha + 1 - x) * mid, (n + alpha) * low)
                residual = abs(terms[0] - terms[1] + terms[2])
                scale = max(abs(t) for t in terms)
                assert residual <= 8.0 * math.ulp(max(scale, 1.0))

    def test_rejects_degree_below_minus_one(self):
        with pytest.raises(ValueError):
            laguerre(-2, 0.5, 1.0)


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


def _hyp3f2_unit_reference(p: Hyp3F2Params, tol: float):
    """hyp3f2_unit as one 512-term chunk per numpy pass, each chunk tested
    before the next is computed; summed by math.fsum."""
    tol = max(tol, TOL_FLOOR)
    n_trunc = p.truncation_order()
    if n_trunc is not None:
        _, block = _chunk_terms_reference(p, np.arange(n_trunc, dtype=float), 1.0)
        return math.fsum([1.0, *block.tolist()]), SeriesDiagnostics(n_trunc + 1, 0.0)
    balance = p.balance()
    if balance <= 0.0:
        raise ConvergenceError(
            f"series diverges at unit argument: b-sum - a-sum = {balance} <= 0"
        )
    k_safe = max(0.0, -p.a1, -p.a2, -p.a3, -p.b1, -p.b2)
    blocks = [np.ones(1)]
    approx, t_last, k0 = 1.0, 1.0, 1
    while k0 <= MAX_TERMS:
        k = np.arange(k0 - 1, k0 - 1 + 512, dtype=float)
        ratios, block = _chunk_terms_reference(p, k, t_last)
        blocks.append(block)
        approx += float(block.sum())
        t_last = float(block[-1])
        k0 += 512
        if t_last == 0.0:
            break
        if k0 > k_safe + 2 and ratios.min() > 0.0 and ratios.max() < 1.0:
            tail = specfun._tail_bound(t_last, k0, balance)
            if tail <= tol * max(abs(approx), specfun._TINY):
                break
    else:
        raise ConvergenceError(
            f"3F2 series did not reach tol={tol:g} within {MAX_TERMS} terms"
        )
    value = math.fsum(np.concatenate(blocks).tolist())
    scale = max(abs(value), specfun._TINY)
    tail_rel = 0.0 if t_last == 0.0 else specfun._tail_bound(t_last, k0, balance) / scale
    return value, SeriesDiagnostics(k0, tail_rel)


def _hyp3f2_minus_one_reference(p: Hyp3F2Params) -> float:
    """polarizability._hyp3f2_minus_one with one chunk per numpy pass."""
    blocks, total, t_last = [], 0.0, 1.0
    for k0 in range(0, MAX_TERMS, 512):
        blocks.append(_chunk_terms_reference(p, np.arange(k0, k0 + 512, dtype=float), t_last)[1])
        total += float(blocks[-1].sum())
        t_last = float(blocks[-1][-1])
        if specfun._tail_bound(t_last, k0 + 512 + 1, p.balance()) <= TOL_FLOOR * total:
            return math.fsum(np.concatenate(blocks).tolist())
    raise ConvergenceError(f"3F2 - 1 did not converge within {MAX_TERMS} terms")


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
    around 512 and 1024, and a series that reaches MAX_TERMS."""
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
    return cases


@pytest.fixture(scope="module")
def closed_form_parameter_sets():
    return _closed_form_parameter_sets()


class TestBatchedChunks:
    # The 3F2 chunks are computed several per numpy pass and the stop test
    # is replayed on them; values, term counts, tail estimates and errors
    # must be those of the loop that computed and tested one chunk at a
    # time, whatever the chunk-count prediction says.
    @pytest.fixture(params=[None, 1, specfun._MAX_BATCH, specfun._MAX_CHUNKS], ids=lambda n: f"predict-{n}")
    def prediction(self, request, monkeypatch):
        if request.param is not None:
            for module in (specfun, polarizability):
                monkeypatch.setattr(module, "_predicted_chunks", lambda *args, n=request.param: n)
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

    def test_shift_series(self, prediction):
        # The parameters of the quasi-relativistic shift, over (alpha Z)**2.
        for x in np.geomspace(1e-30, 0.2, 40).tolist():
            for lo, hi in ((0.5, 1.5), (1.0, 2.0)):
                gk = math.sqrt(hi * hi - x)
                dm = x / (lo + math.sqrt(lo * lo - x)) - x / (hi + gk)
                p = Hyp3F2Params(dm, dm, 2.0 + dm, 3.0 + dm, 2.0 * gk + 1.0)
                assert _outcome(polarizability._hyp3f2_minus_one, p) == _outcome(_hyp3f2_minus_one_reference, p), p

    def test_prediction_is_exact_or_one_over_on_channel_parameters(self, closed_form_parameter_sets):
        for p in closed_form_parameter_sets:
            chunks = (hyp3f2_unit(p)[1].terms_used - 1) // 512
            assert chunks <= specfun._predicted_chunks(p, p.balance(), TOL_FLOOR) <= chunks + 1, p

    def test_row_sums_equal_one_dimensional_sums(self):
        # The chunk sums of a pass come from one reduction over its rows;
        # each must be the pairwise sum of the row alone.
        rng = np.random.default_rng(77)
        for _ in range(2000):
            rows = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 17)), 512))
            rows = np.ldexp(rows, rng.integers(-40, 40, rows.shape))
            sums = np.add.reduce(rows, axis=1).tolist()
            assert sums == [row.copy().sum() for row in rows]

    def test_near_critical_call_peak_memory(self):
        # One planar call at the largest subcritical charge (9729 terms)
        # peaked at 336.6 KiB of traced allocations with one chunk per
        # numpy pass (numpy 2.4); the batched passes must not need more.
        spec = AtomSpec(math.nextafter(critical_charge("planar"), 0.0), "planar")
        polarizability.polarizability_planar(spec)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            polarizability.polarizability_planar(spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 344_666


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
