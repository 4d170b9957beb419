"""Special-function kernels: log-gamma, gamma ratios, generalized Laguerre
polynomials, and the generalized hypergeometric 3F2 at unit argument.

The 3F2 terms come in chunks of 512.  One numpy pass (``_term_rows``)
computes as many chunks as the series is predicted to need, at most 16, and
the stop test is replayed on them chunk by chunk, so the terms, their count
and the tail estimate are those of computing one chunk at a time.

Every series returns the correctly rounded sum of its computed terms, the
value ``math.fsum`` gives.  The 3F2 terms are summed in numpy by
``_exact_sum``: one error-free split into high parts that add exactly and
low parts whose rounded sum is bracketed by a proven error bound; the rare
sum that the bracket cannot decide (a near tie, a zero, a non-finite term)
goes to ``math.fsum``.  The short log-gamma sums use ``math.fsum`` directly.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

import numpy as np

# Relative tolerance floor for series evaluation; requests below it are
# clamped since plain doubles cannot certify tighter results.
TOL_FLOOR = 1e-16

# Series longer than this raise ConvergenceError instead of returning silently.
MAX_TERMS = 200_000

_CHUNK = 512
# Chunks starting at or below MAX_TERMS: the most a series sums.
_MAX_CHUNKS = (MAX_TERMS - 1) // _CHUNK + 1
# Chunks one numpy pass computes at most; it bounds the pass's temporaries.
_MAX_BATCH = 16

# Smallest positive normal double; a floor for relative-error scales.
_TINY = sys.float_info.min


class ConvergenceError(ArithmeticError):
    """A series failed to reach the requested tolerance within the term cap."""


# A record that validates its fields is a NamedTuple of the fields and a
# subclass whose __new__ checks them, then builds the tuple with
# tuple.__new__, one Python call fewer than the fields class's __new__.
def _validated_make(cls, iterable):
    """``_make`` of a record that validates in ``__new__``: ``_replace``
    builds through ``_make``, which would otherwise skip the checks."""
    return cls(*iterable)


class SeriesDiagnostics(NamedTuple):
    """Bookkeeping attached to every infinite-series evaluation.

    Attributes
    ----------
    terms_used : int
        Number of series terms accumulated.
    tail_estimate : float
        Estimated relative magnitude of the discarded tail.

    A series that does not converge raises ``ConvergenceError`` instead of
    returning diagnostics.
    """

    terms_used: int
    tail_estimate: float


class _Hyp3F2Fields(NamedTuple):
    a1: float
    a2: float
    a3: float
    b1: float
    b2: float


class Hyp3F2Params(_Hyp3F2Fields):
    """Parameter set (a1, a2, a3; b1, b2) of a 3F2 series at unit argument.

    Denominator parameters must not be zero or a negative integer (poles of
    the defining series).  Convergence at unit argument additionally needs
    b1 + b2 - a1 - a2 - a3 > 0 unless a numerator parameter is a
    non-positive integer (truncating case); that is checked at evaluation.
    """

    __slots__ = ()

    def __new__(cls, a1: float, a2: float, a3: float, b1: float, b2: float) -> Hyp3F2Params:
        for name, b in (("b1", b1), ("b2", b2)):
            if not math.isfinite(b):
                raise ValueError(f"{name} must be finite, got {b!r}")
            if b <= 0.0 and b == round(b):
                raise ValueError(
                    f"{name}={b} is a non-positive integer (pole of the series)"
                )
        for name, a in (("a1", a1), ("a2", a2), ("a3", a3)):
            if not math.isfinite(a):
                raise ValueError(f"{name} must be finite, got {a!r}")
        return tuple.__new__(cls, (a1, a2, a3, b1, b2))

    _make = classmethod(_validated_make)

    @property
    def numerators(self) -> tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)

    def balance(self) -> float:
        """Denominator excess b1 + b2 - a1 - a2 - a3 (positive: convergent)."""
        return math.fsum((self.b1, self.b2, -self.a1, -self.a2, -self.a3))

    def truncation_order(self) -> int | None:
        """Smallest n with some a_i = -n a non-positive integer, else None."""
        orders = [
            int(-a) for a in self.numerators if a <= 0.0 and a == round(a)
        ]
        return min(orders) if orders else None


# Taylor coefficients zeta(k)/k and (zeta(k)-1)/k for k = 2, 3, ..., frozen
# as correctly rounded doubles.  They drive series for ln Gamma around its
# zeros at 1 and 2, where library lgamma implementations lose relative
# accuracy.
_EULER = 0.5772156649015329
_ZETA_OVER_K = (
    0.8224670334241132, 0.40068563438653143, 0.27058080842778454, 0.20738555102867398,
    0.1695571769974082, 0.1440498967688461, 0.12550966952474304, 0.11133426586956469,
    0.1000994575127818, 0.09095401714582904, 0.083353840546109, 0.0769325164113522,
    0.07143294629536133, 0.06666870588242046, 0.06250095514121304, 0.058823978658684585,
    0.055555767627403614, 0.05263167937961666, 0.05000004769810169, 0.047619070330142226,
    0.04545455629320467, 0.04347826605304026, 0.04166666915034121, 0.04000000119214014,
    0.03846153903467518, 0.037037037312989324, 0.035714285847333355, 0.034482758684919304,
    0.03333333336437758, 0.03225806453115042, 0.03125000000727597, 0.030303030306558044,
    0.029411764707594344, 0.02857142857226011, 0.027777777778181998, 0.027027027027223673,
    0.02631578947377995, 0.025641025641072283, 0.025000000000022737, 0.024390243902450117,
    0.023809523809529224, 0.023255813953491015, 0.02272727272727402, 0.022222222222222855,
    0.021739130434782917, 0.021276595744681003, 0.02083333333333341, 0.02040816326530616,
    0.020000000000000018, 0.019607843137254912, 0.019230769230769235, 0.01886792452830189,
    0.01851851851851852, 0.01818181818181818, 0.017857142857142856, 0.017543859649122806,
    0.017241379310344827, 0.01694915254237288, 0.016666666666666666, 0.01639344262295082,
    0.016129032258064516, 0.015873015873015872, 0.015625, 0.015384615384615385,
)
_ZETA_M1_OVER_K = (
    0.3224670334241132, 0.0673523010531981, 0.020580808427784546, 0.007385551028673986,
    0.0028905103307415234, 0.001192753911703261, 0.0005096695247430425, 0.00022315475845357939,
    9.945751278180853e-05, 4.492623673813314e-05, 2.050721277567069e-05, 9.439488275268397e-06,
    4.374866789907488e-06, 2.039215753801366e-06, 9.55141213040742e-07, 4.492469198764566e-07,
    2.1207184805554665e-07, 1.0043224823968099e-07, 4.7698101693639804e-08, 2.2711094608943164e-08,
    1.0838659214896955e-08, 5.183475041970047e-09, 2.4836745438024785e-09, 1.1921401405860912e-09,
    5.731367241678862e-10, 2.7595228851242334e-10, 1.330476437424449e-10, 6.4229645638381e-11,
    3.1044247747322276e-11, 1.5021384080754142e-11, 7.275974480239079e-12, 3.527742476575915e-12,
    1.711991790559618e-12, 8.315385841420285e-13, 4.04220052528944e-13, 1.9664756310966165e-13,
    9.573630387838556e-14, 4.6640760264283744e-14, 2.2737369600659724e-14, 1.1091399470834522e-14,
    5.413659156725363e-15, 2.643880017860995e-15, 1.2918959062789966e-15, 6.315935504198448e-16,
    3.089316266963393e-16, 1.5117930628108198e-16, 7.40148685695232e-17, 3.625218048120654e-17,
    1.7763568421861633e-17, 8.70763157479179e-18, 4.270088559227004e-18, 2.0947604247944643e-18,
    1.0279842823787928e-18, 5.046468294792953e-19, 2.4781763945937917e-19, 1.2173498078147637e-19,
    5.981805089941246e-20, 2.9402092814365703e-20, 1.4456028966866556e-20, 7.109522442656805e-21,
    3.4974263628987415e-21, 1.7209558293559386e-21, 8.47032947258851e-22, 4.1700083557284137e-22,
)
# Asymptotic correction coefficients B_{2n} / (2n (2n-1)) of the Stirling
# series, enough terms for full precision at x >= 12.
_STIRLING = (
    0.08333333333333333,
    -0.002777777777777778,
    0.0007936507936507937,
    -0.0005952380952380953,
    0.0008417508417508417,
    -0.0019175269175269176,
    0.00641025641025641,
    -0.029550653594771242,
    0.17964437236883057,
)
_HALF_LOG_TWO_PI = 0.9189385332046728


def _alternating(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """coeffs with every second sign flipped, starting at the second."""
    return tuple(-c if k % 2 else c for k, c in enumerate(coeffs))


# (linear coefficient, signed Taylor coefficients) of ln Gamma(1 + t) for t
# in [-0.5, 0.5] and of ln Gamma(2 + t) for t in [-0.5, 1].  Negating a
# double is exact, so the folded signs give the same terms bit for bit.
_NEAR_ONE = (-_EULER, _alternating(_ZETA_OVER_K))
_NEAR_TWO = (1.0 - _EULER, _alternating(_ZETA_M1_OVER_K))


def _lgamma_series(t: float, series: tuple[float, tuple[float, ...]]) -> float:
    """ln Gamma(1 + t) (series _NEAR_ONE) or ln Gamma(2 + t) (_NEAR_TWO) by
    the alternating zeta series, summed until a term falls below 1e-20."""
    linear, coeffs = series
    terms = [linear * t]
    power = t
    for coeff in coeffs:
        power *= t
        term = coeff * power
        terms.append(term)
        if -1e-20 < term < 1e-20:
            break
    return math.fsum(terms)


def _lgamma_one_to_two(u: float) -> float:
    """ln Gamma(1 + u) for u in [0, 1]; u is the exactly shifted argument."""
    if u <= 0.5:
        return _lgamma_series(u, _NEAR_ONE)
    return _lgamma_series(u - 1.0, _NEAR_TWO)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for positive real x, accurate to a few ulp
    relative error including the neighbourhoods of the zeros at 1 and 2;
    inf at x = inf, as ``math.lgamma`` gives."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    if x == 1.0 or x == 2.0:
        return 0.0
    if x < 1.0:
        # ln Gamma(x) = ln Gamma(1 + x) - ln x; both pieces shrink together
        # near x = 1, keeping the difference fully accurate.
        return _lgamma_one_to_two(x) - math.log(x)
    if x <= 2.0:
        return _lgamma_one_to_two(x - 1.0)
    if x <= 3.0:
        return _lgamma_series(x - 2.0, _NEAR_TWO)
    if x < 12.0:
        # Downward recurrence to (2, 3]; every piece is positive, so the
        # compensated sum keeps full relative accuracy.
        steps = int(x - 2.0)
        y = x - steps
        pieces = [_lgamma_series(y - 2.0, _NEAR_TWO)]
        pieces.extend(math.log(y + j) for j in range(steps))
        return math.fsum(pieces)
    if x == math.inf:
        return x
    # Stirling series with Bernoulli corrections.
    inv2 = 1.0 / (x * x)
    correction = 0.0
    power = 1.0 / x
    for coeff in _STIRLING:
        correction += coeff * power
        power *= inv2
    return math.fsum(
        [(x - 0.5) * math.log(x), -x, _HALF_LOG_TWO_PI, correction]
    )


def gamma_ratio(numerators, denominators) -> float:
    """Product of Gamma over ``numerators`` divided by Gamma over
    ``denominators``, formed through summed log-gamma differences so that
    no intermediate Gamma value is materialized.
    """
    logs = [log_gamma(x) for x in numerators]
    logs.extend(-log_gamma(x) for x in denominators)
    return math.exp(math.fsum(logs))


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x) by the three-term
    recurrence, with L_{-1} defined to be identically zero.

    Parameters
    ----------
    n : int
        Degree, n >= -1.
    alpha : float
        Order parameter, alpha > -1.
    x : float or ndarray
        Evaluation point(s), x >= 0.

    Returns
    -------
    float or ndarray
        Polynomial value(s); scalar input yields a scalar.
    """
    if n < -1:
        raise ValueError(f"laguerre requires n >= -1, got n={n}")
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    prev, cur = np.zeros_like(xs), np.ones_like(xs)  # L_{-1}, L_0
    for k in range(n):
        prev, cur = cur, ((2 * k + alpha + 1.0 - xs) * cur - (k + alpha) * prev) / (k + 1.0)
    out = prev if n == -1 else cur
    return float(out[0]) if scalar else out


def _term_rows(p: Hyp3F2Params, rows: np.ndarray, k_first: int, t_first: float) -> np.ndarray:
    """Fill the C-contiguous 2-D array ``rows`` with the terms t_{k_first+1},
    t_{k_first+2}, ... of the unit-argument series p, given t_{k_first} =
    t_first, and return the ratios t_{k+1}/t_k in the same shape.

    Each ratio is ((a1+k)(a2+k))(a3+k) / (((b1+k)(b2+k))(1+k)), formed in
    place.  The cumulative product restarts at every row, and each row is
    then scaled by the last term of the row before (the first by t_first),
    so a row holds the bits that computing the rows one at a time gives.
    """
    flat = rows.reshape(-1)  # a view, used as scratch until the products land
    k = np.arange(k_first, k_first + flat.size, dtype=float)
    num = k + p.a1
    num *= np.add(k, p.a2, out=flat)
    num *= np.add(k, p.a3, out=flat)
    np.add(k, p.b1, out=flat)
    k += p.b2
    flat *= k
    del k  # freed before the arange of 1 + k, so two temporaries at most
    flat *= np.arange(k_first + 1, k_first + 1 + flat.size, dtype=float)
    ratios = np.divide(num, flat, out=num).reshape(rows.shape)
    np.multiply.accumulate(ratios, axis=1, out=rows)  # np.cumprod, less call overhead
    if len(rows) > 1:
        lasts = np.concatenate(([t_first], rows[:-1, -1]))
        rows *= np.multiply.accumulate(lasts)[:, None]
    elif t_first != 1.0:  # a sum's first pass starts from t_0 = 1
        rows *= t_first
    return ratios


def _predicted_chunks(p: Hyp3F2Params, balance: float, tol: float) -> int:
    """Chunks of ``_CHUNK`` terms after which the tail bound of a sum near 1
    is predicted to fall below ``tol``; a hint only, 1 on any domain error.

    Terms decay like C k**-(s+1), s the balance and C = Gamma(b1) Gamma(b2)
    / (Gamma(a1) Gamma(a2) Gamma(a3)), so the bound |t_K| K / (s - 1) <= tol
    holds from K = (C / (tol (s - 1)))**(1/s) on.
    """
    denom = balance - 1.0 if balance > 1.0 else balance
    lg = math.lgamma
    try:
        log_c = lg(p.b1) + lg(p.b2) - lg(p.a1) - lg(p.a2) - lg(p.a3)
        log_k = (log_c - math.log(tol * denom)) / balance
        return max(1, math.ceil((math.exp(min(log_k, math.log(MAX_TERMS))) - 1.0) / _CHUNK))
    except (ValueError, OverflowError):
        return 1


def _summed_chunks(
    p: Hyp3F2Params, chunks: int, approx: float, done: Callable[[float, float, int, np.ndarray], bool]
) -> tuple[np.ndarray, float, int] | None:
    """Sum the unit-argument series p in chunks of ``_CHUNK`` terms until
    ``done(approx, t_last, k0, ratios)`` holds after a chunk.

    ``approx`` is the running sum, to which each chunk's numpy sum is added
    in order; t_last is the chunk's last term, k0 the index of the next
    term and ratios the chunk's term ratios.  Returns (terms, t_last, k0)
    with terms = t_0 = 1, t_1, ..., t_{k0-1}, or None when no chunk
    starting at or below MAX_TERMS passes.  The passes cover the ``chunks``
    predicted, then doubling counts, at most ``_MAX_BATCH`` chunks each;
    chunks past the stopping one are dropped, so ``chunks`` changes the
    time, never the result.
    """
    chunks = min(chunks, _MAX_CHUNKS)
    terms = np.empty(1 + chunks * _CHUNK)
    terms[0] = 1.0
    t_last, k0 = 1.0, 1  # k0 = 1 + _CHUNK * (chunks summed)
    while k0 <= MAX_TERMS:
        summed = k0 // _CHUNK
        if summed == chunks:
            chunks = min(2 * summed, _MAX_CHUNKS)
            grown = np.empty(1 + chunks * _CHUNK)
            grown[:k0] = terms
            terms = grown
        batch = min(chunks - summed, _MAX_BATCH)
        rows = terms[k0 : k0 + batch * _CHUNK].reshape(batch, _CHUNK)
        ratios = _term_rows(p, rows, k0 - 1, t_last)
        sums = np.add.reduce(rows, axis=1).tolist()  # each row's own pairwise sum
        for j, (chunk_sum, t_last) in enumerate(zip(sums, rows[:, -1].tolist())):
            approx += chunk_sum
            k0 += _CHUNK
            if done(approx, t_last, k0, ratios[j]):
                return terms[:k0], t_last, k0
    return None


def _exact_sum(terms: np.ndarray) -> float:
    """The correctly rounded sum of ``terms``, equal to
    ``math.fsum(terms.tolist())`` bit for bit.

    One error-free extraction (ExtractVector of Rump, Ogita and Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput. 31,
    2008): with max|p| < 2**e and 2**m > n + 2, sigma = 2**(e + m) splits
    each term p into q = (p + sigma) - sigma, on a grid coarse enough that
    the q add up exactly in any order, and the exact remainder r = p - q.
    Summed in any order, the r err by at most delta = n**2 * 2**-104 * sigma.
    When both ends of that interval, added to the q sum, round to the same
    double, that double is the correctly rounded sum.  Otherwise (a near
    tie), and for a non-finite term or a sigma or delta outside the normal
    doubles, the terms go to math.fsum.  A zero sum always does, with the
    sign of zero that fsum gives: the ends differ, and a sum of two doubles
    rounds to zero only when it is exactly zero, so they cannot both.
    """
    n = terms.size
    mu = float(np.abs(terms).max()) if n else 0.0
    if 0.0 < mu < math.inf:
        e = math.frexp(mu)[1]  # mu < 2**e
        m = (n + 2).bit_length()  # 2**m > n + 2
        if e + m <= 1023 and e + m - 104 >= -1022:
            sigma = math.ldexp(1.0, e + m)
            q = (terms + sigma) - sigma
            tau = float(q.sum())
            rho = float((terms - q).sum())
            delta = math.ldexp(n * n, e + m - 104)
            lo = tau + math.nextafter(rho - delta, -math.inf)
            if lo == tau + math.nextafter(rho + delta, math.inf):
                return lo
    return math.fsum(terms.tolist())


def _tail_bound(term: float, k: int, balance: float) -> float:
    """Power-law remainder estimate after the k-th term.

    Terms decay like k**(-balance-1); the integral bound gives
    |t_k| * k / (balance - 1).  For balance <= 1 the weaker |t_k| * k /
    balance is used (such series cannot reach tight tolerances anyway).
    """
    denom = balance - 1.0 if balance > 1.0 else balance
    return abs(term) * k / denom


def hyp3f2_unit(
    p: Hyp3F2Params, tol: float = TOL_FLOOR
) -> tuple[float, SeriesDiagnostics]:
    """Evaluate 3F2(a1, a2, a3; b1, b2; 1) by direct summation.

    Terms are formed in chunks of ``_CHUNK`` by a cumulative product of the
    term ratios; the series stops after the first chunk whose power-law tail
    bound falls below ``tol`` times the running sum of the chunk sums.  One
    numpy pass computes as many chunks as the asymptotic decay of the terms
    predicts (``_predicted_chunks``), at most ``_MAX_BATCH``, and the stop
    test is replayed on them chunk by chunk, so the prediction changes the
    time, never the result.  A truncating series is one cumulative product
    over all its ratios.  The value is the correctly rounded sum of all
    terms (``_exact_sum``, bit for bit ``math.fsum``, which it falls back to
    when its error bracket cannot decide the rounding).

    Parameters
    ----------
    p : Hyp3F2Params
        Series parameters; see the type's invariants.
    tol : float
        Requested relative accuracy, clamped to ``TOL_FLOOR``.

    Returns
    -------
    (float, SeriesDiagnostics)
        Series value and summation diagnostics.

    Raises
    ------
    ValueError
        If ``tol`` is not positive or not finite.
    ConvergenceError
        If the series does not converge (non-truncating with non-positive
        denominator excess) or needs more than ``MAX_TERMS`` terms.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    tol = max(tol, TOL_FLOOR)

    n_trunc = p.truncation_order()
    if n_trunc is not None:
        if n_trunc + 1 > MAX_TERMS:
            raise ConvergenceError(
                f"truncating series needs {n_trunc + 1} terms, cap is {MAX_TERMS}"
            )
        terms = np.empty(n_trunc + 1)
        terms[0] = 1.0
        _term_rows(p, terms[1:].reshape(1, n_trunc), 0, 1.0)
        return _exact_sum(terms), SeriesDiagnostics(n_trunc + 1, 0.0)

    balance = p.balance()
    if balance <= 0.0:
        raise ConvergenceError(
            f"series diverges at unit argument: b-sum - a-sum = {balance} <= 0"
        )

    # All factors of the term ratio are positive beyond this index, which is
    # where the power-law tail estimate becomes trustworthy.
    k_safe = max(
        0.0, -p.a1, -p.a2, -p.a3, -p.b1, -p.b2
    )

    def done(approx: float, t_last: float, k0: int, ratios: np.ndarray) -> bool:
        return t_last == 0.0 or (
            k0 > k_safe + 2
            and _tail_bound(t_last, k0, balance) <= tol * max(abs(approx), _TINY)
            and ratios.min() > 0.0
            and ratios.max() < 1.0
        )

    found = _summed_chunks(p, _predicted_chunks(p, balance, tol), 1.0, done)
    if found is None:
        raise ConvergenceError(
            f"3F2 series did not reach tol={tol:g} within {MAX_TERMS} terms"
        )
    terms, t_last, k0 = found
    value = _exact_sum(terms)
    scale = max(abs(value), _TINY)
    tail_rel = 0.0 if t_last == 0.0 else _tail_bound(t_last, k0, balance) / scale
    return value, SeriesDiagnostics(k0, tail_rel)
