"""Special-function kernels: log-gamma and the generalized hypergeometric
3F2 at unit argument.

Every 3F2 series that does not truncate is summed by one loop,
``_convergent_terms``: terms in chunks of 512, stopped after the first chunk
whose tail bound is small enough against a running sum that adds each
chunk's terms in order, then the chunk sums in order.  Two producers give
the loop the same terms, so the same term count and tail bound, and their
chunk sums agree bit for bit:

- ``_pure_terms``, one chunk at a time in plain floats, summed by
  ``functools.reduce(operator.add, chunk)``; not by ``sum``, which is
  compensated from Python 3.12 on.  Each ratio keeps numpy's operations
  and their order; the producer spares interpreter work three ways: a
  float counter k, whose 1 + k is the next k, the shared factor a1 + k
  squared when a1 == a2, and the t_first scaling in the one pass that
  forms the cumulative product.  A chunk with a denominator that
  underflows to zero raises the overflow error at once; numpy's quotient
  there is +-inf or nan, which makes the chunk's sum non-finite, so numpy's
  run raises the same error at the same chunk;
- ``_term_rows``, in numpy passes that each fill a new array: the first
  holds as many chunks as the series is predicted to need, and each later
  pass doubles the array and fills the new half; the chunks are summed by
  ``np.add.accumulate`` along each row, and the loop tests them chunk by
  chunk, so the result is that of computing one chunk at a time.

One rule picks the producer of a convergent series: numpy's when
``sys.modules.get("numpy")`` is a module, that is when the caller has
loaded numpy, and the pure-Python one otherwise (a ``None`` entry, which
blocks the import, counts as not loaded).  diracpol never imports numpy
itself, so a process that does not load it sums every series in plain
floats; a caller that sums many series is faster with numpy loaded first,
and gets the same bits.

A series that truncates is summed one way, whether numpy is loaded or not:
its terms are one ``_pure_terms`` product, summed by ``math.fsum``.  The
closed forms reach it where delta = gamma_kappa - gamma - 1 rounds to zero,
at some charges up to about 2.7e-6 (planar) and 5.7e-6 (spatial), and the
3F2 is then 1.

Every series returns the correctly rounded sum of its computed terms, the
value ``math.fsum`` gives: a list of plain floats through ``math.fsum``
itself, a numpy one through ``_exact_sum``, one error-free split into high
parts that add exactly and low parts whose rounded sum is bracketed by a
proven error bound; the rare sum that the bracket cannot decide (a near
tie, a zero, a non-finite term) goes to ``math.fsum``.  The short log-gamma
sums use ``math.fsum`` directly.

``hyp3f2_unit`` remembers its last call's arguments and result, one entry
compared by ``==``, and returns that result when the next call repeats them.
It has two readers: a planar table row's centre, which the row sums twice in
a row, and a crosscheck's alpha_1, which follows R_{-3/2} with the same 3F2.
A ``hyp3f2_unit`` call between the two costs a second sum, never other bits.

``log_gamma`` reduces an argument below 12 to a point t of a zeta series
about 1 or 2 and keeps the last ``_SERIES_CACHE`` = 32 series values by
(t, point), so the ladders x0 + n of the Sturmian oracle, which reduce to a
few t, sum each series once.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache, reduce
from itertools import repeat
from operator import add
from types import ModuleType
from typing import NamedTuple

# Relative tolerance floor for series evaluation; requests below it are
# clamped since plain doubles cannot certify tighter results.
TOL_FLOOR = 1e-16

# Series longer than this raise ConvergenceError instead of returning silently.
MAX_TERMS = 200_000

_CHUNK = 512
# Chunks starting at or below MAX_TERMS: the most a series sums.
_MAX_CHUNKS = (MAX_TERMS - 1) // _CHUNK + 1

# Smallest positive normal double; a floor for relative-error scales.
_TINY = sys.float_info.min


def _loaded_numpy():
    """numpy if the process has loaded it, else None; never imports it."""
    np = sys.modules.get("numpy")
    return np if isinstance(np, ModuleType) else None


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
        isfinite = math.isfinite
        if not isfinite(b1):
            raise ValueError(f"b1 must be finite, got {b1!r}")
        if b1 <= 0.0 and b1 == round(b1):
            raise ValueError(f"b1={b1} is a non-positive integer (pole of the series)")
        if not isfinite(b2):
            raise ValueError(f"b2 must be finite, got {b2!r}")
        if b2 <= 0.0 and b2 == round(b2):
            raise ValueError(f"b2={b2} is a non-positive integer (pole of the series)")
        if not isfinite(a1):
            raise ValueError(f"a1 must be finite, got {a1!r}")
        if not isfinite(a2):
            raise ValueError(f"a2 must be finite, got {a2!r}")
        if not isfinite(a3):
            raise ValueError(f"a3 must be finite, got {a3!r}")
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


# Series values log_gamma keeps, dropping the least recently used.  The
# Sturmian oracle asks for ln Gamma at x0 + n, n = 0, 1, 2, ..., which reduce
# to a few points t.  The 68-row table asks for about 600 distinct t, so a
# repeated table never reads the entries of the one before.
_SERIES_CACHE = 32


@lru_cache(maxsize=_SERIES_CACHE)
def _reduced_series(t: float, point: int) -> float:
    """ln Gamma(point + t), point 1 (series ``_NEAR_ONE``) or 2 (``_NEAR_TWO``),
    by the alternating zeta series summed until a term falls below 1e-20,
    remembered by (t, point).  The key must not be the coefficient tuple,
    whose hash costs more than a cached call saves, and t must not be -0.0,
    which the cache would take for 0.0: ``log_gamma`` never passes it (a
    difference of equal doubles is +0.0)."""
    linear, coeffs = _NEAR_ONE if point == 1 else _NEAR_TWO
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
    """ln Gamma(1 + u) for u in (0, 1); u is the exactly shifted argument."""
    if u <= 0.5:
        return _reduced_series(u, 1)
    return _reduced_series(u - 1.0, 2)


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
        return _reduced_series(x - 2.0, 2)
    if x < 12.0:
        # Downward recurrence to [2, 3); every piece is positive, so the
        # compensated sum keeps full relative accuracy.
        steps = int(x - 2.0)
        y = x - steps
        if steps == 1:
            # One rounded addition of two doubles is what fsum returns.
            return _reduced_series(y - 2.0, 2) + math.log(y)
        pieces = [_reduced_series(y - 2.0, 2)]
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


def _term_rows(np, p: Hyp3F2Params, rows: np.ndarray, k_first: int, t_first: float) -> np.ndarray:
    """Fill the C-contiguous 2-D array ``rows`` with the terms t_{k_first+1},
    t_{k_first+2}, ... of the unit-argument series p, given t_{k_first} =
    t_first, and return the ratios t_{k+1}/t_k in the same shape.

    Each ratio is ((a1+k)(a2+k))(a3+k) / (((b1+k)(b2+k))(1+k)), formed in
    place with two temporaries: one arange, whose two views are k and 1 + k,
    and the numerator.  The denominator comes first, in ``rows``, with b2 + k
    in the numerator's buffer, and a3 + k last, over k.  When a1 == a2, as in
    every 3F2 of the closed forms, (a1+k)(a2+k) is the square of one sum;
    otherwise a2 + k takes a third temporary.  The cumulative product
    restarts at every row; each row is then scaled by the chained product of
    t_first and the last terms of the rows before it, which is the last term
    of the scaled row before it (one row from t_first = 1 is left as it is),
    so a row holds the bits that computing the rows one at a time gives.
    ``np`` is the loaded numpy module that ``_loaded_numpy`` returns.
    """
    flat = rows.reshape(-1)  # a view, the denominator until the terms land
    ks = np.arange(k_first, k_first + flat.size + 1, dtype=float)
    k = ks[:-1]
    num = np.add(k, p.b2)
    np.add(k, p.b1, out=flat)
    flat *= num
    flat *= ks[1:]  # 1 + k; the last use of that view
    np.add(k, p.a1, out=num)
    if p.a1 == p.a2:
        num *= num
    else:
        num *= k + p.a2
    num *= np.add(k, p.a3, out=k)
    del ks, k  # freed before the scaling below, whose product takes a temporary
    ratios = np.divide(num, flat, out=num).reshape(rows.shape)
    np.multiply.accumulate(ratios, axis=1, out=rows)  # np.cumprod, less call overhead
    if len(rows) > 1 or t_first != 1.0:
        lasts = np.concatenate(([t_first], rows[:-1, -1]))
        rows *= np.multiply.accumulate(lasts)[:, None]
    return ratios


def _overflow(k_first: int, k_last: int) -> ConvergenceError:
    return ConvergenceError(f"3F2 series overflows in its terms t_{k_first} to t_{k_last}")


def _pure_terms(
    p: Hyp3F2Params, k_first: int, n: int, t_first: float
) -> tuple[list[float], list[float]]:
    """The ratios t_{k+1}/t_k for k = k_first, ..., k_first + n - 1 and the
    terms t_{k_first+1}, ..., t_{k_first+n} of the series p, given
    t_{k_first} = t_first, as plain floats: the bits ``_term_rows`` puts in
    one row, from the same operations in the same order.  A denominator that
    underflows to zero raises the overflow error of these n terms: numpy's
    quotient there is +-inf or nan, and so is every later term.

    Three things spare interpreter work and change no bit.  k is a float
    counter, and 1 + k, the denominator's last factor, is the next k: both
    are exact below 2**53, far above ``MAX_TERMS``.  When a1 == a2, as in
    every 3F2 of the closed forms, (a1+k)(a2+k) is one sum squared, the
    product ``_term_rows`` forms.  The cumulative product and the scaling
    by t_first are one pass: the running product t starts at 1.0, so its
    first value is the first ratio itself, and each term is t * t_first,
    exactly t when t_first is 1.0."""
    a1, a2, a3, b1, b2 = p
    k = float(k_first)
    try:
        if a1 == a2:
            ratios = [
                ((s := k + a1) * s) * (k + a3) / (((k + b1) * (k + b2)) * (k := k + 1.0))
                for _ in repeat(None, n)
            ]
        else:
            ratios = [
                ((k + a1) * (k + a2)) * (k + a3) / (((k + b1) * (k + b2)) * (k := k + 1.0))
                for _ in repeat(None, n)
            ]
    except ZeroDivisionError:
        raise _overflow(k_first + 1, k_first + n) from None
    t = 1.0
    return ratios, [(t := t * r) * t_first for r in ratios]


def _predicted_chunks(p: Hyp3F2Params, balance: float, tol: float) -> int:
    """Chunks of ``_CHUNK`` terms after which the tail bound of the series
    is predicted to fall below ``tol`` times its sum; a hint only, 1 on any
    domain or arithmetic error.

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
    except (ValueError, ArithmeticError):
        return 1


def _convergent_terms(p: Hyp3F2Params, tol: float):
    """The terms t_0 = 1, ..., t_{k0-1} of the convergent unit-argument
    series p, with k0 and the tail bound.

    The terms come in chunks of ``_CHUNK``.  The series stops after the
    first chunk whose last term t_{k0-1} is zero, or whose power-law tail
    bound |t_{k0-1}| k0 / (s - 1), s the balance (s for s <= 1, where no
    tight tolerance is reachable anyway), is at most ``tol`` times the
    running sum, past the index from which every factor of the term ratio
    is positive and with every ratio of the chunk in (0, 1).  The running
    sum adds each chunk's terms in order, then the chunk sums in order; a
    chunk that leaves it infinite or nan raises ``ConvergenceError``.

    Unless the caller has loaded numpy, the chunks come one at a time from
    ``_pure_terms``, into a list that always holds the k0 terms returned.
    With numpy loaded they come from ``_term_rows``, one pass per array,
    which the pass fills: the first holds the chunks ``_predicted_chunks``
    gives, and each later pass doubles the array, copies the terms so far
    and fills the new half, all clamped to ``_MAX_CHUNKS``.  The chunks
    past the stopping one are dropped, so the prediction changes the time,
    never the result.  Both producers give the same terms, k0 and tail
    bound.
    """
    balance = p.balance()
    if balance <= 0.0:
        raise ConvergenceError(
            f"series diverges at unit argument: b-sum - a-sum = {balance} <= 0"
        )
    denom = balance - 1.0 if balance > 1.0 else balance
    k_min = max(0.0, -p.a1, -p.a2, -p.a3, -p.b1, -p.b2) + 2
    np = _loaded_numpy()
    # approx is the running sum; k0 = 1 + _CHUNK * (chunks summed).
    terms, approx, t_last, k0 = [1.0], 1.0, 1.0, 1
    chunks = 0  # the chunks the numpy array holds
    while k0 <= MAX_TERMS:
        if np is None:
            ratios, chunk = _pure_terms(p, k0 - 1, _CHUNK, t_last)
            terms += chunk
            ratios, sums, lasts = [ratios], [reduce(add, chunk)], [chunk[-1]]
            least, greatest = min, max
        else:
            chunks = min(2 * chunks or _predicted_chunks(p, balance, tol), _MAX_CHUNKS)
            grown = np.empty(1 + chunks * _CHUNK)
            grown[:k0] = terms
            terms, rows = grown, grown[k0:].reshape(-1, _CHUNK)
            ratios = _term_rows(np, p, rows, k0 - 1, t_last)
            sums = np.add.accumulate(rows, axis=1)[:, -1].tolist()
            lasts = rows[:, -1].tolist()
            least, greatest = np.minimum.reduce, np.maximum.reduce
        for j, (chunk_sum, t_last) in enumerate(zip(sums, lasts)):
            approx += chunk_sum
            if not math.isfinite(approx):
                raise _overflow(k0, k0 + _CHUNK - 1)
            k0 += _CHUNK
            tail = abs(t_last) * k0 / denom
            if t_last == 0.0 or (
                k0 > k_min
                and tail <= tol * max(abs(approx), _TINY)
                and least(ratios[j]) > 0.0
                and greatest(ratios[j]) < 1.0
            ):
                return (terms if np is None else terms[:k0]), k0, tail
    raise ConvergenceError(
        f"3F2 series did not reach tol={tol:g} within {MAX_TERMS} terms"
    )


def _exact_sum(terms) -> float:
    """The correctly rounded sum of ``terms``, equal to
    ``math.fsum(terms.tolist())`` bit for bit; a list (the pure-Python
    producer's terms) goes to ``math.fsum`` itself.

    One error-free extraction (ExtractVector of Rump, Ogita and Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput. 31,
    2008): with max|p| < 2**e and 2**m > n + 2, sigma = 2**(e + m) splits
    each term p into q = (p + sigma) - sigma, on a grid coarse enough that
    the q add up exactly in any order, and the exact remainder r = p - q.
    max|p| is the larger of max p and -min p, and q, then -r = q - p, are
    formed in one buffer, whose sum negated is that of the r bit for bit.
    Summed in any order, the r err by at most delta = n**2 * 2**-104 * sigma.
    When both ends of that interval, added to the q sum, round to the same
    double, that double is the correctly rounded sum.  Otherwise (a near
    tie), and for a non-finite term or a sigma or delta outside the normal
    doubles, the terms go to math.fsum.  A zero sum always does, with the
    sign of zero that fsum gives: the ends differ, and a sum of two doubles
    rounds to zero only when it is exactly zero, so they cannot both.
    """
    if isinstance(terms, list):
        return math.fsum(terms)
    n = terms.size
    # The ufunc reductions that the ndarray methods call through Python.
    np = _loaded_numpy()  # loaded: terms is an array
    mu = float(max(np.maximum.reduce(terms), -np.minimum.reduce(terms))) if n else 0.0
    if 0.0 < mu < math.inf:
        e = math.frexp(mu)[1]  # mu < 2**e
        m = (n + 2).bit_length()  # 2**m > n + 2
        if e + m <= 1023 and e + m - 104 >= -1022:
            sigma = math.ldexp(1.0, e + m)
            buf = terms + sigma
            buf -= sigma  # q
            tau = float(np.add.reduce(buf))
            buf -= terms  # -r, exactly: negating commutes with every rounding
            rho = -float(np.add.reduce(buf))
            delta = math.ldexp(n * n, e + m - 104)
            lo = tau + math.nextafter(rho - delta, -math.inf)
            if lo == tau + math.nextafter(rho + delta, math.inf):
                return lo
    return math.fsum(terms.tolist())


# (p, tol, (value, diagnostics)) of hyp3f2_unit's last call that returned,
# one tuple so that no key is read with another call's result.  One entry:
# a miss costs no hashing, and a table, which starts at its first row's
# centre and ends at its last row's lower point, never reads the one before.
_last_sum = (None, None, None)


def hyp3f2_unit(
    p: Hyp3F2Params, tol: float = TOL_FLOOR
) -> tuple[float, SeriesDiagnostics]:
    """Evaluate 3F2(a1, a2, a3; b1, b2; 1) by direct summation.

    A series that does not truncate takes its terms from
    ``_convergent_terms``, the one routine that sums every such 3F2 here:
    chunks of ``_CHUNK`` terms, each a
    cumulative product of the term ratios, stopped after the first chunk
    whose power-law tail bound falls below ``tol`` times the running sum,
    which adds each chunk in order and then the chunk sums in order.  A
    truncating series is one cumulative product over all its ratios in
    plain floats, from ``_pure_terms`` whether numpy is loaded or not.  The
    value is the correctly rounded sum of all terms: ``math.fsum`` of a
    truncating series, and ``_exact_sum`` of a convergent one (bit for bit
    ``math.fsum``, which it falls back to when its error bracket cannot
    decide the rounding).

    A call with the ``Hyp3F2Params`` and clamped ``tol`` of the last call
    that returned gets that call's (value, diagnostics) back, the same
    tuple, and sums nothing: the sum is a function of (p, tol) alone.  Any
    other call sums and becomes the one remembered; a call that raises
    leaves it as it was.  The repeats read back are a planar table row's
    centre and a crosscheck's alpha_1 after its R_{-3/2}; another call
    between the two costs time, not bits.

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
        denominator excess), needs more than ``MAX_TERMS`` terms, or
        overflows: a term, the running sum of a chunk of ``_CHUNK`` terms,
        or the sum of a truncating series leaves the finite doubles.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    tol = max(tol, TOL_FLOOR)
    global _last_sum
    last = _last_sum
    # Type first: a plain tuple, or a subclass, never replays nor is replayed.
    if type(p) is Hyp3F2Params is type(last[0]) and p == last[0] and tol == last[1]:
        return last[2]

    # Only a non-positive numerator can truncate the series.
    n_trunc = None
    if p.a1 <= 0.0 or p.a2 <= 0.0 or p.a3 <= 0.0:
        n_trunc = p.truncation_order()
    if n_trunc is not None:
        if n_trunc + 1 > MAX_TERMS:
            raise ConvergenceError(
                f"truncating series needs {n_trunc + 1} terms, cap is {MAX_TERMS}"
            )
        terms = [1.0, *_pure_terms(p, 0, n_trunc, 1.0)[1]]
        # A term that leaves the finite doubles makes every later term
        # infinite or nan, so the last term shows it.
        if not math.isfinite(terms[-1]):
            raise _overflow(1, n_trunc)
        try:
            value = math.fsum(terms)
        except OverflowError:  # finite terms whose sum leaves the finite doubles
            raise _overflow(0, n_trunc) from None
        result = value, tuple.__new__(SeriesDiagnostics, (n_trunc + 1, 0.0))
    else:
        terms, k0, tail = _convergent_terms(p, tol)
        value = _exact_sum(terms)
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        result = value, tuple.__new__(SeriesDiagnostics, (k0, tail / max(abs(value), _TINY)))
    _last_sum = (p, tol, result)
    return result

