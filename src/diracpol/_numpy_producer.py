"""The numpy producer of the convergent 3F2 series: ``_next_pass`` fills
the chunks that ``specfun._convergent_sum`` tests, and ``_exact_sum``
sums the terms it keeps, with the bits of the plain-float producer.

``specfun`` imports it on the first series that a process which has loaded
numpy sums, and finds it in ``sys.modules`` after that.  It never imports
numpy; each function takes the loaded module or finds it loaded.
"""

from __future__ import annotations

import math
import sys

from .specfun import _CHUNK, MAX_TERMS, Hyp3F2Params

# Chunks starting at or below MAX_TERMS: the most a series sums.
_MAX_CHUNKS = (MAX_TERMS - 1) // _CHUNK + 1


def _term_rows(np, p: Hyp3F2Params, rows: np.ndarray, k_first: int, t_first: float) -> np.ndarray:
    """Fill the C-contiguous 2-D array ``rows`` with the terms t_{k_first+1},
    t_{k_first+2}, ... of the unit-argument series p, given t_{k_first} =
    t_first, and return the ratios t_{k+1}/t_k in the same shape.

    Each ratio is ((a1+k)(a2+k))(a3+k) / (((b1+k)(b2+k))(1+k)), formed in
    place with two temporaries, three when a1 != a2.  The cumulative product
    restarts at every row; each row is then scaled by the chained product of
    t_first and the last terms of the rows before it, which is the last term
    of the scaled row before it (one row from t_first = 1 is left as it is),
    so a row holds the bits that computing the rows one at a time gives.
    ``np`` is the loaded numpy module.
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


def _next_pass(np, p: Hyp3F2Params, balance: float, tol: float, terms, k0: int, t_last: float):
    """One pass of ``specfun._convergent_sum`` after its k0 ``terms`` so
    far (a list before the first pass), the last being t_last: an array of
    the chunks ``_predicted_chunks`` gives, or of twice the chunks of the
    pass before, at most ``_MAX_CHUNKS``, that holds those terms and the
    rows ``_term_rows`` fills.  Returns the array, the ratios by row, and
    each row's in-order sum and last term as lists."""
    chunks = min(2 * ((k0 - 1) // _CHUNK) or _predicted_chunks(p, balance, tol), _MAX_CHUNKS)
    grown = np.empty(1 + chunks * _CHUNK)
    grown[:k0] = terms
    rows = grown[k0:].reshape(-1, _CHUNK)
    ratios = _term_rows(np, p, rows, k0 - 1, t_last)
    sums = np.add.accumulate(rows, axis=1)[:, -1].tolist()
    return grown, ratios, sums, rows[:, -1].tolist()


def _exact_sum(terms: np.ndarray) -> float:
    """The correctly rounded sum of the array ``terms``, equal to
    ``math.fsum(terms.tolist())`` bit for bit.

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
    n = terms.size
    # The ufunc reductions that the ndarray methods call through Python.
    np = sys.modules["numpy"]  # loaded: terms is an array
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
