"""Radial Dirac-Coulomb Sturmian functions at the planar ground-state energy
and the explicit symmetric series for the dipole channel integrals.

This module is the independent oracle for the closed-form channel integrals:
it sums the Sturmian expansion term by term from the closed first-order
radial integrals, and additionally re-derives those integrals by
Gauss-Laguerre quadrature of their defining integrands.

The constants of a channel that do not depend on n_r (gamma_{1/2},
gamma_kappa, d = gamma_kappa - gamma_{1/2}, log Gamma(d - 1),
log Gamma(gamma_kappa + gamma_{1/2} + 2), log Gamma(2 gamma_{1/2} + 1) and
log(8 Z**2)) are computed once per call.  Two kernels take them and |n_r|
and evaluate the pieces that depend on |n_r| alone once for both signs of
n_r: one for the closed first-order integrals, shared by
``first_order_integral`` and ``r_channel_series``, and one for the Sturmian
doublet, shared by ``sturmian_ST`` and the quadrature.  The series keeps
Shewchuk partials of its running sum instead of re-summing every term after
each pair.

``channel_first_order_integrals`` gives the closed and the quadrature
integrals of every |n_r| <= n_max of one channel.  It builds the channel
once, and since every index of a channel is integrated on the same nodes, it
evaluates the ground-state doublet and the Sturmian envelope on them once.
Two caches outlive a call: a table of log n!, which does not depend on the
input, and the last 64 quadrature rules.

The quadrature's 16-node Gauss-Laguerre rule is built with numpy alone
(``roots_genlaguerre``) and is exact for |n_r| <= 31.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .atom import AtomSpec, ChannelIndex, _check_dipole, gamma_half, gamma_kappa, radial_PQ
from .specfun import _TINY, ConvergenceError, SeriesDiagnostics, _validated_make, laguerre, log_gamma

# Accuracy floor of the series oracle; requests below it are clamped.
SERIES_TOL_FLOOR = 1e-12

_MAX_PAIRS = 100_000
_STOP_STREAK = 5
# Nodes of the quadrature rule, exact through degree 2 * 16 - 1 = 31.
_RULE_NODES = 16


class _SturmianIndexFields(NamedTuple):
    n_r: int
    ch: ChannelIndex


class SturmianIndex(_SturmianIndexFields):
    """Radial index n_r and channel of one Sturmian basis function.

    The kappa = -1/2 channel hosts the ground state itself and is excluded
    from the expansion.
    """

    __slots__ = ()

    def __new__(cls, n_r: int, ch: ChannelIndex) -> SturmianIndex:
        if ch.kappa == -0.5:
            raise ValueError("the kappa = -1/2 channel is excluded from the expansion")
        return tuple.__new__(cls, (n_r, ch))

    _make = classmethod(_validated_make)


class RadialIntegralPair(NamedTuple):
    """First-order radial integrals of one Sturmian index: the plain overlap
    and its apparent-eigenvalue-weighted companion (atomic units)."""

    plain: float
    mu_weighted: float


def _caps(n: int, gk: float, kappa: float) -> tuple[float, ...]:
    """N of n_r = n and, for n > 0, of n_r = -n (see n_cap)."""
    if n == 0:
        return (-kappa,)
    mag = math.sqrt(n * n + 2.0 * n * gk + kappa * kappa)
    return (mag, -mag)


def _mu(n: int, gk: float, nn: float, g: float) -> float:
    return (n + gk + nn) / (g + 0.5)


def n_cap(idx: SturmianIndex, spec: AtomSpec) -> float:
    """Signed apparent principal quantum number N of a Sturmian function.

    Magnitude sqrt(n_r**2 + 2|n_r|*gamma_kappa + kappa**2); positive for
    n_r > 0, negative for n_r < 0, and N = -kappa when n_r = 0.
    """
    kappa = idx.ch.kappa
    if idx.n_r == 0:
        return -kappa
    return _caps(abs(idx.n_r), gamma_kappa(spec, idx.ch), kappa)[idx.n_r < 0]


def mu(idx: SturmianIndex, spec: AtomSpec) -> float:
    """Apparent charge-like eigenvalue of a Sturmian function at the
    ground-state energy: (|n_r| + gamma_kappa + N) / (gamma_{1/2} + 1/2)."""
    gk = gamma_kappa(spec, idx.ch)
    g = gamma_half(spec)
    return _mu(abs(idx.n_r), gk, n_cap(idx, spec), g)


def sturmian_ST(idx: SturmianIndex, spec: AtomSpec, r):
    """Sturmian radial doublet (S(r), T(r)) in atomic units.

    Both components share the envelope (4Zr)**gamma_kappa * exp(-2Zr) and a
    two-term Laguerre bracket; for n_r = 0 the bracket collapses to its
    L_0 term since L_{-1} is identically zero.
    """
    c = _exponents(idx.ch, spec)
    x = 4.0 * spec.Z * np.asarray(r, dtype=float)
    return _doublets(c, abs(idx.n_r), x, _log_envelope(c, x))[idx.n_r < 0]


class _Exponents(NamedTuple):
    """kappa, Z and the exponents gamma_{1/2}, gamma_kappa of one channel at
    one spec: all that the Sturmian doublets need."""

    kappa: float
    z: float
    g: float
    gk: float


def _exponents(ch: ChannelIndex, spec: AtomSpec) -> _Exponents:
    return _Exponents(ch.kappa, spec.Z, gamma_half(spec), gamma_kappa(spec, ch))


class _Channel(NamedTuple):
    """The |n_r|-independent constants of the closed first-order integrals
    of one dipole channel at one spec."""

    kappa: float
    g: float
    gk: float
    d: float
    log_front: float  # log Gamma(gk + g + 2) - log(8 Z**2)
    log_gamma_2g1: float  # log Gamma(2g + 1)
    log_gamma_d1: float | None  # log Gamma(d - 1), only when d - 1 > 0


def _channel(e: _Exponents) -> _Channel:
    z, g, gk = e.z, e.g, e.gk
    d = gk - g
    return _Channel(
        e.kappa,
        g,
        gk,
        d,
        log_gamma(gk + g + 2.0) - math.log(8.0 * z * z),
        log_gamma(2.0 * g + 1.0),
        log_gamma(d - 1.0) if d - 1.0 > 0.0 else None,
    )


@lru_cache(maxsize=_MAX_PAIRS + 1)
def _log_factorial(n: int) -> float:
    """log n!, equal to log_gamma(n + 1.0) bit for bit."""
    return log_gamma(n + 1.0)


def _gamma_shift_ratio(d: float, n: int, log_gamma_d1: float | None) -> tuple[float, float]:
    """Signed log of Gamma(n + d - 2) / Gamma(d - 1).

    For n >= 1 this is the rising product (d-1)(d)...(d+n-3); the product
    form is required when d - 1 <= 0 (the kappa = 1/2 channel), where naive
    Gamma evaluation would hit poles.  Returns (sign, log magnitude).
    """
    if n == 0:
        value = 1.0 / (d - 2.0)
        return math.copysign(1.0, value), -math.log(abs(d - 2.0))
    if d - 1.0 > 0.0:
        return 1.0, log_gamma(n + d - 2.0) - log_gamma_d1
    sign = 1.0
    logmag = 0.0
    for j in range(n - 1):
        factor = d - 1.0 + j
        if factor == 0.0:
            return 0.0, -math.inf
        if factor < 0.0:
            sign = -sign
        logmag += math.log(abs(factor))
    return sign, logmag


def _index_integrals(c: _Channel, n: int) -> list[tuple[float, float, float]]:
    """(plain, mu_weighted, mu) of n_r = n and, for n > 0, of n_r = -n.

    Both signs share the log-gammas of |n_r|; only N, mu and the brace
    differ between them.  Magnitudes are assembled in log space so that
    large |n_r| neither overflows nor loses the leading digits.
    """
    kappa, g, gk, d = c.kappa, c.g, c.gk, c.d
    caps = _caps(n, gk, kappa)
    sign_r, log_r = _gamma_shift_ratio(d, n, c.log_gamma_d1)
    if sign_r == 0.0:
        return [(0.0, 0.0, _mu(n, gk, nn, g)) for nn in caps]

    log_n = math.log(2.0) + _log_factorial(n)
    log_n2gk = log_gamma(n + 2.0 * gk + 1.0)
    nd = n + d
    out = []
    for nn in caps:
        log_common = c.log_front - 0.5 * (
            log_n + math.log(nn * (nn - kappa)) + c.log_gamma_2g1 + log_n2gk
        )
        magnitude = sign_r * math.exp(log_common + log_r)

        linear = (nd - 2.0) - 2.0 * g * (nn + kappa)
        plain = -(nn - kappa) * linear * magnitude
        mu_val = _mu(n, gk, nn, g)

        if kappa == 0.5 and n == 0:
            # Degenerate index: the weighted integrand is proportional to
            # mu*(1+2g) + (1-2g), which vanishes identically for every Z.
            mu_weighted = 0.0
        else:
            brace = 2.0 * g * (nd - 2.0) - (nn + kappa) + (nn + 0.5) / nd * linear
            mu_weighted = -0.5 * (mu_val - 1.0) * (nn - kappa) * brace * magnitude
        out.append((plain, mu_weighted, mu_val))
    return out


def _log_envelope(c: _Exponents, x):
    """gamma_kappa * log(x) - x / 2, the log of the doublets' envelope at
    x = 4Zr without its normalization; it does not depend on n_r."""
    return c.gk * np.log(x) - 0.5 * x


def _doublets(c: _Exponents, n: int, x, log_envelope) -> list[tuple]:
    """Sturmian doublets (S, T) at x = 4Zr of n_r = n and, for n > 0, of
    n_r = -n; log_envelope is _log_envelope(c, x).

    Both signs share the Laguerre polynomials and the log-gammas of |n_r|;
    only N, and with it the norm and the bracket, differ between them.
    """
    kappa, gk = c.kappa, c.gk
    n2gk = n + 2.0 * gk
    # log of (1 +- 2g) n! (n + 2 gk) / (4 Z N (N - kappa) Gamma(n + 2 gk))
    # without the 1 +- 2g, in pieces: the head before N, the tail after it.
    log_head = _log_factorial(n) + math.log(n2gk) - math.log(4.0 * c.z)
    log_tail = log_gamma(n2gk)
    low = laguerre(n - 1, 2.0 * gk, x)
    lag_n = laguerre(n, 2.0 * gk, x)
    root_plus = math.sqrt(1.0 + 2.0 * c.g)
    root_minus = math.sqrt(1.0 - 2.0 * c.g)
    out = []
    for nn in _caps(n, gk, kappa):
        lognorm = 0.5 * (log_head - math.log(nn * (nn - kappa)) - log_tail)
        envelope = np.exp(log_envelope + lognorm)
        high = (nn - kappa) / n2gk * lag_n
        out.append((root_plus * envelope * (low - high), -root_minus * envelope * (low + high)))
    return out


def first_order_integral(idx: SturmianIndex, spec: AtomSpec) -> RadialIntegralPair:
    """Closed-form first-order radial integrals for a dipole channel.

    Returns the pair (integral of r (P S + Q T), integral of
    r (mu P S + Q T)) in atomic units.
    """
    _check_dipole(idx.ch.kappa)
    integrals = _index_integrals(_channel(_exponents(idx.ch, spec)), abs(idx.n_r))
    plain, mu_weighted, _ = integrals[idx.n_r < 0]
    return RadialIntegralPair(plain, mu_weighted)


def roots_genlaguerre(weight_power: float):
    """Nodes and weights of the _RULE_NODES-point generalized Gauss-Laguerre
    rule for the weight x**weight_power * exp(-x) on (0, inf).

    The nodes are the eigenvalues of the Jacobi matrix of the generalized
    Laguerre polynomials (diagonal 2i + alpha + 1, off-diagonal
    sqrt(i (i + alpha))); each weight is Gamma(alpha + 1) times the squared
    first component of its normalized eigenvector (Golub and Welsch 1969).
    """
    alpha = weight_power
    if not alpha > -1.0:
        raise ValueError(f"weight_power must exceed -1, got {alpha!r}")
    i = np.arange(_RULE_NODES, dtype=float)
    off = np.sqrt(i[1:] * (i[1:] + alpha))
    jacobi = np.diag(2.0 * i + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, math.gamma(alpha + 1.0) * vectors[0] ** 2


@lru_cache(maxsize=64)
def _laguerre_rule(weight_power: float):
    """Nodes x and weights of roots_genlaguerre, and weight_power * log(x)."""
    x, w = roots_genlaguerre(weight_power)
    return x, w, weight_power * np.log(x)


def gauss_laguerre_integral(func, weight_power: float, scale: float) -> float:
    """Integrate func over (0, inf) assuming func(r) behaves like
    (scale*r)**weight_power * exp(-scale*r) * smooth(scale*r).

    The smooth remainder is recovered in log space, so integrands may be
    evaluated in their natural (exponentially small) form.  The rule has
    _RULE_NODES = 16 nodes, so it is exact, up to rounding, when that
    remainder is a polynomial of degree <= 31.
    """
    x, w, log_weight = _laguerre_rule(weight_power)
    r = x / scale
    fvals = np.asarray(func(r), dtype=float)
    signs = np.sign(fvals)
    with np.errstate(divide="ignore"):
        logrest = np.log(np.abs(fvals)) + x - log_weight
    rest = np.where(signs == 0.0, 0.0, signs * np.exp(logrest))
    return math.fsum(w * rest) / scale


class _Nodes(NamedTuple):
    """One channel's quadrature nodes r, with the ground-state doublet
    (P, Q) and the log of the Sturmian envelope on them."""

    power: float
    scale: float
    p: np.ndarray
    q: np.ndarray
    x: np.ndarray  # 4Zr
    log_envelope: np.ndarray


def _nodes(c: _Exponents, spec: AtomSpec) -> _Nodes:
    # Every index of a channel has the weight power gamma_{1/2} +
    # gamma_kappa + 1, so it is integrated on the same nodes r = x / 4Z.
    power = c.g + c.gk + 1.0
    scale = 4.0 * c.z
    r = _laguerre_rule(power)[0] / scale
    p, q = radial_PQ(spec, r)
    x = scale * r
    return _Nodes(power, scale, p, q, x, _log_envelope(c, x))


def _quadrature_integrals(c: _Exponents, n: int, nodes: _Nodes) -> list[RadialIntegralPair]:
    """Quadrature integrals of n_r = n and, for n > 0, of n_r = -n; the two
    integrals of an index are evaluated on one set of doublets."""
    out = []
    for nn, (s, t) in zip(_caps(n, c.gk, c.kappa), _doublets(c, n, nodes.x, nodes.log_envelope)):
        qt = nodes.q * t

        def integral(weight: float) -> float:
            # r (weight P S + Q T); gauss_laguerre_integral passes the nodes
            # r that P, S and T were evaluated at.
            return gauss_laguerre_integral(
                lambda r: r * (weight * nodes.p * s + qt), nodes.power, nodes.scale
            )

        out.append(RadialIntegralPair(integral(1.0), integral(_mu(n, c.gk, nn, c.g))))
    return out


def first_order_integral_quadrature(idx: SturmianIndex, spec: AtomSpec) -> RadialIntegralPair:
    """First-order radial integrals by generalized Gauss-Laguerre quadrature
    of their defining integrands; the quadrature weight carries the exact
    power (4Zr)**(gamma_{1/2} + gamma_kappa + 1), so the remaining factor is
    a polynomial of degree |n_r| and the rule is exact up to rounding."""
    c = _exponents(idx.ch, spec)
    return _quadrature_integrals(c, abs(idx.n_r), _nodes(c, spec))[idx.n_r < 0]


def channel_first_order_integrals(
    ch: ChannelIndex, spec: AtomSpec, n_max: int
) -> list[tuple[RadialIntegralPair, RadialIntegralPair]]:
    """(closed form, quadrature) first-order integrals of one dipole channel
    for n_r = -n_max, ..., n_max, in that order.

    Each pair equals ``first_order_integral`` and
    ``first_order_integral_quadrature`` of its index bit for bit.  The
    channel's constants, nodes and ground-state doublet are computed once,
    and each |n_r| once for both signs.
    """
    _check_dipole(ch.kappa)
    e = _exponents(ch, spec)
    c = _channel(e)
    nodes = _nodes(e, spec)
    by_index = {}
    for n in range(n_max + 1):
        exact = _index_integrals(c, n)
        quad = _quadrature_integrals(e, n, nodes)
        for n_r, (plain, mu_weighted, _), pair in zip((n, -n), exact, quad):
            by_index[n_r] = (RadialIntegralPair(plain, mu_weighted), pair)
    return [by_index[n_r] for n_r in range(-n_max, n_max + 1)]


def _series_term(plain: float, mu_weighted: float, mu_val: float) -> float:
    if plain == 0.0 and mu_weighted == 0.0:
        return 0.0
    return plain * mu_weighted / (mu_val - 1.0)


def _add_partial(partials: list[float], x: float) -> None:
    """Add x to the nonoverlapping partials of a running sum (Shewchuk), so
    that math.fsum(partials) is the correctly rounded sum of every x added."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def r_channel_series(
    ch: ChannelIndex, spec: AtomSpec, tol: float = SERIES_TOL_FLOOR
) -> tuple[float, SeriesDiagnostics]:
    """Dipole channel integral R_kappa summed over the Sturmian expansion.

    Terms for n_r and -n_r are paired and accumulated symmetrically with
    compensated summation; the sum stops once the paired-term magnitude has
    stayed below tol * |sum| for several consecutive pairs and a power-law
    tail estimate also falls below it.

    Returns the channel integral in atomic units together with diagnostics.
    """
    _check_dipole(ch.kappa)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    tol = max(tol, SERIES_TOL_FLOOR)

    c = _channel(_exponents(ch, spec))
    partials: list[float] = []
    _add_partial(partials, _series_term(*_index_integrals(c, 0)[0]))
    prev_pair = math.inf
    streak = 0
    for n in range(1, _MAX_PAIRS + 1):
        plus, minus = _index_integrals(c, n)
        pair = _series_term(*plus) + _series_term(*minus)
        _add_partial(partials, pair)
        total = math.fsum(partials)
        scale = max(abs(total), _TINY)
        streak = streak + 1 if abs(pair) <= tol * scale else 0
        if streak >= _STOP_STREAK and n >= 10:
            tail = _pair_tail(abs(prev_pair), abs(pair), n)
            if tail <= tol * scale:
                return total, SeriesDiagnostics(2 * n + 1, tail / scale, True)
        prev_pair = pair
    raise ConvergenceError(
        f"Sturmian channel series did not reach tol={tol:g} within {_MAX_PAIRS} pairs"
    )


def _pair_tail(prev_mag: float, mag: float, n: int) -> float:
    """Power-law remainder estimate from the last two paired magnitudes."""
    if mag == 0.0:
        return 0.0
    if not prev_mag > mag:
        return math.inf
    decay = math.log(prev_mag / mag) / math.log(n / (n - 1.0))
    if decay <= 1.0:
        return math.inf
    return mag * n / (decay - 1.0)
