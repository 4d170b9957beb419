"""Validation oracle for the closed-form polarizability: radial
Dirac-Coulomb Sturmian functions at the planar ground-state energy, the
explicit symmetric series for the dipole channel integrals, and the Gamma
ratio and contiguous 3F2 identity that check the closed form.  This module
imports the closed form, never the other way round: no closed-form module
names it, and of the commands only ``crosscheck`` loads it.  The series has
two entry points:

- ``r_channel_series`` sums the Sturmian expansion of one dipole channel term
  by term from the closed first-order radial integrals, and
  ``polarizability_sturmian`` takes the planar alpha_1 = (R_{1/2} +
  R_{-3/2}) / 2 from the two channel series;
- ``channel_first_order_integrals`` gives those closed integrals of every
  |n_r| <= n_max of one channel together with the same integrals re-derived
  by Gauss-Laguerre quadrature of their defining integrands.

Both build the channel once (``_channel``, after the dipole check): the
exponents and the log-gammas that do not depend on |n_r|.  Two kernels
evaluate what depends on |n_r| alone once for both signs of n_r:
``_index_integrals`` the closed first-order integrals, and ``_doublets`` the
Sturmian doublet (S, T) that the quadrature integrates, from the envelope
and Laguerre polynomials that ``_sturmian_parts`` evaluates once on the
channel's nodes.  The series stops on a plain running sum and returns one
``math.fsum`` of its terms.  Two caches outlive a call: a table of log n!
(at most 100,001 entries) and the last 2 channels (``_channel``), each with
the closed integrals of the indices evaluated on it so far
(``_Channel.rows``).  A crosscheck sums each channel series twice and takes
|n_r| <= 3 a third time; the later passes read the rows, so they return the
bits of the first.  Errors are not cached.

The quadrature side runs on plain floats: ``roots_genlaguerre`` builds a
rule of any size by Newton iteration on the Laguerre recurrence, and
``laguerre_rule`` divides its weights by the weight function, so that a
quadrature (``gauss_laguerre_integral``) is one product with the integrand's
values and one ``math.fsum``.  The integrals of |n_r| <= n_max take an
n_max + 1 node rule, exact for the degree-|n_r| remainder of every index;
the rule is data of the channel's nodes (``_Nodes.rule``), built once per
call and handed to each quadrature.  Nothing here imports numpy.

The other checks: ``hyp3f2_contiguous_rhs``, the contiguous-shift identity
of 3F2 at unit argument, and ``gamma_ratio``, the Gamma ratio it takes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .atom import _KAPPA_HALF, AtomSpec, ChannelIndex, _check_dipole, gamma_half, gamma_kappa
from .polarizability import _KAPPA_M32, NONREL_SCALED_PLANAR, PolarizabilityResult, _over_z4
from .specfun import (
    _TINY, TOL_FLOOR, ConvergenceError, Hyp3F2Params, SeriesDiagnostics, hyp3f2_unit, log_gamma,
)

# Accuracy floor of the series oracle; requests below it are clamped.
SERIES_TOL_FLOOR = 1e-12

_MAX_PAIRS = 100_000
_STOP_STREAK = 5
# Default nodes of a Gauss-Laguerre rule, exact through degree 2 * 16 - 1 = 31.
_RULE_NODES = 16
# Newton iteration for its nodes: a step below _NEWTON_RTOL * x leaves an
# error far below rounding, and one more evaluation gives the weight.
_NEWTON_RTOL = 1e-10
_NEWTON_STEPS = 100


class RadialIntegralPair(NamedTuple):
    """First-order radial integrals of one Sturmian index: the plain overlap
    and its apparent-eigenvalue-weighted companion (atomic units)."""

    plain: float
    mu_weighted: float


def _caps(n: int, gk: float, kappa: float) -> tuple[float, ...]:
    """Signed apparent principal quantum number N of n_r = n and, for n > 0,
    of n_r = -n: magnitude sqrt(n**2 + 2n*gamma_kappa + kappa**2), positive
    for n_r > 0 and negative for n_r < 0; N = -kappa when n_r = 0."""
    if n == 0:
        return (-kappa,)
    mag = math.sqrt(n * n + 2.0 * n * gk + kappa * kappa)
    return (mag, -mag)


def _mu(n: int, gk: float, nn: float, g: float) -> float:
    """Apparent charge-like eigenvalue of a Sturmian function at the
    ground-state energy: (|n_r| + gamma_kappa + N) / (gamma_{1/2} + 1/2)."""
    return (n + gk + nn) / (g + 0.5)


class _Channel(NamedTuple):
    """The |n_r|-independent constants of one dipole channel at one spec, and
    the rows of ``_index_integrals`` evaluated on it so far."""

    kappa: float
    z: float
    g: float
    gk: float
    d: float
    log_front: float  # log Gamma(gk + g + 2) - log(8 Z**2)
    log_gamma_2g1: float  # log Gamma(2g + 1)
    log_gamma_d1: float | None  # log Gamma(d - 1), only when d - 1 > 0
    rows: dict[int, tuple[tuple[float, float, float], ...]]  # by |n_r|


@lru_cache(maxsize=2)  # the two dipole channels of one charge
def _channel(ch: ChannelIndex, spec: AtomSpec) -> _Channel:
    _check_dipole(ch.kappa)
    _over_z4(NONREL_SCALED_PLANAR, spec)  # refuse as the closed form does, before overflow
    # Z = 26 and Z = 26.0 are one cache key: store plain floats, so that
    # either spelling gets the same values of the same type back.
    z, g, gk = float(spec.Z), gamma_half(spec), gamma_kappa(spec, ch)
    d = gk - g
    return _Channel(
        float(ch.kappa), z, g, gk, d,
        log_gamma(gk + g + 2.0) - math.log(8.0 * z * z),
        log_gamma(2.0 * g + 1.0),
        log_gamma(d - 1.0) if d - 1.0 > 0.0 else None,
        {},
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


def _index_integrals(c: _Channel, n: int) -> tuple[tuple[float, float, float], ...]:
    """The row of |n_r| = n from the channel's rows, evaluated and stored
    there if absent; an evaluation that raises stores nothing."""
    row = c.rows.get(n)
    if row is None:
        row = c.rows[n] = _index_row(c, n)
    return row


def _index_row(c: _Channel, n: int) -> tuple[tuple[float, float, float], ...]:
    """(plain, mu_weighted, mu) of n_r = n and, for n > 0, of n_r = -n.

    Both signs share the log-gammas of |n_r|; only N, mu and the brace
    differ between them.  Magnitudes are assembled in log space so that
    large |n_r| neither overflows nor loses the leading digits.
    """
    kappa, g, gk, d = c.kappa, c.g, c.gk, c.d
    caps = _caps(n, gk, kappa)
    sign_r, log_r = _gamma_shift_ratio(d, n, c.log_gamma_d1)
    if sign_r == 0.0:
        return tuple((0.0, 0.0, _mu(n, gk, nn, g)) for nn in caps)

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
    return tuple(out)


def _laguerre_table(n: int, alpha: float, xs) -> list[tuple[float, ...]]:
    """[L_{-1}, L_0, ..., L_n] of the generalized Laguerre polynomials of
    order alpha at the floats xs, one tuple over xs per degree, from one run
    of the three-term recurrence in plain floats, L_{-1} being zero:
    (k + 1) L_{k+1} = (2k + alpha + 1 - x) L_k - (k + alpha) L_{k-1}."""
    prev, cur = (0.0,) * len(xs), (1.0,) * len(xs)
    table = [prev, cur][: n + 2]
    for k in range(n):
        a, b, k1 = 2 * k + alpha + 1.0, k + alpha, k + 1.0
        prev, cur = cur, tuple(((a - x) * l1 - b * l0) / k1 for x, l0, l1 in zip(xs, prev, cur))
        table.append(cur)
    return table


def _sturmian_parts(c: _Channel, x, n_max: int) -> tuple:
    """What the doublets of every |n_r| <= n_max take from the floats
    x = 4Zr: the envelope (4Zr)**gamma_kappa * exp(-2Zr) without its
    normalization, and [L_{-1}, L_0, ..., L_{n_max}] of order 2 gamma_kappa,
    each a tuple over x, from one run of the Laguerre recurrence.  Neither
    depends on the sign of n_r."""
    envelope = tuple(math.exp(c.gk * math.log(xi) - 0.5 * xi) for xi in x)
    return envelope, _laguerre_table(n_max, 2.0 * c.gk, x)


def _doublets(c: _Channel, n: int, envelope, laguerres) -> list[tuple]:
    """Sturmian doublets (S, T) of n_r = n and, for n > 0, of n_r = -n, from
    the envelope and Laguerre values of _sturmian_parts(c, x, m), m >= n.

    Both components share the envelope (4Zr)**gamma_kappa * exp(-2Zr),
    scaled by the norm of the index, and a two-term Laguerre bracket in
    L_{n-1} and L_n; for n_r = 0 the bracket collapses to its L_0 term
    since L_{-1} is identically zero.  Both signs share the Laguerre
    polynomials and the log-gammas of |n_r|; only N, and with it the norm
    and the bracket, differ between them.
    """
    kappa, gk = c.kappa, c.gk
    n2gk = n + 2.0 * gk
    # log of (1 +- 2g) n! (n + 2 gk) / (4 Z N (N - kappa) Gamma(n + 2 gk))
    # without the 1 +- 2g, in pieces: the head before N, the tail after it.
    log_head = _log_factorial(n) + math.log(n2gk) - math.log(4.0 * c.z)
    log_tail = log_gamma(n2gk)
    low, lag_n = laguerres[n], laguerres[n + 1]
    root_plus = math.sqrt(1.0 + 2.0 * c.g)
    root_minus = math.sqrt(1.0 - 2.0 * c.g)
    out = []
    for nn in _caps(n, gk, kappa):
        norm = math.exp(0.5 * (log_head - math.log(nn * (nn - kappa)) - log_tail))
        ratio = (nn - kappa) / n2gk
        plus, minus = root_plus * norm, -root_minus * norm
        out.append((
            tuple(plus * e * (lo - ratio * hi) for e, lo, hi in zip(envelope, low, lag_n)),
            tuple(minus * e * (lo + ratio * hi) for e, lo, hi in zip(envelope, low, lag_n)),
        ))
    return out


def roots_genlaguerre(weight_power: float, nodes: int = _RULE_NODES):
    """Nodes and weights, two tuples of floats, of the ``nodes``-point
    generalized Gauss-Laguerre rule for the weight x**weight_power * exp(-x)
    on (0, inf); the rule is exact for polynomials of degree <= 2 nodes - 1.

    Each node is a root of L_m of order alpha = weight_power, m = nodes,
    found by Newton iteration from the starting guesses of ``gaulag``
    (Numerical Recipes, 2nd ed., sec. 4.5).  The three-term recurrence runs
    in the form that keeps its relative accuracy near x = 0: with
    p_k = L_k / B_k, B_k = binom(k + alpha, k), and d_k = p_k - p_{k-1},
    d_{k+1} = -x / (k + alpha + 1) p_k + k / (k + alpha + 1) d_k, and
    p_m' = m d_m / x.  The weight of a node x is
    Gamma(alpha + 1) x / (m (m + alpha) B_{m-1} p_{m-1}(x)**2), with
    p_{m-1} = p_m - d_m.
    """
    alpha, m = weight_power, nodes
    if not -1.0 < alpha < math.inf:
        raise ValueError(f"weight_power must exceed -1 and be finite, got {alpha!r}")
    if m < 1:
        raise ValueError(f"nodes must be at least 1, got {m!r}")
    dens = [k + alpha + 1.0 for k in range(m)]
    steps = [(dens[k], k / dens[k]) for k in range(1, m)]
    binom = 1.0  # B_{m-1}
    for k in range(1, m):
        binom *= 1.0 + alpha / k
    front = math.gamma(alpha + 1.0) / (m * (m + alpha) * binom)
    xs: list[float] = []
    ws: list[float] = []
    x = 0.0
    for i in range(m):
        if i == 0:
            x = (1.0 + alpha) * (3.0 + 0.92 * alpha) / (1.0 + 2.4 * m + 1.8 * alpha)
        elif i == 1:
            x += (15.0 + 6.25 * alpha) / (1.0 + 0.9 * alpha + 2.5 * m)
        else:
            ai = i - 1.0
            x += (
                ((1.0 + 2.55 * ai) / (1.9 * ai) + 1.26 * ai * alpha / (1.0 + 3.5 * ai))
                * (x - xs[i - 2]) / (1.0 + 0.3 * alpha)
            )
        done = False
        for _ in range(_NEWTON_STEPS):
            d = -x / dens[0]
            p = d + 1.0
            for den, ratio in steps:
                d = -x / den * p + ratio * d
                p += d
            if done:
                break
            step = p * x / (m * d)
            x -= step
            # Quadratic convergence: the step after this one is below rounding.
            done = abs(step) <= _NEWTON_RTOL * x
        else:  # out of steps, or the last one never evaluated
            done = False
        if not done or not x > (xs[-1] if xs else 0.0):
            raise ConvergenceError(
                f"Newton iteration missed node {i} of the {m}-node Gauss-Laguerre rule "
                f"for weight_power={alpha!r}"
            )
        q = p - d
        xs.append(x)
        ws.append(front * x / q / q)
    return tuple(xs), tuple(ws)


def laguerre_rule(weight_power: float, nodes: int = _RULE_NODES):
    """Nodes x of roots_genlaguerre and its weights divided by the weight
    function, W = w * exp(x) / x**weight_power, formed in log space, so that
    sum(W * f(x)) integrates f itself."""
    x, w = roots_genlaguerre(weight_power, nodes)
    if 0.0 in w:
        raise ValueError(
            f"the {nodes}-node Gauss-Laguerre rule of weight power {weight_power!r} "
            "has weights that underflow to zero; use fewer nodes"
        )
    return x, tuple(
        math.exp(math.log(wi) + xi - weight_power * math.log(xi)) for xi, wi in zip(x, w)
    )


def gauss_laguerre_integral(func, rule, scale: float) -> float:
    """Integrate func over (0, inf) on rule = laguerre_rule(p, m), assuming
    func(r) behaves like (scale*r)**p * exp(-scale*r) * smooth(scale*r).

    func is called once, with the list of nodes r = x / scale, and returns
    the integrand's values there (any sequence of numbers, one per node;
    another count raises ValueError); they are multiplied by the rule's
    pre-scaled weights, so integrands may be evaluated in their natural
    (exponentially small) form, and zeros and signs pass through unchanged.
    The rule is exact, up to rounding, when the smooth remainder is a
    polynomial of degree <= 2m - 1 (31 for the default 16 nodes).  scale
    must be finite and positive.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    x, weights = rule
    values = func([xi / scale for xi in x])
    return math.fsum([w * f for w, f in zip(weights, values, strict=True)]) / scale


class _Nodes(NamedTuple):
    """One channel's quadrature nodes r, with the ground-state doublet
    (P, Q), the Sturmian envelope and the Laguerre values on them, each a
    tuple over the nodes, and the rule they are the nodes of."""

    rule: tuple[tuple[float, ...], tuple[float, ...]]  # laguerre_rule(power, n_max + 1)
    scale: float
    p: tuple[float, ...]
    q: tuple[float, ...]
    envelope: tuple[float, ...]
    laguerres: list[tuple[float, ...]]  # L_{-1}, ..., L_{n_max} of order 2 gamma_kappa


def _radial_pq(c: _Channel, x) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The planar ground-state pair (P, Q) at the points x = 4Zr, in plain
    floats: the shape (4Zr)**g exp(-2Zr) with the norm
    sqrt(2Z / Gamma(2g + 1)), times sqrt(1 + 2g) and sqrt(1 - 2g)."""
    log_norm = 0.5 * (math.log(2.0 * c.z) - c.log_gamma_2g1)
    shape = [math.exp(c.g * math.log(xi) - 0.5 * xi + log_norm) for xi in x]
    root_plus, root_minus = math.sqrt(1.0 + 2.0 * c.g), math.sqrt(1.0 - 2.0 * c.g)
    return tuple(root_plus * s for s in shape), tuple(root_minus * s for s in shape)


def _nodes(c: _Channel, n_max: int) -> _Nodes:
    # Every index of a channel has the weight power gamma_{1/2} +
    # gamma_kappa + 1, so it is integrated on the same nodes r = x / 4Z, and
    # its remainder has degree |n_r| <= n_max: n_max + 1 nodes are exact.
    # Everything is evaluated at 4Z r, for the r gauss_laguerre_integral passes.
    rule = laguerre_rule(c.g + c.gk + 1.0, n_max + 1)
    scale = 4.0 * c.z
    x = [scale * (xi / scale) for xi in rule[0]]
    return _Nodes(rule, scale, *_radial_pq(c, x), *_sturmian_parts(c, x, n_max))


def _quadrature_integrals(c: _Channel, n: int, nodes: _Nodes) -> list[RadialIntegralPair]:
    """Quadrature integrals of n_r = n and, for n > 0, of n_r = -n; the two
    integrals of an index are evaluated on one set of doublets."""
    out = []
    for nn, (s, t) in zip(_caps(n, c.gk, c.kappa), _doublets(c, n, nodes.envelope, nodes.laguerres)):
        qt = [qi * ti for qi, ti in zip(nodes.q, t)]

        def integral(weight: float) -> float:
            # r (weight P S + Q T); gauss_laguerre_integral passes the nodes
            # r that P, S and T were evaluated at.
            return gauss_laguerre_integral(
                lambda r: [
                    ri * (weight * pi * si + qti) for ri, pi, si, qti in zip(r, nodes.p, s, qt)
                ],
                nodes.rule,
                nodes.scale,
            )

        out.append(RadialIntegralPair(integral(1.0), integral(_mu(n, c.gk, nn, c.g))))
    return out


def channel_first_order_integrals(
    ch: ChannelIndex, spec: AtomSpec, n_max: int
) -> list[tuple[RadialIntegralPair, RadialIntegralPair]]:
    """(closed form, quadrature) first-order integrals of one dipole channel
    for n_r = -n_max, ..., n_max, in that order.

    Each pair holds the integrals of r (P S + Q T) and of r (mu P S + Q T)
    in atomic units.  The quadrature weight carries the exact power
    (4Zr)**(gamma_{1/2} + gamma_kappa + 1), so the remaining factor is a
    polynomial of degree |n_r| and the rule is exact up to rounding.  The
    channel's constants, nodes and ground-state doublet are computed once,
    and each |n_r| once for both signs.  The rule has n_max + 1 nodes, so it
    is exact for every n_max.
    """
    c = _channel(ch, spec)
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max!r}")
    nodes = _nodes(c, n_max)
    by_index = {}
    for n in range(n_max + 1):
        exact = _index_integrals(c, n)
        quad = _quadrature_integrals(c, n, nodes)
        for n_r, (plain, mu_weighted, _), pair in zip((n, -n), exact, quad):
            by_index[n_r] = (RadialIntegralPair(plain, mu_weighted), pair)
    return [by_index[n_r] for n_r in range(-n_max, n_max + 1)]


def _series_term(plain: float, mu_weighted: float, mu_val: float) -> float:
    if plain == 0.0 and mu_weighted == 0.0:
        return 0.0
    return plain * mu_weighted / (mu_val - 1.0)


def r_channel_series(
    ch: ChannelIndex, spec: AtomSpec, tol: float = SERIES_TOL_FLOOR
) -> tuple[float, SeriesDiagnostics]:
    """Dipole channel integral R_kappa summed over the Sturmian expansion.

    Terms for n_r and -n_r are paired; the sum stops once the paired-term
    magnitude has stayed below tol * |sum| for several consecutive pairs and
    a power-law tail estimate also falls below it.  The stop test reads a
    plain running sum, which only has to give the sum's size; the returned
    value is the correctly rounded math.fsum of every term.

    Returns the channel integral in atomic units together with diagnostics.
    """
    c = _channel(ch, spec)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    tol = max(tol, SERIES_TOL_FLOOR)

    terms = [_series_term(*_index_integrals(c, 0)[0])]
    running = terms[0]
    prev_pair = math.inf
    streak = 0
    for n in range(1, _MAX_PAIRS + 1):
        plus, minus = _index_integrals(c, n)
        pair = _series_term(*plus) + _series_term(*minus)
        terms.append(pair)
        running += pair
        scale = max(abs(running), _TINY)
        streak = streak + 1 if abs(pair) <= tol * scale else 0
        if streak >= _STOP_STREAK and n >= 10:
            tail = _pair_tail(abs(prev_pair), abs(pair), n)
            if tail <= tol * scale:
                total = math.fsum(terms)
                return total, SeriesDiagnostics(2 * n + 1, tail / max(abs(total), _TINY))
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


def polarizability_sturmian(spec: AtomSpec, tol: float = SERIES_TOL_FLOOR) -> PolarizabilityResult:
    """Planar polarizability from the Sturmian channel series, the oracle
    route: alpha_1 = (R_{1/2} + R_{-3/2}) / 2."""
    if spec.dimension != "planar":
        raise ValueError("polarizability_sturmian needs a planar spec")
    r_half, diag_half = r_channel_series(_KAPPA_HALF, spec, tol)
    r_m32, diag_m32 = r_channel_series(_KAPPA_M32, spec, tol)
    value = 0.5 * (r_half + r_m32)
    terms = diag_half.terms_used + diag_m32.terms_used
    diag = SeriesDiagnostics(terms, max(diag_half.tail_estimate, diag_m32.tail_estimate))
    return PolarizabilityResult(value, value * spec.Z**4, "sturmian_series", diag)


def gamma_ratio(numerators, denominators) -> float:
    """Product of Gamma over ``numerators`` divided by Gamma over
    ``denominators``, formed through summed log-gamma differences so that
    no intermediate Gamma value is materialized.
    """
    logs = [log_gamma(x) for x in numerators]
    logs.extend(-log_gamma(x) for x in denominators)
    return math.exp(math.fsum(logs))


def hyp3f2_contiguous_rhs(p: Hyp3F2Params, tol: float = TOL_FLOOR) -> float:
    """Evaluate the contiguous-shift identity for 3F2 at unit argument.

    Requires b1 = a3 + 1 exactly and b2 - a1 - a2 > -1.  The contiguous
    denominator is traded for a closed gamma-ratio term plus a 3F2 whose
    third numerator parameter is raised by one:

        3F2(a1,a2,a3; a3+1,b; 1) =
            G(b) G(b-a1-a2+1) / ((b-a3-1) G(b-a1) G(b-a2))
            - (a1-a3-1)(a2-a3-1) / ((a3+1)(b-a3-1))
              * 3F2(a1,a2,a3+1; a3+2,b; 1)

    Used both as an alternative evaluation path and as a consistency check
    against :func:`hyp3f2_unit`.
    """
    if p.b1 != p.a3 + 1.0:
        raise ValueError(
            f"contiguous form requires b1 = a3 + 1 exactly, got b1={p.b1}, a3={p.a3}"
        )
    b = p.b2
    if not b - p.a1 - p.a2 > -1.0:
        raise ValueError(
            f"contiguous form requires b2 - a1 - a2 > -1, got {b - p.a1 - p.a2}"
        )
    pole = b - p.a3 - 1.0
    if pole == 0.0:
        raise ValueError(
            "contiguous form is singular for b2 = a3 + 1 (removable only as a limit)"
        )
    closed = gamma_ratio([b, b - p.a1 - p.a2 + 1.0], [b - p.a1, b - p.a2]) / pole
    shifted = Hyp3F2Params(p.a1, p.a2, p.a3 + 1.0, p.a3 + 2.0, b)
    f_shift, _ = hyp3f2_unit(shifted, tol)
    coeff = (p.a1 - p.a3 - 1.0) * (p.a2 - p.a3 - 1.0) / ((p.a3 + 1.0) * pole)
    return closed - coeff * f_shift
