"""Closed-form static dipole polarizabilities of relativistic hydrogen-like
ions in their ground state, in two (planar) and three (spatial) dimensions.

The planar result is assembled from two dipole channel integrals: the
kappa = 1/2 channel reduces to an elementary polynomial in gamma_{1/2},
while kappa = -3/2 carries an irreducible 3F2 at unit argument.  The planar
and spatial polarizabilities and the kappa = -3/2 channel share one bracket,
1 - coeff * 3F2(d-1, d-1, d+1; d+2, 2 gamma' + 1; 1) with its Gamma**2
ratio, where only the exponent pair (gamma, gamma') and the polynomial
factors differ: ``_reduced_bracket`` evaluates it for all three.  The
planar polarizability and the kappa = -3/2 channel have the same pair, so
the same 3F2; the crosscheck computes alpha_1 right after the channel, and
``hyp3f2_unit`` hands the channel's sum back from its one-entry memo.
Scaled values Z**4 * alpha_1 are computed first; the absolute
polarizability is recovered by a single division, which refuses a charge
so small (below about 1.2e-77) that Z**4 leaves the normal doubles, and,
where a large or infinite alpha_inv leaves it subcritical, one so large
(above about 5.2e76 planar, 1.16e77 spatial) that Z**4 overflows or the
quotient is no longer a normal double.
"""

from __future__ import annotations

import math
import sys
from typing import Literal, NamedTuple

from .atom import (
    _KAPPA_HALF, AtomSpec, ChannelIndex, Dimension, _check_dipole, gamma_half, gamma_kappa,
)
from .specfun import (
    Hyp3F2Params, SeriesDiagnostics, hyp3f2_minus_one, hyp3f2_unit, log_gamma, log_gamma_drop,
)

Method = Literal["closed_form", "sturmian_series"]

# Nonrelativistic scaled limits Z**4 * alpha_1: 21/128 (planar), 9/2 (spatial).
NONREL_SCALED_PLANAR = 21.0 / 128.0
NONREL_SCALED_SPATIAL = 4.5

# The other dipole channel and the spatial channels, built and validated once.
_KAPPA_M32 = ChannelIndex(-1.5)
_KAPPA_1 = ChannelIndex(1)
_KAPPA_2 = ChannelIndex(2)


class PolarizabilityResult(NamedTuple):
    """Ground-state dipole polarizability with its Z**4-scaled companion;
    ``diagnostics`` reports the underlying series behaviour."""

    value_a0_cubed: float
    scaled_Z4: float
    method: Method
    diagnostics: SeriesDiagnostics | None = None


def _over_z4(value: float, spec: AtomSpec) -> float:
    """value / Z**4; a ValueError when the charge is too small to resolve
    (Z**4 is not a normal double, or the quotient overflows) or too large
    (Z**4 overflows, or the quotient is not a normal double)."""
    try:
        z4 = spec.Z**4
    except OverflowError:
        z4 = math.inf
    if z4 >= sys.float_info.min:
        quotient = value / z4
        if sys.float_info.min <= abs(quotient) < math.inf:
            return quotient
        if math.isfinite(quotient):
            # (abs(value) / min) ** 0.25 overflows for the spatial value.
            largest = min(abs(value) ** 0.25 / sys.float_info.min**0.25, sys.float_info.max**0.25)
            raise ValueError(
                f"Z={spec.Z!r} is above the largest allowed charge, about {largest:.4g}: "
                "the division by Z**4 leaves the normal double range"
            )
    smallest = max(sys.float_info.min, abs(value) / sys.float_info.max) ** 0.25
    raise ValueError(
        f"Z={spec.Z!r} is below the smallest allowed charge, about {smallest:.4g}: "
        "Z**4 leaves the normal double range"
    )


def _reduced_bracket(
    g: float, gk: float, lower: float, num: float, den: float
) -> tuple[float, SeriesDiagnostics]:
    """The bracket 1 - coeff * 3F2(d-1, d-1, d+1; d+2, 2gk+1; 1), d = gk - g,
    with coeff = num * Gamma(gk+g+2)**2 / (Gamma(2g+lower) Gamma(2gk+1))
    / (den * (d+1)), and the 3F2 diagnostics."""
    d = gk - g
    f_val, diag = hyp3f2_unit(Hyp3F2Params(d - 1.0, d - 1.0, d + 1.0, d + 2.0, 2.0 * gk + 1.0))
    # sturmian.gamma_ratio([gk+g+2] * 2, [2g+lower, 2gk+1]) bit for bit, with one
    # log-gamma fewer: doubling a double is exact.
    logs = [2.0 * log_gamma(gk + g + 2.0), -log_gamma(2.0 * g + lower), -log_gamma(2.0 * gk + 1.0)]
    coeff = num * math.exp(math.fsum(logs)) / (den * (d + 1.0))
    return 1.0 - coeff * f_val, diag


def r_channel_closed(ch: ChannelIndex, spec: AtomSpec) -> float:
    """Closed-form dipole channel integral R_kappa (atomic units).

    For kappa = 1/2 the series truncates and the elementary form
    gamma(gamma+1)(2*gamma+1)(4*gamma+5) / (64 Z**4) is used; kappa = -3/2
    is -(g+1)(2g+1)(2g+3) / (32 (2 kappa + 1) Z**4) times the reduced 3F2
    bracket of lower 4, num ((2 kappa + 1) g + 2)**2 and den 1.
    """
    _check_dipole(ch.kappa)
    g = gamma_half(spec)
    if ch.kappa == -1.5:
        gk = gamma_kappa(spec, _KAPPA_M32)
        bracket, _ = _reduced_bracket(g, gk, 4.0, (2.0 - 2.0 * g) ** 2, 1.0)
        return _over_z4((g + 1.0) * (2.0 * g + 1.0) * (2.0 * g + 3.0) / 64.0, spec) * bracket
    return _over_z4(g * (g + 1.0) * (2.0 * g + 1.0) * (4.0 * g + 5.0) / 64.0, spec)


def second_order_energy(spec: AtomSpec, field_strength: float) -> float:
    """Second-order field shift -(1/4) F**2 (R_{1/2} + R_{-3/2}) of the
    planar ground state, in hartree, for a field in atomic units."""
    r_sum = r_channel_closed(_KAPPA_HALF, spec) + r_channel_closed(_KAPPA_M32, spec)
    return -0.25 * field_strength**2 * r_sum


def polarizability_planar(spec: AtomSpec) -> PolarizabilityResult:
    """Ground-state dipole polarizability of a planar Dirac one-electron ion.

    Parameters
    ----------
    spec : AtomSpec
        Planar, subcritical ion.

    Returns
    -------
    PolarizabilityResult
        Polarizability in a0**3, accurate to 1e-15, plus its Z**4-scaled
        value and series diagnostics.
    """
    if spec.dimension != "planar":
        raise ValueError("polarizability_planar needs a planar spec")
    g = gamma_kappa(spec, _KAPPA_HALF)  # gamma_half(spec), one call fewer
    gk = gamma_kappa(spec, _KAPPA_M32)
    bracket, diag = _reduced_bracket(g, gk, 3.0, 4.0 * (g - 1.0) ** 2, (g + 1.0) * (4.0 * g + 3.0))
    scaled = ((g + 1.0) ** 2 * (2.0 * g + 1.0) * (4.0 * g + 3.0) / 128.0) * bracket
    # tuple.__new__ skips the NamedTuple's Python-level __new__.
    return tuple.__new__(
        PolarizabilityResult, (_over_z4(scaled, spec), scaled, "closed_form", diag)
    )


def polarizability_spatial(spec: AtomSpec) -> PolarizabilityResult:
    """Ground-state dipole polarizability of a spatial (three-dimensional)
    Dirac one-electron ion, with gamma_1 and gamma_2 the |kappa| = 1 and
    |kappa| = 2 channel exponents."""
    if spec.dimension != "spatial":
        raise ValueError("polarizability_spatial needs a spatial spec")
    g1 = gamma_kappa(spec, _KAPPA_1)
    g2 = gamma_kappa(spec, _KAPPA_2)
    quartic = 4.0 * g1**2 + 13.0 * g1 + 12.0
    bracket, diag = _reduced_bracket(g1, g2, 2.0, 2.0 * (g1 - 2.0) ** 2, (g1 + 1.0) * quartic)
    scaled = ((g1 + 1.0) * (2.0 * g1 + 1.0) * quartic / 36.0) * bracket
    return tuple.__new__(
        PolarizabilityResult, (_over_z4(scaled, spec), scaled, "closed_form", diag)
    )


def polarizability_sturmian(spec: AtomSpec, tol: float = 1e-12) -> PolarizabilityResult:
    """Planar polarizability from the Sturmian channel series, the oracle
    route: alpha_1 = (R_{1/2} + R_{-3/2}) / 2."""
    # The oracle module is loaded on first use: the closed-form commands
    # never need it.
    from .sturmian import r_channel_series

    if spec.dimension != "planar":
        raise ValueError("polarizability_sturmian needs a planar spec")
    r_half, diag_half = r_channel_series(_KAPPA_HALF, spec, tol)
    r_m32, diag_m32 = r_channel_series(_KAPPA_M32, spec, tol)
    value = 0.5 * (r_half + r_m32)
    diag = SeriesDiagnostics(
        diag_half.terms_used + diag_m32.terms_used,
        max(diag_half.tail_estimate, diag_m32.tail_estimate),
    )
    return PolarizabilityResult(value, value * spec.Z**4, "sturmian_series", diag)


def nonrel_limit(dimension: Dimension) -> float:
    """Nonrelativistic scaled polarizability Z**4 * alpha_1: 21/128 for
    planar systems, 9/2 for spatial ones."""
    if dimension == "planar":
        return NONREL_SCALED_PLANAR
    if dimension == "spatial":
        return NONREL_SCALED_SPATIAL
    raise ValueError(f"unknown dimension {dimension!r}")


def _quasirel_shift(dimension: Dimension, x: float) -> float:
    """alpha_1 / alpha_1_NR - 1 as a function of x = (alpha Z)**2 alone, with no
    subtraction of nearly equal numbers.  The exponents g, gk are |kappa| - delta,
    delta = x / (|kappa| + gamma); every factor of the closed form is its x = 0
    value times exp(log1p(...)) or exp(log_gamma_drop(...)), and the 3F2 is 1
    plus its sum from k = 1.  At x = 0, coeff / bracket is 1/14 or 2/27."""
    nonrel_limit(dimension)  # rejects an unknown dimension
    planar = dimension == "planar"
    lo, hi = (0.5, 1.5) if planar else (1.0, 2.0)
    gk = math.sqrt(hi * hi - x)
    dl, dh = x / (lo + math.sqrt(lo * lo - x)), x / (hi + gk)
    dm = dl - dh  # d - 1
    if planar:  # prefactor (g+1)**2 (2g+1) (4g+3); num 4 (g-1)**2, den (g+1) (4g+3)
        log_den = math.log1p(-dl / 1.5) + math.log1p(-0.8 * dl)
        log_pre = log_den + math.log1p(-dl / 1.5) + math.log1p(-dl)
        log_num = 2.0 * math.log1p(2.0 * dl)
    else:  # prefactor (g+1) (2g+1) q, q = 4g**2 + 13g + 12; num 2 (g-2)**2, den (g+1) q
        log_den = math.log1p(-0.5 * dl) + math.log1p(dl * (4.0 * dl - 21.0) / 29.0)
        log_pre = log_den + math.log1p(-dl / 1.5)
        log_num = 2.0 * math.log1p(dl)
    f_minus_1 = hyp3f2_minus_one(Hyp3F2Params(dm, dm, 2.0 + dm, 3.0 + dm, 2.0 * gk + 1.0))
    # coeff = num / den * Gamma(gk+g+2)**2 / (Gamma(2g+lower) Gamma(2gk+1)) / (d+1),
    # where 2g + lower is 4 at x = 0 in both dimensions.
    log_coeff_f = math.fsum([
        log_num - log_den,
        2.0 * log_gamma_drop(lo + hi + 2.0, dl + dh),
        -log_gamma_drop(4.0, 2.0 * dl),
        -log_gamma_drop(2.0 * hi + 1.0, 2.0 * dh),
        -math.log1p(0.5 * dm),
        math.log1p(f_minus_1),
    ])
    ratio = 1.0 / 14.0 if planar else 2.0 / 27.0
    return math.expm1(log_pre + math.log1p(-ratio * math.expm1(log_coeff_f)))


def quasirel_coefficient(dimension: Dimension) -> float:
    """Coefficient c in alpha_1 / alpha_1_NR = 1 + c (alpha Z)**2 + O((alpha Z)**4),
    -7/2 (planar) or -28/27 (spatial): the shift over x at x = 1e-30, where
    the O(x**2) term is 30 orders of magnitude down.  c does not depend on alpha."""
    return _quasirel_shift(dimension, 1e-30) / 1e-30
