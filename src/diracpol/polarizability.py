"""Closed-form static dipole polarizabilities of relativistic hydrogen-like
ions in their ground state, in two (planar) and three (spatial) dimensions.

The planar result is assembled from two dipole channel integrals: the
kappa = 1/2 channel reduces to an elementary polynomial in gamma_{1/2},
while kappa = -3/2 carries an irreducible 3F2 at unit argument.  The planar
and spatial polarizabilities and the kappa = -3/2 channel share one kernel,
``_reduced_bracket``: the bracket 1 - coeff * 3F2(d-1, d-1, d+1; d+2,
2 gamma' + 1; 1) with its Gamma**2 ratio, where only the exponent pair
(gamma, gamma') and the polynomial factors differ.  Scaled values
Z**4 * alpha_1 are computed first; the absolute polarizability is recovered
by a single division, which refuses a charge so small (below about 1.2e-77)
that Z**4 leaves the normal doubles.
"""

from __future__ import annotations

import math
import sys
from typing import Literal, NamedTuple, Sequence

from .atom import (
    ALPHA_INV_CODATA2014,
    AtomSpec,
    ChannelIndex,
    Dimension,
    _check_dipole,
    gamma_half,
    gamma_kappa,
)
from .specfun import Hyp3F2Params, SeriesDiagnostics, gamma_ratio, hyp3f2_unit

Method = Literal["closed_form", "sturmian_series"]

# Nonrelativistic scaled limits Z**4 * alpha_1: 21/128 (planar), 9/2 (spatial).
NONREL_SCALED_PLANAR = 21.0 / 128.0
NONREL_SCALED_SPATIAL = 4.5

# quasirel_coefficient rejects a sample whose |alpha_1 / alpha_1_NR - 1| is
# smaller: too few of its digits are significant (it is exactly 0 at
# alpha_inv = 1e9; at 1e3 it is 2.2e-7 and the coefficient is right to 1e-8).
QUASIREL_SHIFT_FLOOR = 1e-8


class ExtrapolationError(ArithmeticError):
    """A sampled shift is too small to extrapolate, or the residuals grow."""


class PolarizabilityResult(NamedTuple):
    """Ground-state dipole polarizability with its Z**4-scaled companion;
    ``diagnostics`` reports the underlying series behaviour."""

    value_a0_cubed: float
    scaled_Z4: float
    method: Method
    diagnostics: SeriesDiagnostics | None = None


def _over_z4(value: float, spec: AtomSpec) -> float:
    """value / Z**4; a ValueError when Z**4 is not a normal double or the
    quotient overflows, i.e. when the charge is too small to resolve."""
    z4 = spec.Z**4
    if z4 >= sys.float_info.min:
        quotient = value / z4
        if math.isfinite(quotient):
            return quotient
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
    coeff = (
        num
        * gamma_ratio([gk + g + 2.0] * 2, [2.0 * g + lower, 2.0 * gk + 1.0])
        / (den * (d + 1.0))
    )
    return 1.0 - coeff * f_val, diag


def r_channel_closed(ch: ChannelIndex, spec: AtomSpec) -> float:
    """Closed-form dipole channel integral R_kappa (atomic units).

    For kappa = 1/2 the series truncates and the elementary form
    gamma(gamma+1)(2*gamma+1)(4*gamma+5) / (64 Z**4) is used; kappa = -3/2
    takes the reduced 3F2 bracket.
    """
    kappa = ch.kappa
    _check_dipole(kappa)
    g = gamma_half(spec)
    if kappa == 0.5:
        return _over_z4(g * (g + 1.0) * (2.0 * g + 1.0) * (4.0 * g + 5.0) / 64.0, spec)
    gk = gamma_kappa(spec, ch)
    bracket, _ = _reduced_bracket(g, gk, 4.0, ((2.0 * kappa + 1.0) * g + 2.0) ** 2, 1.0)
    prefactor = _over_z4(
        -(g + 1.0) * (2.0 * g + 1.0) * (2.0 * g + 3.0) / (32.0 * (2.0 * kappa + 1.0)), spec
    )
    return prefactor * bracket


def second_order_energy(spec: AtomSpec, field_strength: float) -> float:
    """Second-order field shift -(1/4) F**2 (R_{1/2} + R_{-3/2}) of the
    planar ground state, in hartree, for a field in atomic units."""
    r_sum = r_channel_closed(ChannelIndex(0.5), spec) + r_channel_closed(ChannelIndex(-1.5), spec)
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
    g = gamma_half(spec)
    gk = gamma_kappa(spec, ChannelIndex(-1.5))
    bracket, diag = _reduced_bracket(g, gk, 3.0, 4.0 * (g - 1.0) ** 2, (g + 1.0) * (4.0 * g + 3.0))
    scaled = ((g + 1.0) ** 2 * (2.0 * g + 1.0) * (4.0 * g + 3.0) / 128.0) * bracket
    return PolarizabilityResult(_over_z4(scaled, spec), scaled, "closed_form", diag)


def polarizability_spatial(spec: AtomSpec) -> PolarizabilityResult:
    """Ground-state dipole polarizability of a spatial (three-dimensional)
    Dirac one-electron ion, with gamma_1 and gamma_2 the |kappa| = 1 and
    |kappa| = 2 channel exponents."""
    if spec.dimension != "spatial":
        raise ValueError("polarizability_spatial needs a spatial spec")
    g1 = gamma_kappa(spec, ChannelIndex(1))
    g2 = gamma_kappa(spec, ChannelIndex(2))
    quartic = 4.0 * g1**2 + 13.0 * g1 + 12.0
    bracket, diag = _reduced_bracket(g1, g2, 2.0, 2.0 * (g1 - 2.0) ** 2, (g1 + 1.0) * quartic)
    scaled = ((g1 + 1.0) * (2.0 * g1 + 1.0) * quartic / 36.0) * bracket
    return PolarizabilityResult(_over_z4(scaled, spec), scaled, "closed_form", diag)


def polarizability_sturmian(spec: AtomSpec, tol: float = 1e-12) -> PolarizabilityResult:
    """Planar polarizability from the Sturmian channel series, the oracle
    route: alpha_1 = (R_{1/2} + R_{-3/2}) / 2."""
    # The oracle module is loaded on first use: the closed-form commands
    # never need it.
    from .sturmian import r_channel_series

    if spec.dimension != "planar":
        raise ValueError("polarizability_sturmian needs a planar spec")
    r_half, diag_half = r_channel_series(ChannelIndex(0.5), spec, tol)
    r_m32, diag_m32 = r_channel_series(ChannelIndex(-1.5), spec, tol)
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


def _neville_at_zero(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    """Diagonal of the Neville tableau extrapolating (xs, ys) to x = 0.

    Returns the sequence of successively higher-order estimates; the last
    entry is the full extrapolation.
    """
    xs = list(xs)
    tableau = list(ys)
    diagonal = [tableau[0]]
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            x_lo, x_hi = xs[i], xs[i + level]
            tableau[i] = (x_lo * tableau[i + 1] - x_hi * tableau[i]) / (x_lo - x_hi)
        diagonal.append(tableau[0])
    return diagonal


def quasirel_coefficient(
    dimension: Dimension,
    z_values: Sequence[float] = (4.0, 2.0, 1.0, 0.5, 0.25),
    alpha_inv: float = ALPHA_INV_CODATA2014,
) -> float:
    """Leading relativistic correction coefficient c in
    alpha_1 / alpha_1_NR = 1 + c (alpha Z)**2 + O((alpha Z)**4),
    extracted numerically by Richardson extrapolation over a decreasing
    charge sequence.

    Raises ExtrapolationError when a sampled |alpha_1 / alpha_1_NR - 1| is
    below QUASIREL_SHIFT_FLOOR, or when the extrapolation residuals do not
    shrink, i.e. when the sampled charges are outside the quadratic regime.
    """
    limit = nonrel_limit(dimension)
    compute = polarizability_planar if dimension == "planar" else polarizability_spatial
    xs: list[float] = []
    ys: list[float] = []
    for z in z_values:
        spec = AtomSpec(z, dimension, alpha_inv)
        shift = compute(spec).scaled_Z4 / limit - 1.0
        if not abs(shift) >= QUASIREL_SHIFT_FLOOR:
            raise ExtrapolationError(
                f"{dimension} relative shift {abs(shift):.3g} at Z={z} is below "
                f"{QUASIREL_SHIFT_FLOOR:g}: the coupling is too weak to resolve it"
            )
        x = (z / alpha_inv) ** 2
        xs.append(x)
        ys.append(shift / x)
    diagonal = _neville_at_zero(xs, ys)
    corrections = [abs(b - a) for a, b in zip(diagonal, diagonal[1:])]
    if len(corrections) >= 2 and corrections[-1] > corrections[0]:
        raise ExtrapolationError(
            "extrapolation residuals are not shrinking; the sampled charges "
            "do not show the expected quadratic scaling"
        )
    return diagonal[-1]
