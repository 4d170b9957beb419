"""Closed-form ground-state dipole polarizabilities of relativistic
hydrogen-like ions, planar and spatial, with the planar dipole channel
integrals, the second-order field shift and the weak-coupling limits.

Loaded by ``import diracpol``; it imports ``atom`` and ``specfun``, never
the oracle ``sturmian`` or the table layer.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .atom import _KAPPA_HALF, AtomSpec, ChannelIndex, _check_dipole, gamma_half, gamma_kappa
from .specfun import Hyp3F2Params, SeriesDiagnostics, hyp3f2_unit, log_gamma

TYPE_CHECKING = False
if TYPE_CHECKING:  # as in atom
    from typing import Literal

    from .atom import Dimension
    Method = Literal["closed_form", "sturmian_series"]

# Nonrelativistic scaled limits Z**4 * alpha_1: 21/128 (planar), 9/2 (spatial).
NONREL_SCALED_PLANAR = 21.0 / 128.0
NONREL_SCALED_SPATIAL = 4.5

# The other dipole channel and the spatial channels, built and validated once.
_KAPPA_M32 = ChannelIndex(-1.5)
_KAPPA_1 = ChannelIndex(1)
_KAPPA_2 = ChannelIndex(2)


class PolarizabilityResult(
    namedtuple("PolarizabilityResult", "value_a0_cubed scaled_Z4 method diagnostics", defaults=(None,))
):
    """Ground-state dipole polarizability with its Z**4-scaled companion;
    ``method`` is a ``Method`` and ``diagnostics`` a ``SeriesDiagnostics``
    of the underlying series, or None."""

    __slots__ = ()


def _over_z4(value: float, spec: AtomSpec, factor: float = 1.0) -> float:
    """value / Z**4 * factor; a ValueError when the charge is too small to
    resolve (Z**4 is not a normal double, or the result overflows) or too
    large (Z**4 overflows, or the result is not a normal double)."""
    try:
        z4 = spec.Z**4
    except OverflowError:
        z4 = math.inf
    if z4 >= sys.float_info.min:
        quotient = value / z4 * factor
        if sys.float_info.min <= abs(quotient) < math.inf:
            return quotient
        if math.isfinite(quotient):
            # (abs(value) / min) ** 0.25 overflows for the spatial value.
            largest = abs(value * factor) ** 0.25 / sys.float_info.min**0.25
            largest = min(largest, sys.float_info.max**0.25)
            raise ValueError(
                f"Z={spec.Z!r} is above the largest allowed charge, about {largest:.4g}: "
                "the division by Z**4 leaves the normal double range"
            )
    smallest = max(sys.float_info.min, abs(value * factor) / sys.float_info.max) ** 0.25
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
    # Gamma(gk+g+2)**2 takes one log-gamma, doubled: doubling a double is exact.
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
        # The bracket is checked with the prefactor: at alpha_inv = inf it is
        # 0.875, which can take a normal prefactor / Z**4 below the normal doubles.
        return _over_z4((g + 1.0) * (2.0 * g + 1.0) * (2.0 * g + 3.0) / 64.0, spec, bracket)
    return _over_z4(g * (g + 1.0) * (2.0 * g + 1.0) * (4.0 * g + 5.0) / 64.0, spec)


def second_order_energy(spec: AtomSpec, field_strength: float) -> float:
    """Second-order field shift -(1/4) F**2 (R_{1/2} + R_{-3/2}) of the
    planar ground state, in hartree, for a field in atomic units.  A field
    of zero gives zero; a non-finite field, and a shift that is not a normal
    double, raise ValueError."""
    r_sum = r_channel_closed(_KAPPA_HALF, spec) + r_channel_closed(_KAPPA_M32, spec)
    try:
        shift = -0.25 * field_strength**2 * r_sum
    except OverflowError:
        shift = -math.inf
    if field_strength == 0.0 or sys.float_info.min <= -shift < math.inf:
        return shift
    raise ValueError(
        f"field_strength={field_strength!r} at Z={spec.Z!r} gives the second-order shift "
        f"{shift!r}, which is not a normal double"
    )


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
    # tuple.__new__ skips the namedtuple's Python-level __new__.
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


def nonrel_limit(dimension: Dimension) -> float:
    """Nonrelativistic scaled polarizability Z**4 * alpha_1: 21/128 for
    planar systems, 9/2 for spatial ones."""
    if dimension == "planar":
        return NONREL_SCALED_PLANAR
    if dimension == "spatial":
        return NONREL_SCALED_SPATIAL
    raise ValueError(f"unknown dimension {dimension!r}")


def quasirel_coefficient(dimension: Dimension) -> float:
    """Coefficient c in alpha_1 / alpha_1_NR = 1 + c (alpha Z)**2 + O((alpha Z)**4),
    -7/2 (planar) or -28/27 (spatial); c does not depend on alpha.

    c = d log(Z**4 alpha_1) / dx at x = (alpha Z)**2 = 0, one ``math.fsum`` of
    the slopes of the closed form's log factors at gamma = |kappa|, where
    d gamma / dx = -1 / (2 |kappa|); added in order, they miss -7/2 by 4 ulp.
    The bracket 1 - coeff * 3F2 weighs the slope of log coeff by
    -coeff / (1 - coeff), coeff being 1/15 or 2/29 at x = 0; its 3F2 is
    1 + O(x**2).
    """
    nonrel_limit(dimension)  # rejects an unknown dimension
    planar = dimension == "planar"
    g, gk = (0.5, 1.5) if planar else (1.0, 2.0)
    dg, dgk = -0.5 / g, -0.5 / gk

    def slope(a: float, b: float) -> float:
        """d log(a g + b) / dx."""
        return a * dg / (a * g + b)

    if planar:  # prefactor (g+1)**2 (2g+1) (4g+3); num 4 (g-1)**2, den (g+1) (4g+3)
        lower, weight = 3.0, 1.0 / 14.0
        pre = [2.0 * slope(1.0, 1.0), slope(2.0, 1.0), slope(4.0, 3.0)]
        num, den = 2.0 * slope(1.0, -1.0), [slope(1.0, 1.0), slope(4.0, 3.0)]
    else:  # prefactor (g+1) (2g+1) q, q = 4g**2 + 13g + 12; num 2 (g-2)**2, den (g+1) q
        lower, weight = 2.0, 2.0 / 27.0
        dq = (8.0 * g + 13.0) * dg / (4.0 * g * g + 13.0 * g + 12.0)
        pre = [slope(1.0, 1.0), slope(2.0, 1.0), dq]
        num, den = 2.0 * slope(1.0, -2.0), [slope(1.0, 1.0), dq]
    # log coeff = log num - log den - log(d + 1) + 2 log Gamma(gk + g + 2)
    # - log Gamma(2g + lower) - log Gamma(2gk + 1), d = gk - g.  Each Gamma
    # argument is an integer n at x = 0, with digamma H(n - 1) - Euler; the
    # Euler terms cancel, the argument slopes summing to zero.
    coeff = [num, *(-s for s in den), -(dgk - dg) / (gk - g + 1.0)]
    gammas = [
        (gk + g + 2.0, 2.0 * (dg + dgk)), (2.0 * g + lower, -2.0 * dg), (2.0 * gk + 1.0, -2.0 * dgk),
    ]
    coeff += [rate / j for n, rate in gammas for j in range(1, int(n))]
    return math.fsum([*pre, *(-weight * s for s in coeff)])
