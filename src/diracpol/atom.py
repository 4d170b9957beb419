"""Relativistic atomic-structure primitives for hydrogen-like ions.

Everything is expressed in Hartree atomic units (hbar = m = e =
4*pi*eps0 = 1, lengths in Bohr radii), which removes all dimensional
prefactors from the radial functions.  Planar (two-dimensional) systems use
half-odd-integer channel indices kappa, spatial (three-dimensional) ones use
nonzero integers.
"""

from __future__ import annotations

import math
from typing import Literal, NamedTuple

import numpy as np

from .specfun import _validated_make, log_gamma

# Inverse fine-structure constant (CODATA 2014) and its one-standard-deviation
# uncertainty; the reference tables are pinned to this constant set.
ALPHA_INV_CODATA2014 = 137.035999139
ALPHA_INV_SIGMA_CODATA2014 = 3.1e-8

Dimension = Literal["planar", "spatial"]


class SupercriticalError(ValueError):
    """Nuclear charge at or beyond the point-nucleus critical value."""


def critical_charge(dimension: Dimension, alpha_inv: float = ALPHA_INV_CODATA2014) -> float:
    """Largest charge with a real ground-state exponent: alpha_inv/2 for
    planar atoms, alpha_inv for spatial ones."""
    if not alpha_inv > 0.0:
        raise ValueError(f"alpha_inv must be positive, got {alpha_inv!r}")
    if dimension == "planar":
        return alpha_inv / 2.0
    if dimension == "spatial":
        return alpha_inv
    raise ValueError(f"unknown dimension {dimension!r}")


class _AtomSpecFields(NamedTuple):
    Z: float
    dimension: Dimension
    alpha_inv: float


class AtomSpec(_AtomSpecFields):
    """One hydrogen-like ion: nuclear charge, dimensionality, constant set.

    Z is a positive real (non-integer values support limit studies); it must
    stay below the critical charge of the chosen dimension.  Construction
    fails eagerly on supercritical input so downstream formulas never see
    complex-valued exponents.
    """

    __slots__ = ()

    def __new__(
        cls, Z: float, dimension: Dimension = "planar", alpha_inv: float = ALPHA_INV_CODATA2014
    ) -> AtomSpec:
        if dimension not in ("planar", "spatial"):
            raise ValueError(f"unknown dimension {dimension!r}")
        if not alpha_inv > 0.0:
            raise ValueError(f"alpha_inv must be positive, got {alpha_inv!r}")
        if not Z > 0.0:
            raise ValueError(f"Z must be positive, got {Z!r}")
        z_crit = critical_charge(dimension, alpha_inv)
        if not Z < z_crit:
            limit = "alpha_inv/2" if dimension == "planar" else "alpha_inv"
            raise SupercriticalError(
                f"Z={Z} is supercritical: a {dimension} point-nucleus "
                f"atom requires Z < {limit} = {z_crit}"
            )
        return tuple.__new__(cls, (Z, dimension, alpha_inv))

    _make = classmethod(_validated_make)

    @property
    def alpha_z(self) -> float:
        """Coupling strength alpha*Z."""
        return self.Z / self.alpha_inv


class _ChannelIndexFields(NamedTuple):
    kappa: float


class ChannelIndex(_ChannelIndexFields):
    """Relativistic angular quantum number kappa selecting a radial channel.

    Planar channels carry half-odd-integers (+-1/2, +-3/2, ...), spatial
    channels nonzero integers; both are stored exactly as doubles.
    """

    __slots__ = ()

    def __new__(cls, kappa: float) -> ChannelIndex:
        # round() of NaN or inf raises its own error; reject them first.
        if not math.isfinite(kappa) or 2.0 * kappa != round(2.0 * kappa) or kappa == 0.0:
            raise ValueError(
                f"kappa must be a nonzero integer or half-odd-integer, got {kappa!r}"
            )
        return tuple.__new__(cls, (kappa,))

    _make = classmethod(_validated_make)

    @property
    def is_half_integer(self) -> bool:
        return self.kappa != round(self.kappa)


def _check_channel(spec: AtomSpec, ch: ChannelIndex) -> None:
    if spec.dimension == "planar" and not ch.is_half_integer:
        raise ValueError(f"planar channels need half-odd-integer kappa, got {ch.kappa}")
    if spec.dimension == "spatial" and ch.is_half_integer:
        raise ValueError(f"spatial channels need integer kappa, got {ch.kappa}")


def _check_dipole(kappa: float) -> None:
    if kappa not in (0.5, -1.5):
        raise ValueError(f"dipole channels are kappa = 1/2 and -3/2, got {kappa}")


def gamma_kappa(spec: AtomSpec, ch: ChannelIndex) -> float:
    """Relativistic channel exponent sqrt(kappa**2 - (alpha*Z)**2).

    Evaluated as sqrt((|kappa| - alpha*Z)(|kappa| + alpha*Z)) to avoid
    cancellation near the critical charge.
    """
    _check_channel(spec, ch)
    ak = abs(ch.kappa)
    az = spec.alpha_z
    if not ak > az:
        raise SupercriticalError(
            f"channel kappa={ch.kappa} is supercritical: needs |kappa| > alpha*Z = {az}"
        )
    return math.sqrt((ak - az) * (ak + az))


def gamma_half(spec: AtomSpec) -> float:
    """Ground-state exponent of a planar spec (the kappa = +-1/2 channel)."""
    return gamma_kappa(spec, ChannelIndex(0.5))


def ground_energy(spec: AtomSpec) -> float:
    """Planar ground-state energy in units of m*c**2: twice gamma_{1/2}."""
    if spec.dimension != "planar":
        raise ValueError("ground_energy is defined for planar specs")
    return 2.0 * gamma_half(spec)


def radial_PQ(spec: AtomSpec, r):
    """Ground-state radial pair (P(r), Q(r)) of a planar spec in atomic units.

    Both components share the shape (4Zr)**gamma * exp(-2Zr); the small
    component Q carries the prefactor sqrt(1 - 2*gamma) with the positive
    sign convention, so Q/P is a positive constant.
    """
    if spec.dimension != "planar":
        raise ValueError("radial_PQ describes planar ground states")
    rs = np.asarray(r, dtype=float)
    gam = gamma_half(spec)
    z = spec.Z
    # Norm factors via log-gamma: sqrt(2Z(1 +- 2*gamma) / Gamma(2*gamma + 1)).
    lognorm = 0.5 * (math.log(2.0 * z) - log_gamma(2.0 * gam + 1.0))
    shape = np.exp(gam * np.log(4.0 * z * rs) - 2.0 * z * rs + lognorm)
    p = math.sqrt(1.0 + 2.0 * gam) * shape
    q = math.sqrt(1.0 - 2.0 * gam) * shape
    return p, q


def axial_spinor(ch: ChannelIndex, m: float, phi):
    """Two-component axial spinor of the planar problem.

    For m = -kappa only the upper component survives, carrying the phase
    exp(i(m - 1/2) phi) / sqrt(2 pi); for m = +kappa only the lower one,
    with exp(i(m + 1/2) phi) / sqrt(2 pi).

    Returns a complex array of shape (2,) + shape(phi).
    """
    if 2.0 * m != round(2.0 * m) or abs(m) != abs(ch.kappa):
        raise ValueError(f"m must equal +-kappa, got m={m} for kappa={ch.kappa}")
    phis = np.asarray(phi, dtype=float)
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    upper = np.zeros(phis.shape, dtype=complex)
    lower = np.zeros(phis.shape, dtype=complex)
    if m == -ch.kappa:
        upper = norm * np.exp(1j * (m - 0.5) * phis)
    if m == ch.kappa:
        lower = norm * np.exp(1j * (m + 0.5) * phis)
    return np.stack([upper, lower])


def cos_matrix_element(ch: ChannelIndex, m: float, ch2: ChannelIndex, m2: float) -> float:
    """Angular matrix element of cos(phi) between axial spinors.

    Nonzero (value 1/2) only when the channels are dipole-coupled
    (kappa = kappa' +- 1) and the orientation labels agree (m/kappa =
    m'/kappa'); otherwise exactly zero.
    """
    for ch_i, m_i in ((ch, m), (ch2, m2)):
        if 2.0 * m_i != round(2.0 * m_i) or abs(m_i) != abs(ch_i.kappa):
            raise ValueError(f"invalid spinor labels kappa={ch_i.kappa}, m={m_i}")
    two_k, two_k2 = round(2.0 * ch.kappa), round(2.0 * ch2.kappa)
    same_orientation = (round(2.0 * m) * two_k2) == (round(2.0 * m2) * two_k)
    coupled = abs(two_k - two_k2) == 2
    return 0.5 if (same_orientation and coupled) else 0.0


def first_order_shift(coefficients=(1.0, 0.0), radial_scale: float = 1.0) -> float:
    """First-order field shift of the planar ground-state doublet.

    The ground-state basis functions combine kappa = -1/2 upper and
    kappa = +1/2 lower spinors, so every angular factor of the perturbation
    matrix vanishes under the dipole selection rule and the shift is zero
    for any admissible mixing coefficients.
    """
    a, b = coefficients
    if not math.isclose(abs(a) ** 2 + abs(b) ** 2, 1.0, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError("mixing coefficients must satisfy |a|^2 + |b|^2 = 1")
    upper = ChannelIndex(-0.5)
    lower = ChannelIndex(0.5)
    matrix = np.empty((2, 2))
    for i, m in enumerate((0.5, -0.5)):
        for j, m2 in enumerate((0.5, -0.5)):
            angular = cos_matrix_element(upper, m, upper, m2) + cos_matrix_element(
                lower, m, lower, m2
            )
            matrix[i, j] = radial_scale * angular
    eigenvalues = np.linalg.eigvalsh(matrix)
    return float(eigenvalues[0])
