"""Hydrogen-like ions and their Dirac channels: ``AtomSpec``,
``ChannelIndex``, the critical charge, the channel exponents and the planar
ground-state energy, in Hartree atomic units (hbar = m = e = 4*pi*eps0 = 1,
lengths in Bohr radii).

Loaded by ``import diracpol``; of the package it imports only ``specfun``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .specfun import _validated_make

# For type checkers only: importing typing would cost every command.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Literal
    Dimension = Literal["planar", "spatial"]

# Inverse fine-structure constant (CODATA 2014) and its one-standard-deviation
# uncertainty; the reference tables are pinned to this constant set.
ALPHA_INV_CODATA2014 = 137.035999139
ALPHA_INV_SIGMA_CODATA2014 = 3.1e-8


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


class AtomSpec(namedtuple("AtomSpec", "Z dimension alpha_inv")):
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
        z_crit = alpha_inv / 2.0 if dimension == "planar" else alpha_inv  # critical_charge
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


class ChannelIndex(namedtuple("ChannelIndex", "kappa")):
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


def _check_dipole(kappa: float) -> None:
    if kappa not in (0.5, -1.5):
        raise ValueError(f"dipole channels are kappa = 1/2 and -3/2, got {kappa}")


def gamma_kappa(spec: AtomSpec, ch: ChannelIndex) -> float:
    """Relativistic channel exponent sqrt(kappa**2 - (alpha*Z)**2).

    Evaluated as sqrt((|kappa| - alpha*Z)(|kappa| + alpha*Z)) to avoid
    cancellation near the critical charge.
    """
    kappa = ch.kappa
    # An integer kappa on a planar spec, or a half-odd one on a spatial spec.
    if (spec.dimension == "planar") == (kappa == round(kappa)):
        if spec.dimension == "planar":
            raise ValueError(f"planar channels need half-odd-integer kappa, got {kappa}")
        raise ValueError(f"spatial channels need integer kappa, got {kappa}")
    ak = abs(kappa)
    az = spec.Z / spec.alpha_inv  # spec.alpha_z
    if not ak > az:
        raise SupercriticalError(
            f"channel kappa={kappa} is supercritical: needs |kappa| > alpha*Z = {az}"
        )
    return math.sqrt((ak - az) * (ak + az))


# The ground-state channel, built and validated once.
_KAPPA_HALF = ChannelIndex(0.5)


def gamma_half(spec: AtomSpec) -> float:
    """Ground-state exponent of a planar spec (the kappa = +-1/2 channel)."""
    return gamma_kappa(spec, _KAPPA_HALF)


def ground_energy(spec: AtomSpec) -> float:
    """Planar ground-state energy in units of m*c**2: twice gamma_{1/2}."""
    if spec.dimension != "planar":
        raise ValueError("ground_energy is defined for planar specs")
    return 2.0 * gamma_half(spec)
