"""Reference forms that only check the closed form and the oracle.

- ``radial_PQ``, the planar ground-state radial doublet as numpy arrays; the
  oracle's plain-float ``sturmian._radial_pq`` is held to it;
- ``r_channel_two_term``, a dipole channel integral in its unreduced
  two-3F2 form, against which ``r_channel_closed`` is checked;
- ``axial_spinor``, ``cos_matrix_element`` and ``first_order_shift``, the
  planar angular algebra by which the first-order field shift of the ground
  state vanishes.
"""

from __future__ import annotations

import math

import numpy as np

from diracpol.atom import AtomSpec, ChannelIndex, _check_dipole, gamma_half, gamma_kappa
from diracpol.polarizability import _over_z4
from diracpol.specfun import Hyp3F2Params, hyp3f2_unit, log_gamma
from diracpol.sturmian import gamma_ratio


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


def r_channel_two_term(ch: ChannelIndex, spec: AtomSpec) -> float:
    """Dipole channel integral in its unreduced two-hypergeometric form.

    Both 3F2 functions share the contiguous structure that the shift
    identity removes; this path exists to validate that reduction against
    :func:`r_channel_closed`.
    """
    kappa = ch.kappa
    _check_dipole(kappa)
    g = gamma_half(spec)
    gk = gamma_kappa(spec, ch)
    d = gk - g
    f1, _ = hyp3f2_unit(Hyp3F2Params(d - 1.0, d - 1.0, d + 1.0, d + 2.0, 2.0 * gk + 1.0))
    f2, _ = hyp3f2_unit(Hyp3F2Params(d - 1.0, d - 1.0, d, d + 1.0, 2.0 * gk + 1.0))
    prefactor = _over_z4(
        gamma_ratio([gk + g + 2.0] * 2, [2.0 * g + 1.0, 2.0 * gk + 1.0]) / 64.0, spec
    )
    brace = (
        g * ((2.0 * kappa + 1.0) * g + 4.0) / (d + 1.0) * f1
        - (gk + g) / (2.0 * kappa + 1.0) * f2
    )
    return prefactor * brace


def _valid_projection(ch: ChannelIndex, m: float) -> bool:
    # round() of NaN or inf raises its own error; reject them first.
    return math.isfinite(m) and 2.0 * m == round(2.0 * m) and abs(m) == abs(ch.kappa)


def axial_spinor(ch: ChannelIndex, m: float, phi):
    """Two-component axial spinor of the planar problem.

    For m = -kappa only the upper component survives, carrying the phase
    exp(i(m - 1/2) phi) / sqrt(2 pi); for m = +kappa only the lower one,
    with exp(i(m + 1/2) phi) / sqrt(2 pi).

    Returns a complex array of shape (2,) + shape(phi).
    """
    if not _valid_projection(ch, m):
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
        if not _valid_projection(ch_i, m_i):
            raise ValueError(f"invalid spinor labels kappa={ch_i.kappa}, m={m_i}")
    two_k, two_k2 = round(2.0 * ch.kappa), round(2.0 * ch2.kappa)
    same_orientation = (round(2.0 * m) * two_k2) == (round(2.0 * m2) * two_k)
    coupled = abs(two_k - two_k2) == 2
    return 0.5 if (same_orientation and coupled) else 0.0


def first_order_shift(coefficients=(1.0, 0.0)) -> float:
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
            matrix[i, j] = angular
    eigenvalues = np.linalg.eigvalsh(matrix)
    return float(eigenvalues[0])
