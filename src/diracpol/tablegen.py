"""Batch evaluation of scaled planar polarizabilities over charge ranges,
uncertainty propagation from the fine-structure constant, and deterministic
CSV/JSON emission.

Displayed values follow the reference convention of showing exactly two
uncertain digits: the decimal count of each row is the smallest for which
the propagated one-standard-deviation uncertainty rounds to a two-digit
integer in units of the last displayed digit.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from typing import NamedTuple

from .atom import ALPHA_INV_CODATA2014, ALPHA_INV_SIGMA_CODATA2014, AtomSpec
from .polarizability import polarizability_planar
from .specfun import _validated_make

CSV_HEADER = "Z,scaled_polarizability_a0^3,uncertainty_last_two_digits,polarizability_a0^3"

# Central-difference step for d/d(alpha_inv), well inside the linear regime
# yet large enough that 15-digit function values dominate rounding noise.
_STEP_FACTOR = 1e4


class PropagationError(ArithmeticError):
    """Curvature check of the uncertainty propagation step failed."""


class _ConstantSetFields(NamedTuple):
    alpha_inv: float
    alpha_inv_sigma: float


class ConstantSet(_ConstantSetFields):
    """Inverse fine-structure constant and its one-standard-deviation
    uncertainty (defaults: CODATA 2014)."""

    __slots__ = ()

    def __new__(
        cls,
        alpha_inv: float = ALPHA_INV_CODATA2014,
        alpha_inv_sigma: float = ALPHA_INV_SIGMA_CODATA2014,
    ) -> ConstantSet:
        if not alpha_inv > 0.0:
            raise ValueError(f"alpha_inv must be positive, got {alpha_inv!r}")
        if not math.isfinite(alpha_inv_sigma):
            raise ValueError(f"alpha_inv_sigma must be finite, got {alpha_inv_sigma!r}")
        if alpha_inv_sigma < 0.0:
            raise ValueError(
                f"alpha_inv_sigma must be non-negative, got {alpha_inv_sigma!r}"
            )
        return tuple.__new__(cls, (alpha_inv, alpha_inv_sigma))

    _make = classmethod(_validated_make)


class TableRow(NamedTuple):
    """One table row: charge, scaled polarizability, display metadata.

    ``sigma_last_two`` is the parenthesized uncertainty expressed in units
    of the last two displayed digits; ``digits`` is the number of decimal
    places shown in ``display``.
    """

    Z: int
    scaled_Z4: float
    sigma_last_two: int
    digits: int
    display: str
    sigma_abs: float
    value_a0_cubed: float


def _scaled_at(z: float, alpha_inv: float) -> float:
    return polarizability_planar(AtomSpec(z, "planar", alpha_inv)).scaled_Z4


def propagate_uncertainty(Z: float, consts: ConstantSet = ConstantSet()) -> float:
    """One-standard-deviation uncertainty of Z**4 * alpha_1 induced by the
    uncertainty of the inverse fine-structure constant.

    The derivative is taken by central difference with step
    1e4 * alpha_inv_sigma; a symmetric second-difference check must show a
    curvature contribution below 1% of the derivative, otherwise
    PropagationError is raised.
    """
    if consts.alpha_inv_sigma == 0.0:
        return 0.0
    h = _STEP_FACTOR * consts.alpha_inv_sigma
    center = _scaled_at(Z, consts.alpha_inv)
    upper = _scaled_at(Z, consts.alpha_inv + h)
    lower = _scaled_at(Z, consts.alpha_inv - h)
    difference = upper - lower
    derivative = difference / (2.0 * h)
    # A difference at the rounding floor of the 15-digit values carries no
    # curvature information; the check only applies to resolved derivatives.
    noise_floor = 16.0 * math.ulp(abs(center))
    if abs(difference) > noise_floor:
        curvature = abs(upper - 2.0 * center + lower) / (2.0 * h)
        if curvature > 0.01 * abs(derivative):
            raise PropagationError(
                f"curvature contribution {curvature:.3e} exceeds 1% of the "
                f"derivative {derivative:.3e} at Z={Z}; adjust the step"
            )
    return abs(derivative) * consts.alpha_inv_sigma


def format_scaled(value: float, sigma: float) -> tuple[str, int, int]:
    """Render ``value`` with exactly two uncertain digits.

    Returns (display string, decimal places, two-digit uncertainty).  The
    decimal count is the smallest for which the uncertainty rounds to at
    least 10 units of the last digit; the central value is rounded
    half-even on its decimal representation.
    """
    if sigma == 0.0:
        # No propagated uncertainty: show full double precision, no digits
        # flagged as uncertain.
        return _quantized(value, 16), 16, 0
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"format_scaled needs a finite non-negative uncertainty, got {sigma!r}")
    # units(d) = round(sigma * 10**d) never decreases in d and is 0 for every
    # d < log10(0.5 / sigma), so the search starts at the floor of that,
    # taken as a difference of logs since 0.5 / sigma overflows for a
    # subnormal sigma.
    first = max(1, math.floor(math.log10(0.5) - math.log10(sigma)))
    for digits in range(first, 40):
        units = int(
            Decimal(sigma).scaleb(digits).quantize(Decimal(1), rounding=ROUND_HALF_EVEN)
        )
        if units >= 10:
            return _quantized(value, digits), digits, units
    raise ValueError(f"uncertainty {sigma!r} too small to display two digits")


def _quantized(value: float, digits: int) -> str:
    """``value`` rounded half-even to ``digits`` decimals, in a context with
    room for every digit of the result."""
    exact = Decimal(value)
    with localcontext() as ctx:
        ctx.prec = max(ctx.prec, exact.adjusted() + digits + 2)
        return str(exact.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN))


def generate_table(z_min: int, z_max: int, consts: ConstantSet = ConstantSet()) -> list[TableRow]:
    """Compute one row per integer charge in [z_min, z_max].

    Every charge must stay subcritical for alpha_inv shifted by the
    propagation step; rows are returned in ascending Z order.
    """
    if z_min < 1 or z_min > z_max:
        raise ValueError(f"need 1 <= z_min <= z_max, got ({z_min}, {z_max})")
    rows = []
    for z in range(z_min, z_max + 1):
        result = polarizability_planar(AtomSpec(z, "planar", consts.alpha_inv))
        sigma = propagate_uncertainty(z, consts)
        display, digits, units = format_scaled(result.scaled_Z4, sigma)
        rows.append(
            TableRow(
                Z=z,
                scaled_Z4=result.scaled_Z4,
                sigma_last_two=units,
                digits=digits,
                display=display,
                sigma_abs=sigma,
                value_a0_cubed=result.value_a0_cubed,
            )
        )
    return rows


def rows_to_csv(rows: list[TableRow]) -> str:
    """Render rows as CSV: display-form scaled value, two-digit
    uncertainty, and the full-precision unscaled polarizability."""
    lines = [CSV_HEADER]
    lines.extend(
        f"{row.Z},{row.display},{row.sigma_last_two},{row.value_a0_cubed!r}"
        for row in rows
    )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[TableRow]) -> str:
    """Render rows as a JSON array; float fields are carried as shortest
    round-tripping decimal strings."""
    import json

    payload = [
        {
            "Z": row.Z,
            "scaled_Z4": repr(row.scaled_Z4),
            "scaled_Z4_display": row.display,
            "digits": row.digits,
            "sigma_last_two": row.sigma_last_two,
            "sigma_abs": repr(row.sigma_abs),
            "polarizability_a0^3": repr(row.value_a0_cubed),
        }
        for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"
