"""The reference table: rows of scaled planar polarizabilities over a range
of charges, their uncertainty propagated from that of alpha_inv, their
display with two uncertain digits, CSV and JSON, and the program's split
of the rows with a forked child.

Loaded by the ``table`` command and on first access to its names in
``diracpol``; it imports the closed form, never the oracle ``sturmian``.
"""

from __future__ import annotations

import marshal
import math
import os
from typing import NamedTuple

from .atom import (
    ALPHA_INV_CODATA2014, ALPHA_INV_SIGMA_CODATA2014, AtomSpec, SupercriticalError, critical_charge,
)
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


def _check_step(Z: float, consts: ConstantSet, h: float) -> None:
    """Refuse the step h as ``propagate_uncertainty`` says; a finite
    alpha_inv that rounds h away would read a zero difference."""
    shifted = consts.alpha_inv - h
    resolved = shifted < consts.alpha_inv < consts.alpha_inv + h or consts.alpha_inv == math.inf
    if shifted > 0.0 and resolved and Z < critical_charge("planar", shifted):
        return
    step = (
        f"the propagation step 1e4 * alpha_inv_sigma = {h!r} "
        f"(alpha_inv_sigma = {consts.alpha_inv_sigma!r})"
    )
    if not shifted > 0.0:
        raise ValueError(f"{step} takes alpha_inv = {consts.alpha_inv!r} to {shifted!r}")
    if not Z < critical_charge("planar", shifted):
        raise SupercriticalError(
            f"Z={Z} is supercritical at alpha_inv - step: {step} needs "
            f"Z < (alpha_inv - step)/2 = {critical_charge('planar', shifted)!r}"
        )
    raise ValueError(
        f"{step} is lost in rounding: alpha_inv = {consts.alpha_inv!r} plus or minus it is alpha_inv"
    )


def propagate_uncertainty(Z: float, consts: ConstantSet = ConstantSet()) -> float:
    """One-standard-deviation uncertainty of Z**4 * alpha_1 induced by the
    uncertainty of the inverse fine-structure constant.

    The derivative is taken by central difference with step
    1e4 * alpha_inv_sigma; a symmetric second-difference check must show a
    curvature contribution below 1% of the derivative, otherwise
    PropagationError is raised.  A difference of the two sides within 16 ulp
    of the centre is rounding noise and gives 0.0, as alpha_inv_sigma = 0.0
    does.  A second difference within 16 ulp of the centre is rounding noise
    too and passes the curvature check, though such a row's uncertainty may
    rest on a difference of about 17 ulp.  A step that takes alpha_inv to
    zero or below, or that a finite alpha_inv rounds away, raises
    ValueError, and one that leaves Z at or above the critical charge of
    alpha_inv - step raises SupercriticalError, all before any evaluation
    and naming alpha_inv_sigma and the step.
    """
    if consts.alpha_inv_sigma == 0.0:
        return 0.0
    h = _STEP_FACTOR * consts.alpha_inv_sigma
    _check_step(Z, consts, h)
    # generate_table has just evaluated this point for the row's value, so
    # specfun.hyp3f2_unit reads its 3F2 back from its one-entry memo.
    center = _scaled_at(Z, consts.alpha_inv)
    upper = _scaled_at(Z, consts.alpha_inv + h)
    lower = _scaled_at(Z, consts.alpha_inv - h)
    difference = upper - lower
    floor = 16.0 * math.ulp(abs(center))
    if abs(difference) <= floor:
        return 0.0
    derivative = difference / (2.0 * h)
    second = upper - 2.0 * center + lower
    curvature = abs(second) / (2.0 * h)
    if abs(second) > floor and curvature > 0.01 * abs(derivative):
        raise PropagationError(
            f"curvature contribution {curvature:.3e} exceeds 1% of the "
            f"derivative {derivative:.3e} at Z={Z}; adjust the step"
        )
    return abs(derivative) * consts.alpha_inv_sigma


def format_scaled(value: float, sigma: float) -> tuple[str, int, int]:
    """Render ``value`` with exactly two uncertain digits.

    Returns (display string, decimal places, two-digit uncertainty).  The
    decimal count is the smallest for which the uncertainty rounds to at
    least 10 units of the last digit.  Both the value and the uncertainty
    are rounded by Python's fixed-point formatting, which rounds the exact
    double half-even, and the display never takes an exponent.  A
    non-finite value, and an uncertainty of 9.95 or more, which rounds to
    100 units at one decimal, raise ``ValueError``.
    """
    if not math.isfinite(value):
        raise ValueError(f"format_scaled needs a finite value, got {value!r}")
    if sigma == 0.0:
        # No propagated uncertainty: show full double precision, no digits
        # flagged as uncertain.
        return f"{value:.16f}", 16, 0
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"format_scaled needs a finite non-negative uncertainty, got {sigma!r}")
    # units(d) = round(sigma * 10**d), the digits of sigma shown at d decimals,
    # never decreases in d and is 0 for every d < log10(0.5 / sigma), so the
    # search starts at the floor of that, taken as a difference of logs since
    # 0.5 / sigma overflows for a subnormal sigma.  A count after one showing
    # at most 9 units shows at most 95: only 1 decimal, searched first, can
    # show 100.
    first = max(1, math.floor(math.log10(0.5) - math.log10(sigma)))
    for digits in range(first, 40):
        units = int(f"{sigma:.{digits}f}".replace(".", ""))
        if units >= 10:
            if units >= 100:
                raise ValueError(f"uncertainty {sigma!r} too large to display two digits")
            return f"{value:.{digits}f}", digits, units
    raise ValueError(f"uncertainty {sigma!r} too small to display two digits")


def _charges(z_min: int, z_max: int) -> range:
    if z_min < 1 or z_min > z_max:
        raise ValueError(f"need 1 <= z_min <= z_max, got ({z_min}, {z_max})")
    return range(z_min, z_max + 1)


def _row(z: int, consts: ConstantSet) -> TableRow:
    result = polarizability_planar(AtomSpec(z, "planar", consts.alpha_inv))
    sigma = propagate_uncertainty(z, consts)
    display, digits, units = format_scaled(result.scaled_Z4, sigma)
    return TableRow(
        Z=z,
        scaled_Z4=result.scaled_Z4,
        sigma_last_two=units,
        digits=digits,
        display=display,
        sigma_abs=sigma,
        value_a0_cubed=result.value_a0_cubed,
    )


def generate_table(z_min: int, z_max: int, consts: ConstantSet = ConstantSet()) -> list[TableRow]:
    """Compute one row per integer charge in [z_min, z_max].

    Every charge must stay subcritical for alpha_inv shifted by the
    propagation step; rows are returned in ascending Z order.  A row depends
    on its charge and the constants alone, never on another row; this
    function computes them in order, in the calling process.
    """
    return [_row(z, consts) for z in _charges(z_min, z_max)]


def _split_table(z_min: int, z_max: int, consts: ConstantSet) -> list[TableRow]:
    """The rows of ``generate_table(z_min, z_max, consts)``, or its
    exception, computed by this process and one forked child.

    The child computes every other charge from z_min + 1, this process the
    rest; the cost rises steeply with Z, and interleaving splits it evenly.
    The child sends its rows as plain tuples through ``marshal``, built in
    and loaded at start-up, which carries each int, float and str field bit
    for bit; this process rebuilds them as ``TableRow``.  Nothing is forked
    where ``os.fork`` is missing, where the process may use one CPU only,
    or for a single row.  The one fallback, for a pipe or fork that cannot
    be made, a row that raises in either share or a child that does not
    deliver, is ``generate_table``, which gives the serial rows or raises
    the serial error; a failing table costs up to one extra serial table.
    The child is reaped on every path.  Forking is safe only in a process
    without other threads: only the command-line program, which starts
    none, calls this.
    """
    charges = _charges(z_min, z_max)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    if not hasattr(os, "fork") or cpus < 2 or len(charges) < 2:  # no os.fork on Windows
        return generate_table(z_min, z_max, consts)
    try:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
    except OSError:  # no descriptor or process to spare
        return generate_table(z_min, z_max, consts)
    if pid == 0:
        # The child leaves by os._exit, whatever happens: it flushes no
        # buffer it inherited and runs none of the parent's exit handlers.
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps([tuple(_row(z, consts)) for z in charges[1::2]]))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        rows = [_row(z, consts) for z in charges[0::2]]
    except Exception:  # generate_table below raises the serial run's error
        rows = None
    finally:
        try:
            with open(read_end, "rb") as pipe:
                data = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
    if rows is None or status != 0:
        return generate_table(z_min, z_max, consts)
    rows += (TableRow(*fields) for fields in marshal.loads(data))
    return sorted(rows, key=lambda row: row.Z)


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
