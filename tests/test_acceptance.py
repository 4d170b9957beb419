"""Acceptance suite: every gate criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them)."""

import math
import time

import numpy as np
from scipy.special import roots_genlaguerre

from diracpol.atom import (
    ALPHA_INV_CODATA2014,
    AtomSpec,
    ChannelIndex,
    gamma_half,
)
from diracpol.polarizability import (
    nonrel_limit,
    polarizability_planar,
    polarizability_spatial,
    quasirel_coefficient,
    r_channel_closed,
)
from diracpol.specfun import (
    Hyp3F2Params,
    hyp3f2_unit,
    log_gamma,
)
from diracpol.sturmian import (
    _laguerre_table,
    channel_first_order_integrals,
    gauss_laguerre_integral,
    laguerre_rule,
    r_channel_series,
)
from diracpol.tablegen import generate_table
from tests.reference import (
    axial_spinor,
    cos_matrix_element,
    first_order_shift,
    gamma_ratio,
    hyp3f2_contiguous_rhs,
    radial_PQ,
)
from tests.table_data import REFERENCE_SCALED, reference_tolerance, reference_value

SPOT_ANCHORS = {
    1: "0.164031922357129",
    26: "0.1435165934310",
    50: "0.088991948689",
    68: "0.01833185081",
}


def _report(criterion: int, title: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {title}")
    assert ok, f"criterion {criterion} failed: {title}"


def test_criterion_1_table_reproduction():
    start = time.monotonic()
    worst = 0.0
    for z in range(1, 69):
        scaled = polarizability_planar(AtomSpec(float(z), "planar")).scaled_Z4
        worst = max(worst, abs(scaled - reference_value(z)) / reference_tolerance(z))
    elapsed = time.monotonic() - start
    anchors_ok = all(
        abs(polarizability_planar(AtomSpec(float(z), "planar")).scaled_Z4 - float(text))
        <= reference_tolerance(z)
        for z, text in SPOT_ANCHORS.items()
    )
    ok = worst <= 1.0 and anchors_ok and elapsed < 10.0
    _report(
        1,
        f"all 68 scaled values match the reference digits "
        f"(worst tolerance fraction {worst:.2f}, {elapsed:.2f} s)",
        ok,
    )


def test_criterion_2_uncertainty_reproduction():
    start = time.monotonic()
    rows = generate_table(1, 68)
    elapsed = time.monotonic() - start
    exact = 0
    all_within_one = True
    for row in rows:
        ref_display, ref_units = REFERENCE_SCALED[row.Z]
        ref_decimals = len(ref_display) - ref_display.index(".") - 1
        if row.digits == ref_decimals and row.sigma_last_two == ref_units:
            exact += 1
        units_at_ref = round(row.sigma_abs * 10.0**ref_decimals)
        if abs(units_at_ref - ref_units) > 1:
            all_within_one = False
    ok = exact >= 66 and all_within_one and elapsed < 30.0
    _report(
        2,
        f"two-digit uncertainties match exactly on {exact}/68 rows, "
        f"all within one unit ({elapsed:.2f} s)",
        ok,
    )


def test_criterion_3_nonrelativistic_limits():
    z = 1e-3
    planar = polarizability_planar(AtomSpec(z, "planar")).scaled_Z4
    az2 = (z / ALPHA_INV_CODATA2014) ** 2
    planar_expected = nonrel_limit("planar") * (1.0 - 3.5 * az2)
    spatial = polarizability_spatial(AtomSpec(z, "spatial")).scaled_Z4
    spatial_expected = nonrel_limit("spatial") * (1.0 - 28.0 / 27.0 * az2)
    dev_planar = abs(planar - planar_expected)
    dev_spatial = abs(spatial - spatial_expected)
    ok = dev_planar <= 1e-10 and dev_spatial <= 1e-10
    _report(
        3,
        f"weak-coupling limits 21/128 and 9/2 reached at Z=1e-3 "
        f"(planar dev {dev_planar:.1e}, spatial dev {dev_spatial:.1e})",
        ok,
    )


def test_criterion_4_quasirelativistic_coefficients():
    planar = quasirel_coefficient("planar")
    spatial = quasirel_coefficient("spatial")
    # Deviations in units of the last place of each target.
    dev_planar = abs(planar + 3.5) / math.ulp(3.5)
    dev_spatial = abs(spatial + 28.0 / 27.0) / math.ulp(28.0 / 27.0)
    ok = dev_planar <= 2.0 and dev_spatial <= 2.0
    _report(
        4,
        f"quadratic coefficients {planar!r} vs -7/2 ({dev_planar:g} ulp) and "
        f"{spatial!r} vs -28/27 ({dev_spatial:g} ulp)",
        ok,
    )


def test_criterion_5_oracle_equivalence():
    worst_series = 0.0
    for z in (1.0, 10.0, 26.0, 40.0, 55.0, 68.0):
        spec = AtomSpec(z, "planar")
        for ch in (ChannelIndex(0.5), ChannelIndex(-1.5)):
            closed = r_channel_closed(ch, spec)
            series, _ = r_channel_series(ch, spec, 1e-12)
            worst_series = max(worst_series, abs(series - closed) / abs(closed))
    worst_quad = 0.0
    for z in (26.0, 68.0):
        spec = AtomSpec(z, "planar")
        for ch in (ChannelIndex(0.5), ChannelIndex(-1.5)):
            pairs = channel_first_order_integrals(ch, spec, 3)
            scale = max(
                max(abs(a.plain), abs(a.mu_weighted)) for a, _ in pairs
            )
            for exact, quad in pairs:
                for x, y in (
                    (exact.plain, quad.plain),
                    (exact.mu_weighted, quad.mu_weighted),
                ):
                    if abs(x) >= 1e-6 * scale:
                        worst_quad = max(worst_quad, abs(x - y) / abs(x))
                    else:
                        worst_quad = max(worst_quad, abs(x - y) / scale)
    ok = worst_series <= 1e-10 and worst_quad <= 1e-12
    _report(
        5,
        f"closed forms vs Sturmian series (worst {worst_series:.1e}) and vs "
        f"quadrature (worst {worst_quad:.1e})",
        ok,
    )


def test_criterion_6_special_function_suite():
    tol = 1e-10
    rng = np.random.default_rng(101)
    worst_identity = 0.0
    checked = 0
    while checked < 1000:
        a1, a2, a3 = rng.uniform(0.05, 9.0, 3)
        b2 = rng.uniform(0.5, 10.0)
        p = Hyp3F2Params(a1, a2, a3, a3 + 1.0, b2)
        if p.balance() < 2.5:
            continue
        if b2 - a1 - a2 <= -0.5 or abs(b2 - a3 - 1.0) < 0.05:
            continue
        if min(b2 - a1, b2 - a2) <= 0.05:
            continue
        direct, _ = hyp3f2_unit(p, tol=tol)
        rhs = hyp3f2_contiguous_rhs(p, tol=tol)
        worst_identity = max(worst_identity, abs(rhs - direct) / abs(direct))
        checked += 1
    identity_ok = worst_identity <= 100.0 * tol

    gauss_tol = 1e-7
    worst_gauss = 0.0
    checked = 0
    while checked < 25:
        a1, a2 = rng.uniform(0.1, 3.0, 2)
        shared = rng.uniform(0.5, 6.0)
        b2 = a1 + a2 + rng.uniform(1.5, 5.0)
        value, _ = hyp3f2_unit(Hyp3F2Params(a1, a2, shared, shared, b2), tol=gauss_tol)
        closed = gamma_ratio([b2, b2 - a1 - a2], [b2 - a1, b2 - a2])
        worst_gauss = max(worst_gauss, abs(value - closed) / abs(closed))
        checked += 1
    truncating, _ = hyp3f2_unit(Hyp3F2Params(-1.0, 1.0, 1.0, 2.0, 2.0), tol=1e-16)
    gauss_ok = worst_gauss <= 10.0 * gauss_tol
    truncating_ok = abs(truncating - 0.75) <= 10.0 * 1e-16

    worst_laguerre = 0.0
    for _ in range(10):
        alpha = float(rng.uniform(-0.5, 5.0))
        x = float(rng.uniform(0.0, 60.0))
        table = [row[0] for row in _laguerre_table(201, alpha, [x])]
        for n in range(1, 201, 10):
            low, mid, high = table[n : n + 3]
            terms = ((n + 1) * high, (2 * n + alpha + 1 - x) * mid, (n + alpha) * low)
            residual = abs(terms[0] - terms[1] + terms[2])
            scale = max(max(abs(t) for t in terms), 1.0)
            worst_laguerre = max(worst_laguerre, residual / (8.0 * math.ulp(scale)))
    laguerre_ok = worst_laguerre <= 1.0

    worst_moment = 0.0
    checked = 0
    eps = np.finfo(float).eps
    while checked < 20:
        n = int(rng.integers(0, 11))
        a = float(rng.uniform(0.0, 6.0))
        g = float(rng.uniform(-0.9, 6.0))
        if any(abs(a - g + j) < 0.3 for j in range(n)):
            continue
        nodes, weights = roots_genlaguerre(200, g)
        sampled = np.array(_laguerre_table(n, a, nodes.tolist())[-1])
        quad = math.fsum(weights * sampled)
        closed = math.exp(log_gamma(g + 1.0) - log_gamma(n + 1.0))
        for j in range(n):
            closed *= a - g + j
        # Allowance: 1e-11 relative or the rule's own round-off floor.
        noise = 32.0 * eps * math.fsum(weights * np.abs(sampled))
        allowed = max(1e-11 * abs(closed), noise)
        worst_moment = max(worst_moment, abs(quad - closed) / allowed)
        checked += 1
    moment_ok = worst_moment <= 1.0

    ok = identity_ok and gauss_ok and truncating_ok and laguerre_ok and moment_ok
    _report(
        6,
        f"contiguous identity (worst {worst_identity:.1e}), Gauss reduction "
        f"(worst {worst_gauss:.1e}), truncating case, Laguerre recurrence "
        f"(worst {worst_laguerre:.2f} of bound), weighted moments "
        f"(worst {worst_moment:.2f} of bound)",
        ok,
    )


def test_criterion_7_structural_physics_checks():
    phi = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    dphi = 2.0 * math.pi / phi.size
    cos_phi = np.cos(phi)
    channels = [ChannelIndex(k / 2.0) for k in (-7, -5, -3, -1, 1, 3, 5, 7)]
    labels = [(ch, m) for ch in channels for m in (ch.kappa, -ch.kappa)]
    worst_ortho = 0.0
    worst_selection = 0.0
    for ch, m in labels:
        left = axial_spinor(ch, m, phi)
        for ch2, m2 in labels:
            right = axial_spinor(ch2, m2, phi)
            product = np.sum(np.conj(left) * right, axis=0)
            overlap = np.sum(product) * dphi
            expected = 1.0 if (ch.kappa == ch2.kappa and m == m2) else 0.0
            worst_ortho = max(worst_ortho, abs(overlap - expected))
            dipole = np.sum(product * cos_phi) * dphi
            worst_selection = max(
                worst_selection, abs(dipole - cos_matrix_element(ch, m, ch2, m2))
            )

    shift_ok = first_order_shift((math.sqrt(0.5), math.sqrt(0.5))) == 0.0

    worst_norm = 0.0
    for z in (1.0, 26.0, 68.0):
        spec = AtomSpec(z, "planar")

        def density(r):
            p, q = radial_PQ(spec, r)
            return p * p + q * q

        rule = laguerre_rule(2.0 * gamma_half(spec))
        norm = gauss_laguerre_integral(density, rule, 4.0 * spec.Z)
        worst_norm = max(worst_norm, abs(norm - 1.0))

    ok = (
        worst_ortho <= 1e-12
        and worst_selection <= 1e-12
        and shift_ok
        and worst_norm <= 1e-12
    )
    _report(
        7,
        f"spinor orthonormality (worst {worst_ortho:.1e}), selection rule "
        f"(worst {worst_selection:.1e}), vanishing first-order shift, radial "
        f"normalization (worst {worst_norm:.1e})",
        ok,
    )
