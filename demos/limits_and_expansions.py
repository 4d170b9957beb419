"""Weak-coupling behaviour: recover the nonrelativistic constants and
the leading relativistic correction coefficients.

alpha_1 / alpha_1_NR = 1 + c (alpha Z)^2 + O((alpha Z)^4) with c = -7/2
for planar atoms and c = -28/27 for spatial ones.  The raw slopes
(alpha_1 / alpha_1_NR - 1) / (alpha Z)^2 from the closed form show the
cancellation: the shift is formed by subtracting 1 from a number near 1,
so a slope keeps only about 1e-16 / |shift| of its digits.  The library
instead takes c as the derivative of log alpha_1 at x = (alpha Z)^2 = 0:
quasirel_coefficient sums the slopes of the closed form's log factors in
one math.fsum, with no such subtraction and no extrapolation, and gets
-7/2 and -28/27 correctly rounded.
"""

from diracpol import (
    ALPHA_INV_CODATA2014,
    AtomSpec,
    nonrel_limit,
    polarizability_planar,
    polarizability_spatial,
    quasirel_coefficient,
)


def main() -> None:
    print("nonrelativistic scaled limits")
    print(f"  planar : {nonrel_limit('planar'):.7f} a0^3  (= 21/128)")
    print(f"  spatial: {nonrel_limit('spatial'):.1f} a0^3        (= 9/2)")

    print()
    print("raw quadratic slopes g(Z) = (alpha_1/alpha_1_NR - 1)/(alpha Z)^2:")
    for dimension, compute in (
        ("planar", polarizability_planar),
        ("spatial", polarizability_spatial),
    ):
        limit = nonrel_limit(dimension)
        slopes = []
        for z in (4.0, 2.0, 1.0, 0.5, 0.25):
            spec = AtomSpec(z, dimension)
            x = (z / ALPHA_INV_CODATA2014) ** 2
            slopes.append((compute(spec).scaled_Z4 / limit - 1.0) / x)
        rendered = ", ".join(f"{s:.7f}" for s in slopes)
        print(f"  {dimension:<7}: {rendered}")

    print()
    print("coefficients from the closed form's slope at (alpha Z)^2 = 0:")
    planar_c = quasirel_coefficient("planar")
    spatial_c = quasirel_coefficient("spatial")
    print(f"  planar : {planar_c!r:<19}  target -7/2   = {-3.5!r}")
    print(f"  spatial: {spatial_c!r:<19}  target -28/27 = {-28.0 / 27.0!r}")


if __name__ == "__main__":
    main()
