"""Validate the closed-form channel integrals against two independent
routes: the explicit Sturmian expansion and Gauss-Laguerre quadrature.

The two dipole channels behave very differently: kappa = 1/2 truncates
after five basis functions, while kappa = -3/2 is a genuinely infinite
series whose length grows toward the critical charge.
"""

from diracpol import AtomSpec, ChannelIndex, r_channel_closed
from diracpol.sturmian import channel_first_order_integrals, r_channel_series

Z = 26.0


def main() -> None:
    spec = AtomSpec(Z, "planar")
    print(f"iron-like planar ion, Z = {Z:g}")
    print()
    for kappa in (0.5, -1.5):
        ch = ChannelIndex(kappa)
        closed = r_channel_closed(ch, spec)
        series, diag = r_channel_series(ch, spec, 1e-12)
        print(f"channel kappa = {kappa:+g}")
        print(f"  closed form:      {closed:.15e}")
        print(f"  Sturmian series:  {series:.15e}  ({diag.terms_used} terms)")
        print(f"  relative deviation: {abs(closed - series) / abs(closed):.2e}")

        print("  first-order integrals, closed vs quadrature:")
        print(f"  {'n_r':>4} {'plain':>23} {'quadrature':>23}")
        pairs = channel_first_order_integrals(ch, spec, 2)
        for n_r, (exact, quad) in zip(range(-2, 3), pairs):
            print(f"  {n_r:>+4} {exact.plain:>23.15e} {quad.plain:>23.15e}")
        print()

    print("Notable structure:")
    print("  - the kappa = 1/2 integrals vanish identically for |n_r| >= 3,")
    print("    which is why that channel's sum is exact after a few terms;")
    print("  - at n_r = 0, kappa = 1/2 the weighted integral is exactly zero")
    print("    (that basis function carries the ground state's radial shape).")
    pair = channel_first_order_integrals(ChannelIndex(0.5), spec, 0)[0][0]
    print(f"    computed value: {pair.mu_weighted!r}")


if __name__ == "__main__":
    main()
