"""Tour of the 3F2 kernel at unit argument: truncating series, the Gauss
reduction, tail-controlled summation, and the contiguous-shift identity."""

import math

from diracpol import AtomSpec, ChannelIndex, Hyp3F2Params, gamma_kappa, hyp3f2_unit
from diracpol.sturmian import hyp3f2_contiguous_rhs


def main() -> None:
    print("truncating series: a numerator parameter -1 stops after two terms")
    value, diag = hyp3f2_unit(Hyp3F2Params(-1.0, 1.0, 1.0, 2.0, 2.0))
    print(f"  3F2(-1,1,1; 2,2; 1) = {value}  ({diag.terms_used} terms, exact)")

    print()
    print("Gauss reduction: a3 = b1 collapses to a 2F1 summation")
    value, diag = hyp3f2_unit(Hyp3F2Params(0.5, 0.5, 1.0, 1.0, 2.0), tol=1e-5)
    print(f"  3F2(.5,.5,1; 1,2; 1) = {value:.8f} vs 4/pi = {4.0 / math.pi:.8f}")
    print(f"  ({diag.terms_used} terms; the k**-2 tail makes this the slowest case)")

    print()
    print("production parameters: the slow dipole-channel series at Z = 68")
    spec = AtomSpec(68.0, "planar")
    g = gamma_kappa(spec, ChannelIndex(0.5))
    gk = gamma_kappa(spec, ChannelIndex(-1.5))
    d = gk - g
    params = Hyp3F2Params(d - 1.0, d - 1.0, d + 1.0, d + 2.0, 2.0 * gk + 1.0)
    value, diag = hyp3f2_unit(params, tol=1e-16)
    print(f"  value = {value:.15f}")
    print(f"  terms = {diag.terms_used}, tail estimate = {diag.tail_estimate:.1e}")

    print()
    print("contiguous-shift identity: same value through a gamma-ratio route")
    direct, _ = hyp3f2_unit(Hyp3F2Params(0.5, 0.5, 1.0, 2.0, 2.5), tol=1e-12)
    shifted = hyp3f2_contiguous_rhs(Hyp3F2Params(0.5, 0.5, 1.0, 2.0, 2.5), tol=1e-12)
    print(f"  direct summation: {direct:.15f}")
    print(f"  identity route:   {shifted:.15f}")
    print(f"  agreement: {abs(direct - shifted) / abs(direct):.1e}")


if __name__ == "__main__":
    main()
