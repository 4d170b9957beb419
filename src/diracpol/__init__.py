"""Static dipole polarizabilities of relativistic (Dirac) hydrogen-like
atoms in two and three dimensions: closed-form hypergeometric evaluation,
an independent Sturmian-series oracle, and reference-table generation with
uncertainty propagation."""

import importlib

from .atom import (
    ALPHA_INV_CODATA2014,
    ALPHA_INV_SIGMA_CODATA2014,
    AtomSpec,
    ChannelIndex,
    SupercriticalError,
    critical_charge,
    gamma_half,
    gamma_kappa,
    ground_energy,
    radial_PQ,
)
from .polarizability import (
    ExtrapolationError,
    PolarizabilityResult,
    nonrel_limit,
    polarizability_planar,
    polarizability_spatial,
    polarizability_sturmian,
    quasirel_coefficient,
    r_channel_closed,
    second_order_energy,
)
from .specfun import (
    ConvergenceError,
    Hyp3F2Params,
    SeriesDiagnostics,
    gamma_ratio,
    hyp3f2_unit,
    laguerre,
    log_gamma,
)
# The oracle and the table layer load on first access (PEP 562), so that
# ``import diracpol`` and the closed-form commands stay without them.  The
# value is looked up on every access, not stored here: a tracer that rebinds
# a module's functions for a while must not leave its wrapper behind.
_LAZY = {
    "RadialIntegralPair": "sturmian",
    "SturmianIndex": "sturmian",
    "first_order_integral": "sturmian",
    "first_order_integral_quadrature": "sturmian",
    "gauss_laguerre_integral": "sturmian",
    "mu": "sturmian",
    "n_cap": "sturmian",
    "r_channel_series": "sturmian",
    "sturmian_ST": "sturmian",
    "ConstantSet": "tablegen",
    "PropagationError": "tablegen",
    "TableRow": "tablegen",
    "generate_table": "tablegen",
    "propagate_uncertainty": "tablegen",
    "rows_to_csv": "tablegen",
    "rows_to_json": "tablegen",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "ALPHA_INV_CODATA2014",
    "ALPHA_INV_SIGMA_CODATA2014",
    "AtomSpec",
    "ChannelIndex",
    "ConstantSet",
    "ConvergenceError",
    "ExtrapolationError",
    "Hyp3F2Params",
    "PolarizabilityResult",
    "PropagationError",
    "RadialIntegralPair",
    "SeriesDiagnostics",
    "SturmianIndex",
    "SupercriticalError",
    "TableRow",
    "critical_charge",
    "first_order_integral",
    "first_order_integral_quadrature",
    "gamma_half",
    "gamma_kappa",
    "gamma_ratio",
    "gauss_laguerre_integral",
    "generate_table",
    "ground_energy",
    "hyp3f2_unit",
    "laguerre",
    "log_gamma",
    "mu",
    "n_cap",
    "nonrel_limit",
    "polarizability_planar",
    "polarizability_spatial",
    "polarizability_sturmian",
    "propagate_uncertainty",
    "quasirel_coefficient",
    "r_channel_closed",
    "r_channel_series",
    "radial_PQ",
    "rows_to_csv",
    "rows_to_json",
    "second_order_energy",
    "sturmian_ST",
]
