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
)
from .polarizability import (
    PolarizabilityResult,
    nonrel_limit,
    polarizability_planar,
    polarizability_spatial,
    quasirel_coefficient,
    r_channel_closed,
    second_order_energy,
)
from .specfun import (
    ConvergenceError,
    Hyp3F2Params,
    SeriesDiagnostics,
    hyp3f2_unit,
    log_gamma,
)
# The table layer loads on first access (PEP 562), so that ``import diracpol``
# and the closed-form commands stay without it.  The value is looked up on
# every access, not stored here: a tracer that rebinds a module's functions
# for a while must not leave its wrapper behind.  The Sturmian oracle exists
# to validate the closed form and is not re-exported; import it, with its
# ``polarizability_sturmian``, from ``diracpol.sturmian``.
_LAZY = frozenset(
    {
        "ConstantSet",
        "PropagationError",
        "TableRow",
        "generate_table",
        "propagate_uncertainty",
        "rows_to_csv",
        "rows_to_json",
    }
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.tablegen"), name)


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
    "Hyp3F2Params",
    "PolarizabilityResult",
    "PropagationError",
    "SeriesDiagnostics",
    "SupercriticalError",
    "TableRow",
    "critical_charge",
    "gamma_half",
    "gamma_kappa",
    "generate_table",
    "ground_energy",
    "hyp3f2_unit",
    "log_gamma",
    "nonrel_limit",
    "polarizability_planar",
    "polarizability_spatial",
    "propagate_uncertainty",
    "quasirel_coefficient",
    "r_channel_closed",
    "rows_to_csv",
    "rows_to_json",
    "second_order_energy",
]
