"""Exact computations with filtrations of monomial ideals: saturation-length
limits and their convergence diagnostics, property A(c), analytic spread
certificates, and integral closures of Rees algebras.

``import epsmult`` runs the sequence engine's modules.  ``diagnostics``,
``newton`` and ``scenario`` are registered in ``sys.modules`` at once, but
their code runs only when one of their attributes is first read."""

import importlib.util as _util
import sys as _sys

from .asymptotics import (
    DifferenceReport,
    EpsilonReport,
    ESLocalizedReport,
    LengthSequence,
    TruncationSweep,
    e_s_localized,
    epsilon_difference_check,
    epsilon_report,
    ideal_multiplicity,
    samuel_of_quotient,
    samuel_sequence,
    sat_quotient_sequence,
    truncation_sweep,
)
from .filtration import (
    DiscreteValuedFiltration,
    Filtration,
    PowerFiltration,
    TableFiltration,
    TableRangeError,
    TemplateFiltration,
    TruncationFiltration,
    filtration_dimension,
    sigma_surrogate,
    validate_filtration,
)
from .ring import (
    MonomialIdeal,
    RingContext,
    colength,
    colon,
    dim_quotient,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    localize,
    maximal_power,
    quotient_length,
    saturate,
)
from .valuation import (
    CertificationError,
    ExactScalar,
    MonomialValuation,
    ceil_mul,
    parse_scalar,
    valuation_ideal,
    valuation_of_ideal,
)

# the package-level names of the deferred modules, by home module
_DEFERRED = {
    **dict.fromkeys(("AcReport", "MaxSpreadCertificate", "ZeroSpreadCertificate",
                     "ZeroSpreadNotFound", "check_Ac", "spread_max_test",
                     "spread_zero_test", "toric_rank_bound", "verify_ac_witness",
                     "verify_zero_certificate"), "diagnostics"),
    **dict.fromkeys(("ClosureVerdict", "filtration_integral_member",
                     "integral_closure", "np_membership", "rees_closure_compare",
                     "verify_separation_certificate"), "newton"),
    **dict.fromkeys(("Scenario", "ScenarioError", "load_scenario",
                     "run_scenario"), "scenario"),
}


def _register_lazily(name):
    """Put ``epsmult.<name>`` in ``sys.modules`` without running its code;
    the first attribute read runs it."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


diagnostics = _register_lazily("diagnostics")
newton = _register_lazily("newton")
scenario = _register_lazily("scenario")

# what ``from epsmult import *`` binds: every public name above and the deferred ones
__all__ = sorted({n for n in globals() if not n.startswith("_")} | _DEFERRED.keys())


def __getattr__(name):
    if name in _DEFERRED:
        return getattr(globals()[_DEFERRED[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _DEFERRED.keys())
