"""Exact computations with filtrations of monomial ideals: saturation-length
limits and their convergence diagnostics, property A(c), analytic spread
certificates, and integral closures of Rees algebras."""

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
from .diagnostics import (
    AcReport,
    MaxSpreadCertificate,
    ZeroSpreadCertificate,
    ZeroSpreadNotFound,
    check_Ac,
    spread_max_test,
    spread_zero_test,
    toric_rank_bound,
    verify_ac_witness,
    verify_zero_certificate,
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
from .newton import (
    ClosureVerdict,
    filtration_integral_member,
    integral_closure,
    np_membership,
    rees_closure_compare,
    verify_separation_certificate,
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
from .scenario import Scenario, ScenarioError, load_scenario, run_scenario
from .valuation import (
    CertificationError,
    ExactScalar,
    MonomialValuation,
    ceil_mul,
    parse_scalar,
    valuation_ideal,
    valuation_of_ideal,
)
