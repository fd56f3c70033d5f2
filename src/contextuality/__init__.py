"""Exact contextuality analysis for finite systems of categorical random variables.

Decide whether a context-content system is contextual (rational LP
feasibility against coincidence-maximizing couplings of its connections),
evaluate the closed-form criterion for cyclic binary systems, and quantify
contextuality as the minimum total variation over constraint-satisfying
quasi-couplings.
"""

from .analysis import (
    DEFAULT_COLUMN_CAP,
    MeasureResult,
    OutcomeSpace,
    QuasiCoupling,
    QuasiCouplingReport,
    Verdict,
    build_associated_system,
    build_expanded_system,
    contextuality_measure,
    decide_contextuality,
    outcome_space,
    verify_quasi_coupling,
)
from .coupling import (
    MaximalCouplingSpec,
    maximal_coupling_diagonal,
    maximal_coupling_full,
)
from .cyclic import (
    CriterionReport,
    CyclicView,
    NotCyclic,
    detect_cycles,
    evaluate_criterion,
    expectation,
    product_expectation,
    s_odd,
)
from .distribution import Distribution, as_fraction, marginal, uniform
from .errors import ContextualityError
from .ingest import (
    EXAMPLE_NAMES,
    EprBResult,
    TrialRow,
    TrialTable,
    canonical_example,
    cyclic_system_from_correlations,
    dichotomize_matching,
    estimate_system,
    generate_epr_b,
    parse_layout,
    parse_system,
    parse_trials,
    rank2_family,
    serialize_system,
)
from .simplex import (
    FeasibilityResult,
    LinearSystem,
    OptimizationResult,
    minimize,
    rational_rank,
    solve_feasibility,
)
from .systems import (
    CCSystem,
    Connection,
    ConsistencyReport,
    Content,
    consistency_report,
    is_consistently_connected,
    validate_system,
)

__version__ = "0.1.0"

__all__ = [
    "CCSystem",
    "Connection",
    "ConsistencyReport",
    "Content",
    "ContextualityError",
    "CriterionReport",
    "CyclicView",
    "DEFAULT_COLUMN_CAP",
    "Distribution",
    "EXAMPLE_NAMES",
    "EprBResult",
    "FeasibilityResult",
    "LinearSystem",
    "MaximalCouplingSpec",
    "MeasureResult",
    "NotCyclic",
    "OptimizationResult",
    "OutcomeSpace",
    "QuasiCoupling",
    "QuasiCouplingReport",
    "TrialRow",
    "TrialTable",
    "Verdict",
    "as_fraction",
    "build_associated_system",
    "build_expanded_system",
    "canonical_example",
    "consistency_report",
    "contextuality_measure",
    "cyclic_system_from_correlations",
    "decide_contextuality",
    "detect_cycles",
    "dichotomize_matching",
    "estimate_system",
    "evaluate_criterion",
    "expectation",
    "generate_epr_b",
    "is_consistently_connected",
    "marginal",
    "maximal_coupling_diagonal",
    "maximal_coupling_full",
    "minimize",
    "outcome_space",
    "parse_layout",
    "parse_system",
    "parse_trials",
    "product_expectation",
    "rank2_family",
    "rational_rank",
    "s_odd",
    "serialize_system",
    "solve_feasibility",
    "uniform",
    "validate_system",
    "verify_quasi_coupling",
]
