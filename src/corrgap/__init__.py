"""Desk-scale laboratory for correlation-robust expectations of set functions:
exact worst-case scenario LPs with dual certificates, correlation gaps against
the independent distribution, cost-sharing certification, element splitting,
and welfare-maximisation consequences, all on exactly solvable instances."""

from .core import (
    CoverageMax,
    FacilityLocationCost,
    Instance,
    SetFunction,
    SizeCapError,
    TableFunction,
    TwoStageFlow,
    ValidationError,
    function_from_json,
    is_monotone,
    is_submodular,
    is_supermodular,
)
from .cost_sharing import (
    CertificationResult,
    CostShareScheme,
    certify,
    incremental_scheme,
    lift_scheme,
    partial_prefix_cross_monotone,
)
from .distributions import (
    MCEstimate,
    ScenarioDistribution,
    independent_expectation_exact,
    independent_expectation_mc,
)
from .gap import GAP_BOUND_CONSTANT, GapReport, correlation_gap, theoretical_bound
from .robust import (
    Decision,
    DecisionSpace,
    RobustSolveReport,
    approximation_ratio,
    evaluate_g,
)
from .split import (
    SplitMap,
    split_instance,
    verify_split_properties,
)
from .welfare import (
    WelfareReport,
    rounding_value,
    welfare_ip_optimum,
    welfare_report,
    welfare_upper_bound,
)
from .worst_case import (
    SimplexStallError,
    SimplexStats,
    WorstCaseResult,
    supermodular_worst_case,
    verify_certificate,
    worst_case_lp,
)

__version__ = "0.1.0"
