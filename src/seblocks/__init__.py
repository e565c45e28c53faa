"""Exactly distribution-free two-sample tests via statistically
equivalent blocks: multivariate block partitioning, exact combinatorial
null distributions, tests of block-frequency statistics, and a
reproducible Monte Carlo power harness."""

from .partition import (
    BlockFrequencies,
    CutRule,
    Direction,
    FittedPartition,
    PartitionPlan,
    PlanLabel,
    Sample,
    TieError,
    assign_block,
    block_frequencies,
    fit_partition,
    make_plan,
    make_spiral_plan,
    make_stairstep_plan,
    make_univariate_plan,
)
from .nulldist import (
    CapacityError,
    EmpiricalNull,
    FrequencyEnumeration,
    JointPmf,
    NormalNull,
    Pmf,
    dixon_c2_null,
    dixon_statistic,
    empty_block_pmf,
    enumerate_frequency_vectors,
    enumeration_cap,
    interior_exterior_empty_pmf,
    joint_block_pmf,
    linear_rank_null,
    maximal_block_pmf,
    precedence_pmf,
    runs_pmf,
)
from .twosample import (
    IndicatorVector,
    RandomizedDecision,
    RejectionRule,
    ScoreFamily,
    ScoreVector,
    TestResult,
    build_indicator_vector,
    block_test,
    build_rejection_rule,
    dixon_c2_test,
    empty_block_test,
    expected_normal_order_scores,
    frequencies_from_indicator,
    linear_rank_test,
    make_scores,
    mann_whitney_u,
    maximal_block_test,
    precedence_test,
    randomized_decision,
    runs_statistic,
    runs_test,
)
from .simulate import (
    NULL_CASE,
    CoverageDiagnostic,
    PowerEstimate,
    ScenarioSpec,
    TestConfig,
    UniformityReport,
    ar_covariance,
    coverage_diagnostic,
    frequency_uniformity_check,
    generate_scenario,
    run_power_study,
)

__version__ = "0.1.0"
