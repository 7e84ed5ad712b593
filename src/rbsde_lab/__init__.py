"""Numerical laboratory for reflected backward equations on binomial lattices."""

from .bsde import (
    BsdeSolution,
    TerminalCondition,
    conditional_g_expectation,
    g_expectation,
    solve_bsde,
)
from .errors import (
    ConfigError,
    ContractionViolated,
    DepthExceeded,
    ExpressionError,
    InvalidGrid,
    InvalidSample,
    LatticeLabError,
    NoBracket,
    NonConvergence,
    NumericalBreakdown,
    NoStrictGap,
    PositivityViolated,
    ProbabilityOutOfRange,
    RuleOrderViolated,
    TerminalBelowObstacle,
    TreeMismatch,
    UnsupportedTreeMode,
    WitnessConstructionFailed,
)
from .generators import (
    GeneratorSpec,
    SampleSpec,
    lipschitz_bound,
    parse_prefix,
    restrict_generator,
)
from .lattice import (
    AdaptedProcess,
    ScenarioTree,
    StoppingRule,
    TimeGrid,
    TreeMode,
    backward_expectation,
    build_tree,
    conditional_expectation,
    event_probability,
    freeze_after,
    hitting_rule,
    martingale_coefficient,
)
from .market import (
    MarketModel,
    PayoffKind,
    StrikeQuote,
    ThetaRecovery,
    price_american_rbsde,
    price_american_riskneutral_dp,
    price_european_dp,
    price_strike_family,
    quote_strike_family,
    recover_theta,
)
from .rbsde import (
    ObstacleSpec,
    RbsdeSolution,
    enumerate_stopping_oracle,
    exercise_rule,
    reflected_conditional,
    reflected_value,
    snell_oracle,
    solve_rbsde,
)
from .theorems import (
    ClosedFormCase,
    ClosedFormSolution,
    ComparisonReport,
    ConverseProbeReport,
    RbsdeProblem,
    StrictWitness,
    build_dominating_obstacle,
    build_floor_obstacle,
    check_comparison,
    check_k_comparison,
    closed_form_example,
    converse_probe,
    counterexample_batch,
    counterexample_problem,
    incomparable_driver_probe,
    local_strict_witness,
    masked_driver,
    masked_driver_probe,
)

__version__ = "0.1.0"
