"""Deterministic evolutionary dynamics in binary aggregate games with
persistent payoff heterogeneity: simulation, aggregate equilibria,
distributional stability certificates, and equilibrium selection."""

from .composition import (
    BayesianStrategy,
    TypeGrid,
    aggregate,
    balanced_composition,
    destabilizing_perturbation,
    make_grid,
    min_mass_ratio,
    reversed_composition,
    sorted_composition,
)
from .dynamics import (
    RevisionProtocol,
    Trajectory,
    bounded_power_protocol,
    homogenized_field,
    integrate,
    integrate_homogenized,
    power_protocol,
    standard_protocol,
    vector_field,
)
from .equilibria import (
    EquilibriumReport,
    bayesian_equilibrium,
    find_aggregate_equilibria,
)
from .errors import (
    AnalysisError,
    ConfigError,
    ConstructionError,
    EvodynError,
    InputError,
    IntegrationError,
)
from .flows import (
    EscapeReport,
    SwitchingRateDistribution,
    aggregate_velocity_from_flows,
    bound_trajectory,
    detailed_balance_residual,
    escape_certificate,
    flow_distributions,
    rate_ratio_escape_bound,
    sosd_compare,
    start_sources,
)
from .games import (
    AggregateGame,
    SqrtShiftTypes,
    TruncatedLogisticTypes,
    TypeDistribution,
    UniformTypes,
    affine_game,
    aggregate_best_response,
    best_response,
    linear_coordination_game,
    make_distribution,
)
from .stability import (
    CriticalMassReport,
    RobustnessReport,
    critical_mass_sets,
    is_critical_mass_decrease,
    is_critical_mass_increase,
    risk_dominant_action,
    robustness_threshold,
    select_most_robust,
)

__version__ = "0.1.0"
