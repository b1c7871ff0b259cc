"""Solver for decentralized discounted stochastic games whose players value
outcomes and probabilities through prospect-style distortion functions.

The package computes distorted discounted payoffs from per-player marginal
tables, exact best responses by backward induction, and certified Markov
epsilon-equilibria by grid or sampled search over simplex lattices; a
smart-grid prosumer application ships as a ready-made game builder and the
``ptgames`` command line drives everything from JSON configs.
"""
from .game import (
    GameSpec,
    GameValidationError,
    PlayerSpec,
    TransitionKernel,
    ValidatedGame,
    ValuationFunction,
    WeightingFunction,
    validate_game,
)
from .marginals import (
    DeterministicMarkovPolicy,
    FlowViolation,
    MarginalTable,
    MarkovStrategy,
    check_flow_constraints,
    dm_policy_to_strategy,
    forward_marginals,
    strategy_from_marginals,
)
from .criterion import (
    PTPayoffReport,
    lipschitz_delta,
    pt_payoff,
    truncation_error_bound,
    truncation_horizon,
)
from .best_response import (
    BestResponseResult,
    StageRewardTable,
    backward_induction,
    induced_stage_rewards,
)
from .search import (
    EquilibriumCertificate,
    GridTooLargeError,
    ProfileGrid,
    SearchConfig,
    certify,
    search_equilibrium,
    simplex_grid,
)
from .smartgrid import (
    GenerationDistribution,
    ProsumerSpec,
    build_prosumer_game,
    build_simulation_game,
    demand_of,
    discretize_gaussian,
    fairness_price,
    prosumer_payoff,
    storage_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "GameSpec",
    "GameValidationError",
    "PlayerSpec",
    "TransitionKernel",
    "ValidatedGame",
    "ValuationFunction",
    "WeightingFunction",
    "validate_game",
    "DeterministicMarkovPolicy",
    "FlowViolation",
    "MarginalTable",
    "MarkovStrategy",
    "check_flow_constraints",
    "dm_policy_to_strategy",
    "forward_marginals",
    "strategy_from_marginals",
    "PTPayoffReport",
    "lipschitz_delta",
    "pt_payoff",
    "truncation_error_bound",
    "truncation_horizon",
    "BestResponseResult",
    "StageRewardTable",
    "backward_induction",
    "induced_stage_rewards",
    "EquilibriumCertificate",
    "GridTooLargeError",
    "ProfileGrid",
    "SearchConfig",
    "certify",
    "search_equilibrium",
    "simplex_grid",
    "GenerationDistribution",
    "ProsumerSpec",
    "build_prosumer_game",
    "build_simulation_game",
    "demand_of",
    "discretize_gaussian",
    "fairness_price",
    "prosumer_payoff",
    "storage_kernel",
]
