"""Distorted discounted value of a strategy profile, and how far to look.

The value a player assigns to a profile is a discounted sum over stages: at
each stage the player's own (state, action) mass multiplies the valued
payoff, and each joint opponent (state, action) tuple enters through the
player's weighting function applied once to the product of the opponents'
marginal probabilities.  Because the chains are independent, the whole
objective is a function of the per-player marginal tables alone and is
linear in the player's own table.

Discounting makes the infinite sum approximable by a finite one:
``truncation_horizon`` returns the stage count whose tail bound is below a
third of the target accuracy, ``truncation_error_bound`` exposes the bound
itself, and ``lipschitz_delta`` converts the same kind of bound into a
simplex grid step fine enough for grid search (only available when every
weighting function is Lipschitz, which rules out prelec).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import ValidatedGame

__all__ = [
    "PTPayoffReport",
    "TruncationParams",
    "pt_payoff",
    "truncation_horizon",
    "truncation_error_bound",
    "lipschitz_delta",
]


@dataclass(frozen=True)
class PTPayoffReport:
    """Truncated distorted values of every player under one profile.

    ``values[i]`` is the sum of ``stage_contributions[i]``, which keep the
    discount factored in (stage t contributes with weight beta**(t-1)).
    """

    horizon: int
    values: np.ndarray
    stage_contributions: np.ndarray

    def value(self, player: int) -> float:
        return float(self.values[player])


@dataclass(frozen=True)
class TruncationParams:
    """Horizon certified to approximate the infinite sum within epsilon/3.

    ``value_bounds[i]`` is the exact maximum of |v_i(r_i)| used in the tail
    bound; the horizon is floored at 1 (stage counts below 1 are meaningless
    even when the bound would allow them).
    """

    epsilon: float
    horizon: int
    value_bounds: np.ndarray


def _check_marginal_tables(game: ValidatedGame, marginals, horizon: int, skip: int = -1):
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if len(marginals) != game.n:
        raise ValueError(
            f"need one marginal table per player ({game.n}), got {len(marginals)}"
        )
    for j, table in enumerate(marginals):
        if j == skip:
            continue
        if table is None:
            raise ValueError(f"marginal table for player {j} is missing")
        if table.player != j:
            raise ValueError(
                f"marginal table at position {j} belongs to player {table.player}"
            )
        spec = game.players[j]
        if (table.state_count, table.action_count) != (spec.state_count, spec.action_count):
            raise ValueError(
                f"marginal table of player {j} has sizes "
                f"({table.state_count}, {table.action_count}), game declares "
                f"({spec.state_count}, {spec.action_count})"
            )
        if table.horizon < horizon:
            raise ValueError(
                f"marginal table of player {j} covers {table.horizon} stages, "
                f"horizon {horizon} requested"
            )


def _check_epsilon(epsilon: float) -> None:
    """The one accuracy rule: epsilon is a positive, finite number.  The
    message starts with the field name, which callers may prefix."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon: must be positive and finite, got {epsilon}")


def _stage_terms(game: ValidatedGame, player: int, tables, horizon: int):
    """Discounted induced stage rewards, shape (rows, horizon, S*A), and the
    player's discounted stage contributions, shape (rows, horizon), for a
    block of ``rows`` profiles given as marginal tables per player, each of
    shape (rows, >= horizon, S, A); unchecked.

    The player's own table may be None (no contributions then).  Each stage
    applies the weighting once to the joint probability of every opponent
    tuple, ordered players-ascending then (state, action) lexicographic like
    the columns of the valued payoff matrix.  Rewards and values run as one
    matrix-vector product per row, whose rounding does not depend on the
    row's position in the block, so every row matches a block of one.
    """
    own = tables[player]
    rows = next((len(t) for t in tables if t is not None), 1)
    rewards = np.empty((rows, horizon, game.pair_count(player)))
    contributions = None if own is None else np.empty((rows, horizon))
    discount = 1.0
    for k in range(horizon):
        tuples = np.ones((rows, 1))
        for j, table in enumerate(tables):
            if j != player:
                tuples = (tuples[:, :, np.newaxis] * table[:, k].reshape(rows, 1, -1)).reshape(rows, -1)
        weights = game.players[player].weighting(tuples)
        payoff = game.valued_payoffs[player] @ weights[:, :, np.newaxis]
        rewards[:, k] = discount * payoff[:, :, 0]
        if own is not None:
            contributions[:, k] = discount * (own[:, k].reshape(rows, 1, -1) @ payoff)[:, 0, 0]
        discount *= game.discount_beta
    return rewards, contributions


def pt_payoff(game: ValidatedGame, marginals, horizon: int) -> PTPayoffReport:
    """Truncated distorted discounted value of every player.

    ``marginals`` holds one :class:`~ptgames.marginals.MarginalTable` per
    player (covering at least ``horizon`` stages).  Stage t contributes

        beta**(t-1) * sum_own own_mass * sum_opp w(prod opp mass) * v(payoff)

    for each player; the per-stage pieces are kept in the report.
    """
    _check_marginal_tables(game, marginals, horizon)
    tables = [table.probs[np.newaxis] for table in marginals]
    contributions = np.array(
        [_stage_terms(game, i, tables, horizon)[1][0] for i in range(game.n)]
    )
    return PTPayoffReport(
        horizon=horizon,
        values=contributions.sum(axis=1),
        stage_contributions=contributions,
    )


def truncation_horizon(epsilon: float, game: ValidatedGame) -> TruncationParams:
    """Smallest stage count (floored at 1) whose stated tail bound is at most
    ``epsilon``/3 for every player.

    Players whose payoffs value to zero everywhere put no constraint on the
    horizon; if that is all of them, any horizon works and 1 is returned.
    """
    _check_epsilon(epsilon)
    beta = game.discount_beta
    sizes = game.joint_state_count * game.joint_action_count
    worst = 1
    for bound in game.value_bounds:
        if bound <= 0.0:
            continue
        ratio = math.log((1.0 - beta) * epsilon / (3.0 * bound * sizes)) / math.log(beta)
        worst = max(worst, math.ceil(ratio))
    return TruncationParams(
        epsilon=epsilon, horizon=worst, value_bounds=np.array(game.value_bounds)
    )


def truncation_error_bound(game: ValidatedGame, horizon: int) -> np.ndarray:
    """Per-player bound on |full value - value truncated after ``horizon``|:
    geometric tail of the worst valued payoff over the whole product space."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    beta = game.discount_beta
    sizes = game.joint_state_count * game.joint_action_count
    return np.array(game.value_bounds) * sizes * beta**horizon / (1.0 - beta)


def lipschitz_delta(epsilon: float, game: ValidatedGame, lipschitz_bound: float | None = None):
    """Simplex grid step guaranteeing some grid profile is close enough in
    value to any profile, together with the horizon used in its derivation.

    Returns ``(delta, horizon)``; the horizon is the truncation horizon for
    ``epsilon``/2.  Requires every player's weighting function to be
    Lipschitz with constant at most ``lipschitz_bound`` (>= 1; by default
    the largest constant, at least 1); prelec weightings with exponent below
    1 are rejected because their slope is unbounded.  Degenerate games whose
    payoffs value to zero everywhere admit any grid, and step 1 is returned
    for them.  Raises ValueError when the step is too small for a float.
    """
    _check_epsilon(epsilon)
    if lipschitz_bound is not None and lipschitz_bound < 1.0:
        raise ValueError(f"Lipschitz bound must be >= 1, got {lipschitz_bound}")
    constants = [p.weighting.lipschitz_constant for p in game.players]
    for i, (p, constant) in enumerate(zip(game.players, constants)):
        if constant is None:
            raise ValueError(
                f"weighting of player {i} ({p.weighting.kind}) is not Lipschitz; "
                "grid-step bounds do not apply, use sampled search"
            )
        if lipschitz_bound is not None and constant > lipschitz_bound:
            raise ValueError(
                f"weighting of player {i} has Lipschitz constant {constant}, "
                f"exceeding the declared bound {lipschitz_bound}"
            )
    if lipschitz_bound is None:
        lipschitz_bound = max(1.0, *constants)
    horizon = truncation_horizon(epsilon / 2.0, game).horizon
    worst = float(np.max(game.value_bounds))
    if worst <= 0.0:
        return 1.0, horizon
    beta = game.discount_beta
    sizes = game.joint_state_count * game.joint_action_count
    pair_tail = sum(
        (p.state_count * p.action_count) ** horizon for p in game.players
    )
    try:
        delta = (1.0 - beta) * epsilon / (
            6.0 * lipschitz_bound * worst * sizes * horizon * pair_tail
        )
    except OverflowError:
        delta = 0.0
    if delta == 0.0:
        raise ValueError(
            f"grid step is not representable as a float (horizon {horizon})"
        )
    return delta, horizon
