"""Exact best response of one player against fixed opponents.

Once the opponents' marginal tables are frozen, a player faces an ordinary
finite-horizon Markov decision problem on their own chain: the stage reward
at (s, a) is the valued payoff averaged over opponent tuples with the
player's weighting applied to each tuple's joint probability, discounting
folded in.  Backward induction then yields an optimal deterministic Markov
policy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criterion import _check_marginal_tables, _stage_terms
from .game import ValidatedGame
from .marginals import DeterministicMarkovPolicy

__all__ = [
    "StageRewardTable",
    "BestResponseResult",
    "induced_stage_rewards",
    "backward_induction",
]


@dataclass(frozen=True)
class StageRewardTable:
    """Discounted one-player stage rewards induced by fixed opponents.

    ``rewards`` has shape (horizon, states, actions); the stage-t entry
    already carries beta**(t-1), so downstream recursions must not discount
    again.
    """

    player: int
    rewards: np.ndarray

    @property
    def horizon(self) -> int:
        return self.rewards.shape[0]


@dataclass(frozen=True)
class BestResponseResult:
    """Optimal deterministic Markov policy, its value from the start state,
    and the optimal continuation value of every (stage, state)."""

    policy: DeterministicMarkovPolicy
    value: float
    stage_state_values: np.ndarray


def induced_stage_rewards(
    game: ValidatedGame, player: int, marginals, horizon: int
) -> StageRewardTable:
    """Collapse the opponents out of the payoff: for stages 1..``horizon``,

        reward_t(s, a) = beta**(t-1) * sum_opp w(prod opp mass) * v(payoff)

    ``marginals`` is indexed by player; the entry at ``player`` is ignored
    (it may be None), everything else must cover the horizon.
    """
    if not 0 <= player < game.n:
        raise ValueError(f"player index {player} outside 0..{game.n - 1}")
    _check_marginal_tables(game, marginals, horizon, skip=player)
    tables = [
        None if j == player else table.probs[np.newaxis] for j, table in enumerate(marginals)
    ]
    spec = game.players[player]
    rewards = _stage_terms(game, player, tables, horizon)[0][0].reshape(
        horizon, spec.state_count, spec.action_count
    )
    return StageRewardTable(player=player, rewards=rewards)


def backward_induction(
    game: ValidatedGame,
    player: int,
    rewards: StageRewardTable,
    initial_state: int,
    horizon: int | None = None,
) -> BestResponseResult:
    """Optimal deterministic Markov policy for the player's finite-horizon
    decision problem under ``rewards`` (discounting already folded in there).

    The recursion maximizes reward-to-go stage by stage from the last stage
    backwards; ties pick the lowest action index, making the result unique
    and reproducible.
    """
    if rewards.player != player:
        raise ValueError(
            f"reward table belongs to player {rewards.player}, expected {player}"
        )
    m = rewards.horizon if horizon is None else horizon
    if m < 1:
        raise ValueError(f"horizon must be >= 1, got {m}")
    if rewards.horizon < m:
        raise ValueError(
            f"reward table covers {rewards.horizon} stages, horizon {m} requested"
        )
    spec = game.players[player]
    S, A = spec.state_count, spec.action_count
    if rewards.rewards.shape[1:] != (S, A):
        raise ValueError(
            f"reward table has sizes {rewards.rewards.shape[1:]}, game declares ({S}, {A})"
        )
    if not 0 <= initial_state < S:
        raise ValueError(f"initial state {initial_state} outside 0..{S - 1}")
    values, choice = _backward(game, player, rewards.rewards[np.newaxis, :m])
    policy = DeterministicMarkovPolicy(player=player, choice=choice[0], action_count=A)
    return BestResponseResult(
        policy=policy,
        value=float(values[0, 0, initial_state]),
        stage_state_values=values[0],
    )


def _backward(game: ValidatedGame, player: int, q: np.ndarray):
    """Optimal values and optimal actions, each of shape (rows, horizon, S),
    for a block of discounted stage rewards ``q`` (rows, horizon, S, A) of
    one player; unchecked.

    From the last stage backwards, an action's reward-to-go is its reward
    plus the expected optimal value of the next stage; the optimal action is
    the lowest-index maximizer.
    """
    rows, m, S, _ = q.shape
    values = np.empty((rows, m, S))
    choice = np.empty((rows, m, S), dtype=int)
    for k in range(m - 1, -1, -1):
        to_go = q[:, k]
        if k < m - 1:
            to_go = to_go + np.einsum("sap,bp->bsa", game.kernel(player, k), best)
        choice[:, k] = to_go.argmax(axis=2)
        best = values[:, k] = to_go.max(axis=2)
    return values, choice
