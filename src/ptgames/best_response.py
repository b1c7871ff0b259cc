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

from .criterion import _stage_terms
from .game import ValidatedGame
from .marginals import DeterministicMarkovPolicy, _check_tables, _PlayerTable

__all__ = [
    "StageRewardTable",
    "BestResponseResult",
    "induced_stage_rewards",
    "backward_induction",
]


@dataclass(frozen=True)
class StageRewardTable(_PlayerTable):
    """Discounted one-player stage rewards induced by fixed opponents.

    ``rewards`` has shape (horizon, states, actions); the stage-t entry
    already carries beta**(t-1), so downstream recursions must not discount
    again.  Every entry must be finite (checked on construction).
    """

    rewards: np.ndarray
    noun = "reward table"

    def __post_init__(self):
        self._freeze("finite")


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
    _check_tables(game, marginals, horizon, player=player)
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
    m = rewards.horizon if horizon is None else horizon
    _check_tables(game, rewards, m, initial_state, player)
    values, choice = _backward(game, player, rewards.rewards[np.newaxis, :m])
    policy = DeterministicMarkovPolicy(
        player=player, choice=choice[0], action_count=rewards.action_count
    )
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

    The action axis is short (2 actions in the prosumer games), and a numpy
    reduction over a short last axis pays its per-output cost for every
    (row, stage, state), so both results fold over the actions in index
    order instead: ``np.maximum`` gives the bits of ``max``, and the strict
    ``>`` keeps the lowest-index tie, as ``argmax`` does.  The actions are
    picked in one fold over every stage after the recursion, which keeps
    blocks of one or two rows as cheap as the reductions.
    """
    rows, m, S, A = q.shape
    to_go = q.copy()
    values = np.empty((rows, m, S))
    for k in range(m - 1, -1, -1):
        stage = to_go[:, k]
        if k < m - 1:
            stage += np.einsum("sap,bp->bsa", game.kernel(player, k), best)
        best = stage[..., 0]
        for a in range(1, A):
            best = np.maximum(best, stage[..., a])
        values[:, k] = best
    choice = np.zeros((rows, m, S), dtype=int)
    best = to_go[..., 0]
    for a in range(1, A):
        column = to_go[..., a]
        choice[column > best] = a
        if a < A - 1:  # the last action's maximum would never be read
            best = np.maximum(best, column)
    return values, choice
