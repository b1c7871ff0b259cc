"""Stage-wise (state, action) occupancy tables of a single player's chain.

Under a Markov strategy started from a fixed state, a player's chain is
summarized stage by stage by the probability of occupying each
(state, action) pair.  These tables are the coordinates in which the
discounted objective becomes linear in the player's own behavior, and they
are characterized exactly by two families of linear constraints:

* stage 1 puts all action mass on the start state (Dirac constraint), and
* each later stage's state mass equals the previous stage's mass pushed
  through the transition kernel (flow constraint).

``forward_marginals`` builds the tables from a strategy,
``check_flow_constraints`` verifies membership of an arbitrary table, and
``strategy_from_marginals`` inverts the construction (uniform on states that
carry no mass).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .game import ValidatedGame

__all__ = [
    "MarkovStrategy",
    "DeterministicMarkovPolicy",
    "MarginalTable",
    "FlowViolation",
    "forward_marginals",
    "check_flow_constraints",
    "strategy_from_marginals",
    "dm_policy_to_strategy",
]

_DIST_TOL = 1e-12
FLOW_TOL = 1e-9


def _distribution_problem(dist: np.ndarray):
    """Why the rows along the last axis of ``dist`` are not all probability
    distributions, as ``(reason, index of the row)``; None when they are.

    A row must hold finite, nonnegative entries summing to 1 within 1e-12.
    Non-finite entries are reported first (NaN passes every comparison),
    then negative ones, then the row whose sum is furthest off.
    """
    for bad, reason in ((~np.isfinite(dist), "non-finite"), (dist < 0.0, "negative")):
        rows = np.any(bad, axis=-1)
        if np.any(rows):
            row = np.unravel_index(np.argmax(rows), rows.shape)
            return f"{reason} probability {dist[row][bad[row]][0]:.12g}", row
    error = np.abs(dist.sum(axis=-1) - 1.0)
    if np.any(error > _DIST_TOL):
        row = np.unravel_index(np.argmax(error), error.shape)
        return f"action distribution sums to {dist[row].sum():.12g}", row
    return None


@dataclass(frozen=True)
class MarkovStrategy:
    """Randomized Markov strategy of one player over a finite stage range.

    ``dist`` has shape (horizon, states, actions); ``dist[k, s]`` is the
    action distribution played at stage k+1 in state s.  Every row must be a
    probability distribution (checked on construction).
    """

    player: int
    dist: np.ndarray

    def __post_init__(self):
        arr = np.array(self.dist, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"strategy needs shape (horizon, S, A), got {arr.shape}")
        problem = _distribution_problem(arr)
        if problem is not None:
            reason, (t, s) = problem
            raise ValueError(f"{reason} at (t={t + 1}, s={s})")
        arr.setflags(write=False)
        object.__setattr__(self, "dist", arr)

    @property
    def horizon(self) -> int:
        return self.dist.shape[0]

    @property
    def state_count(self) -> int:
        return self.dist.shape[1]

    @property
    def action_count(self) -> int:
        return self.dist.shape[2]


@dataclass(frozen=True)
class DeterministicMarkovPolicy:
    """Markov strategy that picks exactly one action per (stage, state).

    ``choice`` has shape (horizon, states) and holds action indices.
    """

    player: int
    choice: np.ndarray
    action_count: int

    def __post_init__(self):
        arr = np.array(self.choice, dtype=int)
        if arr.ndim != 2:
            raise ValueError(f"policy needs shape (horizon, S), got {arr.shape}")
        if self.action_count < 1:
            raise ValueError("action_count must be positive")
        if np.any(arr < 0) or np.any(arr >= self.action_count):
            raise ValueError(
                f"policy chooses actions outside 0..{self.action_count - 1}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "choice", arr)

    @property
    def horizon(self) -> int:
        return self.choice.shape[0]


@dataclass(frozen=True)
class MarginalTable:
    """Per-stage (state, action) occupancy probabilities of one player.

    ``probs`` has shape (horizon, states, actions).  Construction only checks
    shape and nonnegativity so that perturbed tables can be fed to
    :func:`check_flow_constraints`; realizability is exactly the absence of
    flow violations.
    """

    player: int
    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"marginal table needs shape (horizon, S, A), got {arr.shape}")
        if np.any(arr < -_DIST_TOL):
            raise ValueError("marginal table contains negative probabilities")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def horizon(self) -> int:
        return self.probs.shape[0]

    @property
    def state_count(self) -> int:
        return self.probs.shape[1]

    @property
    def action_count(self) -> int:
        return self.probs.shape[2]


class FlowViolation(NamedTuple):
    """One broken marginal constraint; ``stage`` is 1-based and ``residual``
    is (actual row mass) - (required row mass)."""

    stage: int
    state: int
    residual: float


def _check_player_dims(game: ValidatedGame, player: int, state_count: int, action_count: int):
    if not 0 <= player < game.n:
        raise ValueError(f"player index {player} outside 0..{game.n - 1}")
    spec = game.players[player]
    if (state_count, action_count) != (spec.state_count, spec.action_count):
        raise ValueError(
            f"table of player {player} has sizes ({state_count}, {action_count}), "
            f"game declares ({spec.state_count}, {spec.action_count})"
        )


def forward_marginals(
    game: ValidatedGame,
    strategy: MarkovStrategy,
    initial_state: int,
    horizon: int,
) -> MarginalTable:
    """Propagate ``strategy`` from a deterministic start state through the
    player's own kernel, collecting the (state, action) occupancy of stages
    1..``horizon``.
    """
    _check_strategy(game, strategy, initial_state, horizon)
    probs = _propagate(game, strategy.player, strategy.dist[np.newaxis], initial_state, horizon)
    return MarginalTable(player=strategy.player, probs=probs[0])


def _check_strategy(game: ValidatedGame, strategy: MarkovStrategy, initial_state: int, horizon: int):
    """Reject a strategy that does not fit its player's chain, start state
    and ``horizon``: what :func:`_propagate` takes on trust."""
    _check_player_dims(game, strategy.player, strategy.state_count, strategy.action_count)
    if not 0 <= initial_state < strategy.state_count:
        raise ValueError(f"initial state {initial_state} outside 0..{strategy.state_count - 1}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if strategy.horizon < horizon:
        raise ValueError(
            f"strategy covers {strategy.horizon} stages, horizon {horizon} requested"
        )


def _propagate(
    game: ValidatedGame, player: int, dist: np.ndarray, initial_state: int, horizon: int
) -> np.ndarray:
    """Stage occupancy tables, shape (rows, horizon, S, A), of a block of
    strategies ``dist`` (rows, >= horizon, S, A) of one player, unchecked.

    Stage 1 is the start state's action distribution; afterwards the state
    mass is pushed through the kernel and multiplied by the next stage's
    action distributions.
    """
    probs = np.zeros((len(dist), horizon) + dist.shape[2:])
    probs[:, 0, initial_state] = dist[:, 0, initial_state]
    for k in range(horizon - 1):
        mass = np.einsum("bsa,sap->bp", probs[:, k], game.kernel(player, k))
        probs[:, k + 1] = mass[:, :, np.newaxis] * dist[:, k + 1]
    return probs


def check_flow_constraints(
    game: ValidatedGame,
    table: MarginalTable,
    initial_state: int,
    tolerance: float = FLOW_TOL,
) -> list:
    """Return every broken constraint of ``table``; an empty list means the
    table is realizable by some Markov strategy started at ``initial_state``.

    The residuals are recomputed from the table's own entries and the kernel,
    independently of how the table was produced.
    """
    i = table.player
    _check_player_dims(game, i, table.state_count, table.action_count)
    S = table.state_count
    if not 0 <= initial_state < S:
        raise ValueError(f"initial state {initial_state} outside 0..{S - 1}")
    violations = []
    row_mass = table.probs.sum(axis=2)
    required = np.zeros(S)
    required[initial_state] = 1.0
    for k in range(table.horizon):
        residual = row_mass[k] - required
        for s in np.flatnonzero(np.abs(residual) > tolerance):
            violations.append(FlowViolation(stage=k + 1, state=int(s), residual=float(residual[s])))
        required = np.einsum("sa,sap->p", table.probs[k], game.kernel(i, k))
    return violations


def strategy_from_marginals(table: MarginalTable) -> MarkovStrategy:
    """Recover the Markov strategy that generates ``table``: conditional
    action probabilities where a state carries mass, uniform where it does
    not (the choice there never influences the chain)."""
    probs = table.probs
    if np.any(probs < 0.0):
        raise ValueError("marginal table contains negative probabilities")
    A = table.action_count
    row_mass = probs.sum(axis=2, keepdims=True)
    uniform = np.full_like(probs, 1.0 / A)
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = np.where(row_mass > 0.0, probs / row_mass, uniform)
    return MarkovStrategy(player=table.player, dist=dist)


def dm_policy_to_strategy(policy: DeterministicMarkovPolicy) -> MarkovStrategy:
    """Embed a deterministic policy as point-mass action distributions."""
    m, S = policy.choice.shape
    dist = np.zeros((m, S, policy.action_count))
    stages, states = np.indices((m, S))
    dist[stages, states, policy.choice] = 1.0
    return MarkovStrategy(player=policy.player, dist=dist)
