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

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .game import ValidatedGame, _distribution_problem, _is_integer

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

FLOW_TOL = 1e-9


def _check_tables(game, tables=None, horizon=None, initial_state=None, player=None):
    """Raise ValueError at the first rule on player-tagged (stage, state,
    action) tables that the arguments break: the one home of these rules,
    behind every entry point that takes such a table.  Each message starts
    with what failed.

    ``tables`` is one table (a strategy, a marginal table or a reward
    table), or a sequence of one table per player, each at its own position.
    ``player`` is the player the call is about: the one table must be
    theirs, and their entry in a sequence is not read (it may be None).
    ``initial_state`` is the one table's start state, or one per player;
    start states and player indices are integers (``_is_integer``).
    ``horizon`` is an integer, at least 1, and every table must cover it.
    Only the horizon rule runs when ``game`` is None.
    """
    if horizon is not None and not (_is_integer(horizon) and horizon >= 1):
        raise ValueError(f"horizon: must be an integer >= 1, got {horizon}")
    single = isinstance(tables, _PlayerTable)
    if single and player is None:
        player = tables.player
    if player is not None and not (_is_integer(player) and 0 <= player < game.n):
        raise ValueError(f"player index {player} outside 0..{game.n - 1}")
    if single:
        entries = {player: tables}
        starts = {} if initial_state is None else {player: initial_state}
    else:
        if tables is not None and len(tables) != game.n:
            raise ValueError(f"profile: needs one table per player ({game.n}), got {len(tables)}")
        if initial_state is not None and len(initial_state) != game.n:
            raise ValueError(
                f"initial state has {len(initial_state)} components, game has {game.n} players"
            )
        entries = dict(enumerate(tables or ()))
        entries.pop(player, None)
        starts = dict(enumerate(initial_state or ()))
    for j, table in entries.items():
        if table is None:
            raise ValueError(f"player {j}: table is missing")
        # True == 1, so the position alone would let a bool through
        if not (_is_integer(table.player) and table.player == j):
            raise ValueError(f"player {j}: {table.noun} belongs to player {table.player}")
        sizes = (table.state_count, table.action_count)
        declared = (game.players[j].state_count, game.players[j].action_count)
        if sizes != declared:
            raise ValueError(f"player {j}: {table.noun} has sizes {sizes}, game declares {declared}")
        if horizon is not None and table.horizon < horizon:
            raise ValueError(
                f"player {j}: {table.noun} covers {table.horizon} stages, horizon {horizon} requested"
            )
    for j, s in starts.items():
        S = game.players[j].state_count
        if not (_is_integer(s) and 0 <= s < S):
            raise ValueError(f"initial state {s} of player {j} outside 0..{S - 1}")


@dataclass(frozen=True)
class _PlayerTable:
    """One player's (stage, state, action) table: the base of strategies,
    marginal tables and reward tables.

    A subclass declares its array field (the last field), its ``noun``,
    which names the table in messages, and its entry rule, a rule of
    :func:`~ptgames.game._distribution_problem` that its ``__post_init__``
    passes to :meth:`_freeze`.
    """

    player: int

    def _freeze(self, rule: str) -> None:
        """Replace the array field by a read-only float copy, after the
        real-number rule, the shape rule and the entry ``rule``."""
        name = fields(self)[-1].name
        arr = np.array(getattr(self, name))
        # signed, unsigned or floating: a bool, string or complex entry
        # would cast silently or raise numpy's own error
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"{self.noun} must hold real numbers, got {arr.dtype} entries")
        arr = arr.astype(float, copy=False)
        if arr.ndim != 3:
            raise ValueError(f"{self.noun} needs shape (horizon, S, A), got {arr.shape}")
        problem = _distribution_problem(arr, rule)
        if problem is not None:
            reason, (t, s) = problem
            raise ValueError(f"{reason} at (t={t + 1}, s={s})")
        arr.setflags(write=False)
        object.__setattr__(self, name, arr)

    @property
    def _shape(self) -> tuple:
        return getattr(self, fields(self)[-1].name).shape

    @property
    def horizon(self) -> int:
        return self._shape[0]

    @property
    def state_count(self) -> int:
        return self._shape[1]

    @property
    def action_count(self) -> int:
        return self._shape[2]


@dataclass(frozen=True)
class MarkovStrategy(_PlayerTable):
    """Randomized Markov strategy of one player over a finite stage range.

    ``dist`` has shape (horizon, states, actions); ``dist[k, s]`` is the
    action distribution played at stage k+1 in state s.  Every row must be a
    probability distribution (checked on construction).
    """

    dist: np.ndarray
    noun = "strategy"

    def __post_init__(self):
        self._freeze("distribution")


@dataclass(frozen=True)
class DeterministicMarkovPolicy:
    """Markov strategy that picks exactly one action per (stage, state).

    ``choice`` has shape (horizon, states) and holds action indices;
    ``player`` and ``action_count`` are integers (``game._is_integer``).
    """

    player: int
    choice: np.ndarray
    action_count: int

    def __post_init__(self):
        for name, low in (("player", 0), ("action_count", 1)):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= low):
                raise ValueError(f"{name}: must be an integer >= {low}, got {value!r}")
        arr = np.array(self.choice)
        # the integer rule of ``game._is_integer``, entry by entry
        if arr.dtype == bool or not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"choice: must hold integer action indices, got {arr.dtype} entries")
        arr = arr.astype(int, copy=False)
        if arr.ndim != 2:
            raise ValueError(f"policy needs shape (horizon, S), got {arr.shape}")
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
class MarginalTable(_PlayerTable):
    """Per-stage (state, action) occupancy probabilities of one player.

    ``probs`` has shape (horizon, states, actions).  Construction only checks
    the shape and that every entry is finite and nonnegative, so that
    perturbed tables can be fed to :func:`check_flow_constraints`;
    realizability is exactly the absence of flow violations.
    """

    probs: np.ndarray
    noun = "marginal table"

    def __post_init__(self):
        self._freeze("nonnegative")


class FlowViolation(NamedTuple):
    """One broken marginal constraint; ``stage`` is 1-based and ``residual``
    is (actual row mass) - (required row mass)."""

    stage: int
    state: int
    residual: float


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
    _check_tables(game, strategy, horizon, initial_state)
    probs = _propagate(game, strategy.player, strategy.dist[np.newaxis], initial_state, horizon)
    return MarginalTable(player=strategy.player, probs=probs[0])


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


def _reachable(game: ValidatedGame, player: int, initial_state: int, horizon: int) -> np.ndarray:
    """Boolean (horizon, S) table: can the player's chain, started at
    ``initial_state``, occupy state s at stage k under some strategy?

    Read from the kernels' support alone: stage 1 holds only the start
    state, and a state is reachable at the next stage when some action at a
    reachable state moves there with positive probability.  Under every
    strategy the other states carry exactly zero mass in ``_propagate``.
    """
    reach = np.zeros((horizon, game.players[player].state_count), dtype=bool)
    reach[0, initial_state] = True
    for k in range(horizon - 1):
        reach[k + 1] = np.any(game.kernel(player, k)[reach[k]] > 0.0, axis=(0, 1))
    return reach


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
    _check_tables(game, table, initial_state=initial_state)
    i, S = table.player, table.state_count
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
