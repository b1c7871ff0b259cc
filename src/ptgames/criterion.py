"""Distorted discounted value of a strategy profile, and how far to look.

The value a player assigns to a profile is a discounted sum over stages: at
each stage the player's own (state, action) mass multiplies the valued
payoff, and each joint opponent (state, action) tuple enters through the
player's weighting function applied once to the product of the opponents'
marginal probabilities.  Because the chains are independent, the whole
objective is a function of the per-player marginal tables alone and is
linear in the player's own table.

Discounting makes the infinite sum approximable by a finite one.  The
target accuracy splits into ``_EPSILON_SHARES`` equal shares: one is each
player's deviation allowance, and ``truncation_horizon`` returns the stage
count whose tail bound is within another.  ``truncation_error_bound``
exposes the bound itself, and ``lipschitz_delta`` converts the same kind of
bound into a simplex grid step fine enough for grid search (only available
when every weighting function is Lipschitz, which rules out prelec).
``_weight_mass`` bounds a stage's weight sum by Jensen's inequality, and
``_continuation_spread`` turns it into how far the stages after the first
can move a value, with a rounding margin.  The search's stage-1 screen is
the certification pass (``search._evaluate``) at horizon 1 on the start
game, the game restricted to the start states: it subtracts the spread
from each player's stage-1 gap and adds the margin to the cutoff it
compares that bound with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import ValidatedGame
from .marginals import _check_tables

__all__ = [
    "PTPayoffReport",
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


# The one home of the epsilon split: the deviation allowance is one share,
# and the tails of the profile's and the best response's values one each.
_EPSILON_SHARES = 3.0


def _deviation_allowance(epsilon: float) -> float:
    """The most a player may gain by deviating in a passing profile."""
    return epsilon / _EPSILON_SHARES


def _check_epsilon(epsilon: float) -> None:
    """The one accuracy rule: epsilon is a positive, finite number.  The
    message starts with the field name, which callers may prefix."""
    if isinstance(epsilon, bool) or not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon: must be positive and finite, got {epsilon}")


def _stage_terms(game: ValidatedGame, player: int, tables, horizon: int):
    """Discounted induced stage rewards, shape (rows, horizon, S*A), and the
    player's discounted stage contributions, shape (rows, horizon), for a
    block of ``rows`` profiles given as marginal tables per player, each of
    shape (rows, >= horizon, S, A); unchecked.

    The player's own table may be None (no contributions then).  Each stage
    applies the weighting once to the joint probability of every opponent
    tuple, a product of one factor per opponent, players ascending with the
    last varying fastest: the column order of ``valued_payoffs``.  Rewards
    and values run as one matrix-vector product per row, whose rounding
    does not depend on the row's position in the block, so every row
    matches a block of one.
    """
    own = tables[player]
    rows = next((len(t) for t in tables if t is not None), 1)
    rewards = np.empty((rows, horizon, game.pair_count(player)))
    contributions = None if own is None else np.empty((rows, horizon))
    discount = 1.0
    for k in range(horizon):
        factors = [table[:, k].reshape(rows, -1) for j, table in enumerate(tables) if j != player]
        # the first factor stands for 1 times itself, which is exact
        tuples = factors[0] if factors else np.ones((rows, 1))
        for factor in factors[1:]:
            tuples = (tuples[:, :, np.newaxis] * factor[:, np.newaxis, :]).reshape(rows, -1)
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
    _check_tables(game, marginals, horizon)
    tables = [table.probs[np.newaxis] for table in marginals]
    contributions = np.array(
        [_stage_terms(game, i, tables, horizon)[1][0] for i in range(game.n)]
    )
    return PTPayoffReport(
        horizon=horizon,
        values=contributions.sum(axis=1),
        stage_contributions=contributions,
    )


def truncation_horizon(epsilon: float, game: ValidatedGame) -> int:
    """Smallest stage count (floored at 1) whose tail bound is at most one
    share of ``epsilon``, the deviation allowance, for every player.

    Players whose payoffs value to zero everywhere put no constraint on the
    horizon; if that is all of them, any horizon works and 1 is returned.
    """
    _check_epsilon(epsilon)
    return _horizon(game, math.log(epsilon))


def _joint_pair_count(game: ValidatedGame) -> int:
    """The joint (state, action) count: the one factor of every tail bound."""
    return game.joint_state_count * game.joint_action_count


def _horizon(game: ValidatedGame, log_epsilon: float) -> int:
    """Smallest stage count (floored at 1) whose tail bound is at most one
    share of exp(``log_epsilon``) for every player.  The tail bound is
    inverted in log space, so an epsilon whose allowance underflows a float
    still gets its horizon."""
    beta = game.discount_beta
    sizes = _joint_pair_count(game)
    log_allowance = math.log((1.0 - beta) / _EPSILON_SHARES) + log_epsilon
    worst = 1
    for bound in game.value_bounds:
        if bound > 0.0:
            ratio = (log_allowance - math.log(bound) - math.log(sizes)) / math.log(beta)
            worst = max(worst, math.ceil(ratio))
    return worst


def _weight_line(weighting, tuples: int) -> tuple:
    """A line ``(a, b)``, p -> a + b*p, lying above ``weighting`` on [0, 1]
    and touching its least concave majorant at 1/``tuples`` where it can.

    ``identity`` is its own line.  ``power_complement`` is concave, so its
    tangent at 1/``tuples`` lies above it.  ``table`` takes the segment of
    its knots' upper hull over 1/``tuples``.  ``prelec`` is concave below
    1/e and convex above (Prelec 1998): the tangent at 1/``tuples`` lies
    above it when that point is at most 1/e and the tangent passes at or
    above (1, 1).  Otherwise a line through (1, 1) stays above it when its
    slope is at most that of the tangent from (1, 1), which touches at p*;
    the tangent slope at any point of [p*, 1/e] qualifies, and bisection
    finds one.
    """
    p0 = 1.0 / tuples
    kind, alpha = weighting.kind, weighting.alpha
    if kind == "identity":
        return 0.0, 1.0
    if kind == "power_complement":
        slope = alpha * (1.0 - p0) ** (alpha - 1.0)
        return 1.0 - (1.0 - p0) ** alpha - slope * p0, slope
    if kind == "table":
        hull = []
        for point in zip(weighting.knots_y, weighting.knots_w):
            # pop the last vertex while it lies on or below the chord to point
            while len(hull) > 1 and (
                (hull[-1][0] - hull[-2][0]) * (point[1] - hull[-2][1])
                >= (hull[-1][1] - hull[-2][1]) * (point[0] - hull[-2][0])
            ):
                hull.pop()
            hull.append(point)
        (y0, w0), (y1, w1) = next((a, b) for a, b in zip(hull, hull[1:]) if p0 <= b[0])
        slope = (w1 - w0) / (y1 - y0)
        return w0 - slope * y0, slope

    def tangent(log_inverse):
        # w(p) and w'(p) = alpha * L**(alpha - 1) * exp(L - L**alpha) at p = exp(-L)
        power = log_inverse**alpha
        return math.exp(-power), alpha * power / log_inverse * math.exp(log_inverse - power)

    if p0 <= 1.0 / math.e:
        value, slope = tangent(math.log(tuples))
        if value + slope * (1.0 - p0) >= 1.0:
            return value - slope * p0, slope
    # bisect L = -ln p on [1, 700] (exp(L) stays finite) keeping p >= p* at
    # ``low``, where the tangent passes at or below (1, 1)
    low, high = 1.0, 700.0
    for _ in range(60):
        middle = 0.5 * (low + high)
        value, slope = tangent(middle)
        if value + slope * (1.0 - math.exp(-middle)) <= 1.0:
            low = middle
        else:
            high = middle
    slope = tangent(low)[1]
    return 1.0 - slope, slope


def _weight_mass(weighting, tuples: int) -> float:
    """Bound on the sum of ``weighting`` over ``tuples`` probabilities that
    sum to 1: by Jensen, ``tuples`` * a + b for the line of
    :func:`_weight_line`, which is ``tuples`` times the least concave
    majorant at 1/``tuples`` where the line touches it."""
    intercept, slope = _weight_line(weighting, tuples)
    return tuples * intercept + slope


# Rounding margin of the search's stage-1 screen, per rounding of
# u = 2**-53.  Player i's screened bound is max_a q1(a) - sigma.q1 - D_i;
# the gap that the certification pass computes is best - value.  Each of
# these four terms is a float sum of products.  Take
# m_i = horizon * (K_i + S_i*A_i + n + 16) as the most roundings on any
# chain from the tuple probabilities to a term: n - 1 tuple products, a few
# in the weighting, one per term of the dot products over the K_i opponent
# tuples and the S_i*A_i own pairs, and per stage the discount, the stage
# sum and the backward recursion's expectation.  The screen is
# ``_stage_terms`` at horizon 1, on the game restricted to the start
# states, so it weighs the same tuple probabilities.  The classic
# bound puts each term within 1.01 * m_i * u * scale_i of its exact value
# for the computed weights, where scale_i bounds the sum of its absolute
# parts.  The rounded weights can sum above M_i by a few u per tuple, which
# widens D_i by less than that bound again.  The four terms err by at most
# 4.04 * m_i * u * scale_i together.  The margin, 8 * m_i * u * scale_i,
# leaves room for that widening, the subtraction, the comparison and the
# float M_i, so a dropped row's computed gap is at least the cutoff.
_SCREEN_ROUNDING = 8 * 2.0**-53


def _continuation_spread(game: ValidatedGame, horizon: int):
    """Per-player ``(spread, margin)`` arrays of a truncated value, stage 1 fixed.

    ``spread[i]`` bounds how far stages 2..``horizon`` of player i's value
    can move when only the player's own strategy changes: at each stage the
    opponents' weights are the same for every own (state, action), so two
    own marginal tables differ there by at most the largest column spread
    of ``valued_payoffs[i]`` times the weight mass (``_weight_mass`` over
    the opponent tuples), discounted.  ``margin[i]`` is ``_SCREEN_ROUNDING``
    times the chain m_i times scale_i (the value bound times the weight mass,
    discounted).  Both are Python floats until the end, so an infinite mass
    gives infinities or NaN, never a warning.
    """
    beta = game.discount_beta
    later = sum(beta**k for k in range(1, horizon))
    spread, margin = [], []
    for i, p in enumerate(game.players):
        columns = float(np.ptp(game.valued_payoffs[i], axis=0).max())
        mass = _weight_mass(p.weighting, game.opponent_pair_count(i))
        spread.append(columns * mass * later)
        scale = float(game.value_bounds[i]) * mass * (1.0 + later)
        chain = horizon * (game.opponent_pair_count(i) + game.pair_count(i) + game.n + 16)
        margin.append(_SCREEN_ROUNDING * chain * scale)
    return np.array(spread), np.array(margin)


def truncation_error_bound(game: ValidatedGame, horizon: int) -> np.ndarray:
    """Per-player bound on |full value - value truncated after ``horizon``|:
    geometric tail of the worst valued payoff over the whole product space."""
    _check_tables(game, horizon=horizon)
    beta = game.discount_beta
    sizes = _joint_pair_count(game)
    return np.array(game.value_bounds) * sizes * beta**horizon / (1.0 - beta)


def lipschitz_delta(epsilon: float, game: ValidatedGame):
    """Simplex grid step guaranteeing some grid profile is close enough in
    value to any profile, together with the horizon used in its derivation.

    Returns ``(delta, horizon)``; the horizon is the truncation horizon for
    ``epsilon``/2.  Requires every player's weighting function to be
    Lipschitz; the step uses the largest constant, at least 1.  Prelec
    weightings with exponent below 1 are rejected because their slope is
    unbounded.  Degenerate games whose payoffs value to zero everywhere admit
    any grid, and step 1 is returned for them.  Raises ValueError when the
    step is too small for a float.
    """
    _check_epsilon(epsilon)
    constants = [p.weighting.lipschitz_constant for p in game.players]
    for i, (p, constant) in enumerate(zip(game.players, constants)):
        if constant is None:
            raise ValueError(
                f"weighting of player {i} ({p.weighting.kind}) is not Lipschitz, "
                "so no lattice step is guaranteed fine enough"
            )
    lipschitz_bound = max(1.0, *constants)
    horizon = _horizon(game, math.log(epsilon) - math.log(2.0))
    worst = float(np.max(game.value_bounds))
    if worst <= 0.0:
        return 1.0, horizon
    beta = game.discount_beta
    sizes = _joint_pair_count(game)
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
