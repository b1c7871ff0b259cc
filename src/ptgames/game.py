"""Core model for decentralized discounted stochastic games.

Each player owns a finite controlled Markov chain (own states, own actions,
own stage-indexed transition kernel); the players are coupled only through a
joint payoff, a dense table over the product of all state and action spaces.
Payoff outcomes pass through a per-player valuation function and opponents'
probabilities through a per-player weighting function before entering any
discounted objective, so risk attitudes are part of the game description.

``validate_game`` is the single entry point that turns a raw ``GameSpec``
into an immutable ``ValidatedGame`` with every structural invariant checked
and the per-player valued payoff tables cached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "GameValidationError",
    "WeightingFunction",
    "ValuationFunction",
    "TransitionKernel",
    "PlayerSpec",
    "GameSpec",
    "ValidatedGame",
    "validate_game",
]

# Slack for checking that weighting arguments are inside [0, 1]; products of
# near-normalized probabilities can overshoot by a few ulp.
_DOMAIN_SLACK = 1e-9

_ROW_SUM_TOL = 1e-12


class GameValidationError(ValueError):
    """A game description breaks one or more structural invariants.

    ``violations`` holds every broken invariant with indices, not just the
    first one encountered, so a bad hand-written table can be fixed in one
    round.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid game (%d problem%s): %s"
            % (
                len(self.violations),
                "" if len(self.violations) == 1 else "s",
                "; ".join(self.violations),
            )
        )


# ---------- distortion functions ----------


@dataclass(frozen=True)
class WeightingFunction:
    """Probability distortion w mapping [0, 1] onto [0, 1].

    Supported kinds:

    * ``prelec``            -- w(y) = exp(-(-ln y)**alpha) with alpha in
                               (0, 1]; w(0) = 0 by continuous extension.  Not
                               Lipschitz for alpha < 1 (unbounded slope at the
                               endpoints), which matters for grid-step bounds.
    * ``power_complement``  -- w(y) = 1 - (1 - y)**alpha with alpha > 1;
                               globally Lipschitz with constant alpha.
    * ``identity``          -- w(y) = y.
    * ``table``             -- piecewise-linear interpolation through given
                               knots; first knot must be (0, 0), last (1, 1).

    Every kind satisfies w(0) = 0, w(1) = 1, is continuous and stays inside
    [0, 1].
    """

    kind: str
    alpha: float = 1.0
    knots_y: tuple = ()
    knots_w: tuple = ()

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, *self.knots_y, *self.knots_w))):
            raise ValueError("weighting parameters must be finite")
        if self.kind == "prelec":
            if not 0.0 < self.alpha <= 1.0:
                raise ValueError(f"prelec exponent must lie in (0,1], got {self.alpha}")
        elif self.kind == "power_complement":
            if not self.alpha > 1.0:
                raise ValueError(
                    f"power_complement exponent must exceed 1, got {self.alpha}"
                )
        elif self.kind == "table":
            ys, ws = self.knots_y, self.knots_w
            if len(ys) != len(ws) or len(ys) < 2:
                raise ValueError("table weighting needs matching knot arrays (>= 2 knots)")
            if ys[0] != 0.0 or ws[0] != 0.0 or ys[-1] != 1.0 or ws[-1] != 1.0:
                raise ValueError("table weighting must start at (0,0) and end at (1,1)")
            if any(b <= a for a, b in zip(ys, ys[1:])):
                raise ValueError("table weighting knots must have strictly increasing y")
            if any(not 0.0 <= w <= 1.0 for w in ws):
                raise ValueError("table weighting values must lie in [0,1]")
        elif self.kind != "identity":
            raise ValueError(f"unknown weighting kind {self.kind!r}")

    @staticmethod
    def prelec(alpha: float) -> "WeightingFunction":
        return WeightingFunction(kind="prelec", alpha=float(alpha))

    @staticmethod
    def power_complement(alpha: float) -> "WeightingFunction":
        return WeightingFunction(kind="power_complement", alpha=float(alpha))

    @staticmethod
    def identity() -> "WeightingFunction":
        return WeightingFunction(kind="identity")

    @staticmethod
    def from_table(points: Sequence[Sequence[float]]) -> "WeightingFunction":
        ys = tuple(float(p[0]) for p in points)
        ws = tuple(float(p[1]) for p in points)
        return WeightingFunction(kind="table", knots_y=ys, knots_w=ws)

    @property
    def lipschitz_constant(self):
        """Global Lipschitz bound on [0, 1], or None when there is none.

        prelec with alpha < 1 has unbounded slope at both 0 and 1 and is
        flagged as non-Lipschitz; alpha = 1 collapses to the identity.
        """
        if self.kind == "identity":
            return 1.0
        if self.kind == "power_complement":
            return float(self.alpha)
        if self.kind == "prelec":
            return 1.0 if self.alpha == 1.0 else None
        slopes = [
            abs(w1 - w0) / (y1 - y0)
            for (y0, y1, w0, w1) in zip(
                self.knots_y, self.knots_y[1:], self.knots_w, self.knots_w[1:]
            )
        ]
        return max(slopes)

    def __call__(self, y):
        """Evaluate the distortion; accepts scalars or arrays of probabilities."""
        arr = np.asarray(y, dtype=float)
        scalar = arr.ndim == 0
        flat = np.atleast_1d(arr)
        if np.any(flat < -_DOMAIN_SLACK) or np.any(flat > 1.0 + _DOMAIN_SLACK):
            raise ValueError(
                f"weighting argument outside [0, 1]: min={flat.min()}, max={flat.max()}"
            )
        flat = np.clip(flat, 0.0, 1.0)
        if self.kind == "identity":
            out = flat
        elif self.kind == "prelec":
            out = np.zeros_like(flat)
            pos = flat > 0.0
            out[pos] = np.exp(-((-np.log(flat[pos])) ** self.alpha))
        elif self.kind == "power_complement":
            out = 1.0 - (1.0 - flat) ** self.alpha
        else:
            out = np.interp(flat, self.knots_y, self.knots_w)
        if scalar:
            return float(out[0])
        return out.reshape(arr.shape)


@dataclass(frozen=True)
class ValuationFunction:
    """Outcome valuation v: R -> R, applied to raw payoffs before weighting.

    ``piecewise_power(c1, c2, c3)`` values gains as y**c1 and losses as
    -c2 * (-y)**c3 (all three constants positive), the usual S-shaped curve
    through the origin.  ``identity`` keeps payoffs as-is.
    """

    kind: str
    gain_exponent: float = 1.0
    loss_scale: float = 1.0
    loss_exponent: float = 1.0

    def __post_init__(self):
        if self.kind == "piecewise_power":
            constants = (self.gain_exponent, self.loss_scale, self.loss_exponent)
            if not all(math.isfinite(c) and c > 0.0 for c in constants):
                raise ValueError(
                    "piecewise_power constants must all be positive and finite, got "
                    f"({self.gain_exponent}, {self.loss_scale}, {self.loss_exponent})"
                )
        elif self.kind != "identity":
            raise ValueError(f"unknown valuation kind {self.kind!r}")

    @staticmethod
    def piecewise_power(c1: float, c2: float, c3: float) -> "ValuationFunction":
        return ValuationFunction(
            kind="piecewise_power",
            gain_exponent=float(c1),
            loss_scale=float(c2),
            loss_exponent=float(c3),
        )

    @staticmethod
    def identity() -> "ValuationFunction":
        return ValuationFunction(kind="identity")

    def __call__(self, y):
        """Evaluate the valuation; accepts scalars or arrays of payoffs."""
        arr = np.asarray(y, dtype=float)
        scalar = arr.ndim == 0
        flat = np.atleast_1d(arr)
        if self.kind == "identity":
            out = flat
        else:
            gains = np.power(np.maximum(flat, 0.0), self.gain_exponent)
            losses = -self.loss_scale * np.power(np.maximum(-flat, 0.0), self.loss_exponent)
            out = np.where(flat >= 0.0, gains, losses)
        if scalar:
            return float(out[0])
        return out.reshape(arr.shape)


# ---------- chains and game description ----------


@dataclass(frozen=True)
class TransitionKernel:
    """Stage-indexed transition law q_t(next | state, action) for one player.

    ``probs`` has shape (stages, states, actions, states); stages past the
    declared range repeat the final one, so a stationary kernel is stored as
    a single stage.  Rows must be probability distributions (checked by
    ``validate_game``).
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim == 3:
            arr = arr[np.newaxis]
        if arr.ndim != 4:
            raise ValueError(
                f"kernel needs shape (stages, S, A, S) or (S, A, S), got {arr.shape}"
            )
        if arr.shape[1] != arr.shape[3]:
            raise ValueError(
                f"kernel state dimensions disagree: {arr.shape[1]} vs {arr.shape[3]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @staticmethod
    def stationary(matrix) -> "TransitionKernel":
        """Single (S, A, S) table used at every stage."""
        arr = np.array(matrix, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"stationary kernel needs shape (S, A, S), got {arr.shape}")
        return TransitionKernel(probs=arr)

    @staticmethod
    def nonstationary(matrices) -> "TransitionKernel":
        """One (S, A, S) table per declared stage; the last repeats afterwards."""
        arr = np.array(matrices, dtype=float)
        if arr.ndim != 4:
            raise ValueError(
                f"nonstationary kernel needs shape (stages, S, A, S), got {arr.shape}"
            )
        return TransitionKernel(probs=arr)

    @property
    def is_stationary(self) -> bool:
        return self.probs.shape[0] == 1

    @property
    def state_count(self) -> int:
        return self.probs.shape[1]

    @property
    def action_count(self) -> int:
        return self.probs.shape[2]

    def stage(self, stage_index: int) -> np.ndarray:
        """(S, A, S) table governing the move out of 0-based ``stage_index``."""
        return self.probs[min(stage_index, self.probs.shape[0] - 1)]


@dataclass(frozen=True)
class PlayerSpec:
    """One player: state/action space sizes, own dynamics, own distortions."""

    state_count: int
    action_count: int
    kernel: TransitionKernel
    weighting: WeightingFunction = WeightingFunction.identity()
    valuation: ValuationFunction = ValuationFunction.identity()


@dataclass(frozen=True)
class GameSpec:
    """Unvalidated description of an n-player game.

    ``payoff`` is a dense numeric table of shape
    (n, S_1, ..., S_n, A_1, ..., A_n): entry (i, states, actions) is player
    i's stage payoff.  Validation copies it, unless it already is a
    read-only float array, which is then shared.
    """

    players: tuple
    discount_beta: float
    payoff: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))


@dataclass(frozen=True)
class ValidatedGame:
    """Immutable, fully checked game with cached per-player payoff data.

    Produced by :func:`validate_game`.  ``payoff_table`` is the dense payoff;
    ``valued_payoffs[i]`` is v_i(r_i) reshaped to (own pairs, opponent tuples)
    with own (state, action) pairs on the rows and opponents' joint
    (state, action) tuples on the columns, both in lexicographic order
    (players ascending, then state, then action).  ``value_bounds[i]`` is the
    exact maximum of |v_i(r_i)| over the whole product space.  All arrays are
    read-only, so instances are safe to share.
    """

    players: tuple
    discount_beta: float
    payoff_table: np.ndarray
    valued_payoffs: tuple
    value_bounds: np.ndarray

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def state_counts(self) -> tuple:
        return tuple(p.state_count for p in self.players)

    @property
    def action_counts(self) -> tuple:
        return tuple(p.action_count for p in self.players)

    @property
    def joint_state_count(self) -> int:
        out = 1
        for p in self.players:
            out *= p.state_count
        return out

    @property
    def joint_action_count(self) -> int:
        out = 1
        for p in self.players:
            out *= p.action_count
        return out

    def kernel(self, player: int, stage_index: int) -> np.ndarray:
        """(S, A, S) transition table of ``player`` out of ``stage_index``."""
        return self.players[player].kernel.stage(stage_index)

    def pair_count(self, player: int) -> int:
        p = self.players[player]
        return p.state_count * p.action_count

    def opponent_pair_count(self, player: int) -> int:
        out = 1
        for j, p in enumerate(self.players):
            if j != player:
                out *= p.state_count * p.action_count
        return out

    def payoff(self, player: int, states, actions) -> float:
        return float(self.payoff_table[(player, *states, *actions)])


def _valued_payoff_matrix(valued: np.ndarray, player: int, n: int) -> np.ndarray:
    """Reorder v_i(r_i) so own (s, a) pairs index rows and opponents' joint
    (s, a) tuples index columns, players in ascending order."""
    axes = [player, n + player]
    for j in range(n):
        if j != player:
            axes.extend((j, n + j))
    ordered = np.transpose(valued, axes)
    own_pairs = valued.shape[player] * valued.shape[n + player]
    mat = np.ascontiguousarray(ordered.reshape(own_pairs, -1))
    mat.setflags(write=False)
    return mat


def validate_game(spec: GameSpec) -> ValidatedGame:
    """Check every structural invariant of ``spec``; return the validated game.

    Raises :class:`GameValidationError` listing all violations: kernel rows
    that do not sum to 1 or contain negative or non-finite probabilities,
    kernel shapes that disagree with the declared sizes, a payoff that is not
    a numeric table of the declared shape, non-finite payoff entries,
    valuations that overflow to non-finite values, empty player lists, and a
    discount factor outside (0, 1).
    """
    problems = []
    players = tuple(spec.players)
    n = len(players)
    if n == 0:
        problems.append("at least one player is required")
    beta = float(spec.discount_beta)
    if not 0.0 < beta < 1.0:
        problems.append(f"discount factor must lie in (0,1), got {beta}")

    for i, p in enumerate(players):
        if p.state_count < 1:
            problems.append(f"player {i} needs at least one state, got {p.state_count}")
        if p.action_count < 1:
            problems.append(f"player {i} needs at least one action, got {p.action_count}")
        kern = p.kernel.probs
        if kern.shape[1:] != (p.state_count, p.action_count, p.state_count):
            problems.append(
                f"kernel of player {i} has shape {kern.shape[1:]}, expected "
                f"({p.state_count}, {p.action_count}, {p.state_count})"
            )
            continue
        finite = np.isfinite(kern)
        for (t, s, a, y) in np.argwhere(~finite | (kern < 0.0)):
            problems.append(
                f"{'negative' if finite[t, s, a, y] else 'non-finite'} probability "
                f"{kern[t, s, a, y]:.12g} at (player {i}, t={t + 1}, s={s}, a={a}, next={y})"
            )
        sums = kern.sum(axis=3)
        for (t, s, a) in np.argwhere(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            problems.append(
                f"row sum {sums[t, s, a]:.12g} != 1 at (player {i}, t={t + 1}, s={s}, a={a})"
            )

    table = None
    if n > 0:
        shape = (n, *(p.state_count for p in players), *(p.action_count for p in players))
        try:
            table = np.asarray(spec.payoff, dtype=float)
        except (TypeError, ValueError) as exc:
            problems.append(f"payoff is not a numeric table ({exc})")
        if table is not None and table.shape != shape:
            problems.append(f"payoff table has shape {table.shape}, expected {shape}")
            table = None
    if table is not None and not np.isfinite(table).all():
        for idx in np.argwhere(~np.isfinite(table)):
            key = tuple(int(v) for v in idx)
            problems.append(
                f"non-finite payoff {table[key]} at "
                f"(player {key[0]}, s={key[1 : 1 + n]}, a={key[1 + n :]})"
            )
        table = None

    valued, bounds = [], []
    if table is not None:
        # a finite payoff can still overflow under a steep valuation
        with np.errstate(over="ignore"):
            for i, p in enumerate(players):
                vi = p.valuation(table[i])
                bounds.append(np.max(np.abs(vi)))
                if not math.isfinite(bounds[-1]):
                    bad = np.argwhere(~np.isfinite(vi))
                    key = tuple(int(v) for v in bad[0])
                    problems.append(
                        f"valuation of player {i} is non-finite at {len(bad)} payoff "
                        f"entries, first {vi[key]} at (s={key[:n]}, a={key[n:]})"
                    )
                valued.append(_valued_payoff_matrix(vi, i, n))

    if problems:
        raise GameValidationError(problems)

    if table.flags.writeable:
        table = table.copy()
    table.setflags(write=False)
    bounds = np.array(bounds)
    bounds.setflags(write=False)
    return ValidatedGame(
        players=players,
        discount_beta=beta,
        payoff_table=table,
        valued_payoffs=tuple(valued),
        value_bounds=bounds,
    )
