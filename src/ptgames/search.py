"""Search for certified Markov epsilon-equilibria on simplex grids.

A profile passes certification when every player's truncated distorted value
is within epsilon/3 of that player's exact best-response value against the
others; by the truncation bounds this makes the profile an epsilon-
equilibrium of the infinite-horizon game.  The candidate set is the grid of
profiles whose per-(stage, state) action distributions have coordinates on a
uniform simplex lattice.  ``search_equilibrium`` either scans the grid
exhaustively in a fixed order (grid mode) or draws candidates uniformly
without replacement from it (sampled mode, the only option when the grid is
too large or no Lipschitz step is available), and halves the lattice step
and retries when a level is exhausted, up to a refinement cap.

There is one certification pass, ``_evaluate``: stage marginals, then per
player stage terms and backward induction, for a block of profiles at once.
The search runs it on blocks of lattice index rows with the best worst gap
so far as a cutoff, so a row is dropped at the first player whose gap
reaches it, and builds the winner's certificate from the winning row, which
is always evaluated in full.  ``certify`` runs it on a block of one profile
without a cutoff.  Both certificates come from the same operations, so they
agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .best_response import _backward
from .criterion import _check_epsilon, _stage_terms, truncation_horizon
from .game import ValidatedGame
from .marginals import MarkovStrategy, _check_strategy, _distribution_problem, _propagate

__all__ = [
    "GridTooLargeError",
    "EquilibriumNotFoundError",
    "SearchConfig",
    "EquilibriumCertificate",
    "simplex_grid",
    "ProfileGrid",
    "certify",
    "search_equilibrium",
]

# Numerical slack on the pass condition; gaps are differences of values
# computed through the same tables, so anything beyond a few ulp is real.
PASS_SLACK = 1e-12

# A certification block holds at most this many elements of the widest
# opponent-tuple vector (rows x tuples), which bounds the batched kernel's
# working set whatever the game's width.
_BLOCK_ELEMENTS = 2**14


class GridTooLargeError(RuntimeError):
    """Exhaustive enumeration of the profile grid would exceed the candidate
    cap; sampled mode handles such grids."""


class EquilibriumNotFoundError(RuntimeError):
    """No profile passed certification within the refinement cap.

    ``best_certificate`` keeps the closest candidate found (smallest worst
    gap) so callers can report how near the search came; ``stop`` says why
    refinement ended before the cap, when it did.
    """

    def __init__(self, best_certificate, levels: int, stop: str | None = None):
        self.best_certificate = best_certificate
        self.levels = levels
        gap = float(np.max(best_certificate.gaps)) if best_certificate else math.inf
        allowance = (
            best_certificate.epsilon / 3.0 if best_certificate else math.nan
        )
        super().__init__(
            f"no profile passed certification within {levels} grid level(s); "
            f"best worst-case gap {gap:.6g} against allowance {allowance:.6g}"
            + ("" if stop is None else f"; refinement stopped: {stop}")
        )


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the search, in both modes.

    ``horizon`` overrides the truncation horizon computed from ``epsilon``
    when set (see :meth:`resolve_horizon`).  ``max_candidates`` caps the grid
    size in grid mode and the number of draws per level in sampled mode;
    ``refinement_cap`` bounds how often the lattice step is halved after
    exhausting a level; ``seed`` seeds the sampled mode's generator.  Every
    range check on these settings lives here.
    """

    epsilon: float
    initial_delta: float = 0.5
    mode: str = "grid"
    max_candidates: int = 100_000
    seed: int = 0
    horizon: int | None = None
    refinement_cap: int = 6

    def __post_init__(self):
        # messages start with the field name, which callers may prefix
        _check_epsilon(self.epsilon)
        if not 0.0 < self.initial_delta < 1.0:
            raise ValueError(f"initial_delta: must lie in (0,1), got {self.initial_delta}")
        if self.mode not in ("grid", "sampled"):
            raise ValueError(f"mode: expected 'grid' or 'sampled', got {self.mode!r}")
        if self.max_candidates < 1:
            raise ValueError(f"max_candidates: must be positive, got {self.max_candidates}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        if self.refinement_cap < 0:
            raise ValueError(f"refinement_cap: must be >= 0, got {self.refinement_cap}")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon: must be >= 1, got {self.horizon}")

    def resolve_horizon(self, game: ValidatedGame) -> int:
        """The set ``horizon``, else the truncation horizon for ``epsilon``."""
        if self.horizon is not None:
            return self.horizon
        return truncation_horizon(self.epsilon, game).horizon


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Per-player evidence that a profile is (or is not) close to optimal.

    ``values[i]`` is the truncated distorted value achieved by the profile,
    ``best_values[i]`` the exact best-response value against the others, and
    ``gaps[i]`` their difference (nonnegative up to numerics).  ``passed``
    holds exactly when the largest gap is at most epsilon/3 plus slack.
    ``candidates_examined``/``final_delta`` are filled in by the search.
    """

    profile: tuple
    values: np.ndarray
    best_values: np.ndarray
    gaps: np.ndarray
    epsilon: float
    horizon: int
    passed: bool
    candidates_examined: int = 1
    final_delta: float | None = None


def simplex_grid(action_count: int, delta: float) -> np.ndarray:
    """All probability vectors over ``action_count`` entries whose coordinates
    are multiples of the grid step, as rows in lexicographic order.

    1/``delta`` is rounded up to an integer resolution, so the effective step
    never exceeds the requested one.  The row count is the number of weak
    compositions of the resolution into ``action_count`` parts.
    """
    if action_count < 1:
        raise ValueError(f"need at least one action, got {action_count}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"grid step must lie in (0,1], got {delta}")
    resolution = _resolution(delta)
    return np.array(list(_compositions(resolution, action_count)), dtype=float) / resolution


def _resolution(delta: float) -> int:
    """Lattice resolution of a grid step: 1/``delta`` rounded up."""
    return max(1, math.ceil(1.0 / delta - 1e-9))


def _cell_sizes(game: ValidatedGame, horizon: int, resolution: int, cap: int | None = None) -> list:
    """Lattice rows per (player, stage, state) cell at ``resolution``; raises
    :class:`GridTooLargeError` when the grid holds more than ``cap``
    profiles."""
    # a lattice over A actions has C(resolution + A - 1, A - 1) rows
    sizes = [
        math.comb(resolution + p.action_count - 1, p.action_count - 1)
        for p in game.players
        for _ in range(horizon * p.state_count)
    ]
    total = math.prod(sizes)
    if cap is not None and total > cap:
        raise GridTooLargeError(
            f"profile grid at step {1.0 / resolution:g} holds {total} candidates, "
            f"above the cap {cap}; use sampled mode"
        )
    return sizes


def _compositions(total: int, parts: int):
    """Weak compositions of ``total`` into ``parts`` nonnegative integers,
    lexicographically ascending."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


class ProfileGrid:
    """Deterministic enumeration of all Markov profiles whose per-(stage,
    state) action distributions lie on the simplex lattice with one step.

    Cells are ordered (player, stage, state); a profile is an assignment of
    one lattice distribution per cell, and enumeration is lexicographic over
    the per-cell indices with the last cell varying fastest.  That makes "the
    first passing profile" well defined and bit-reproducible, and halving the
    step always produces a superset of the previous lattice.  A grid of more
    than ``cap`` profiles raises :class:`GridTooLargeError` before any
    lattice is built.
    """

    def __init__(self, game: ValidatedGame, horizon: int, delta: float, cap: int | None = None):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.game = game
        self.horizon = horizon
        self.resolution = _resolution(delta)
        self.delta = 1.0 / self.resolution
        self.cell_sizes = _cell_sizes(game, horizon, self.resolution, cap)
        self.total_profiles = math.prod(self.cell_sizes)
        self._options = {}
        for p in game.players:
            if p.action_count not in self._options:
                options = simplex_grid(p.action_count, self.delta)
                # the batched pass reads these rows without building a
                # MarkovStrategy, so they get the strategy rule here, once
                problem = _distribution_problem(options)
                if problem is not None:
                    raise ValueError(f"lattice row {problem[1][0]}: {problem[0]}")
                self._options[p.action_count] = options

    def strategies(self, block: np.ndarray) -> list:
        """Per-player strategy blocks, each of shape (rows, horizon, S, A), of
        the profiles whose per-cell indices are the rows of ``block``."""
        out = []
        start = 0
        for p in self.game.players:
            stop = start + self.horizon * p.state_count
            dist = self._options[p.action_count][block[:, start:stop]]
            out.append(dist.reshape(len(block), self.horizon, p.state_count, p.action_count))
            start = stop
        return out

    def profile_at(self, indices) -> tuple:
        """Materialize the profile for one per-cell index assignment."""
        dists = self.strategies(np.asarray(indices)[np.newaxis])
        return tuple(MarkovStrategy(player=i, dist=d[0]) for i, d in enumerate(dists))


def _unravel(flat: np.ndarray, grid: ProfileGrid) -> np.ndarray:
    """Per-cell index rows of the profiles at enumeration positions ``flat``."""
    return np.stack(np.unravel_index(flat, grid.cell_sizes), axis=1)


def _grid_blocks(grid: ProfileGrid, rows: int):
    """Every profile of ``grid`` in enumeration order, ``rows`` at a time."""
    for start in range(0, grid.total_profiles, rows):
        stop = min(start + rows, grid.total_profiles)
        yield _unravel(np.arange(start, stop), grid)


def _sampled_blocks(grid: ProfileGrid, rng: np.random.Generator, limit: int, rows: int):
    """Distinct per-cell index rows drawn uniformly from ``grid``, at most
    ``rows`` at a time: at most ``limit`` in all, fewer when the grid is
    exhausted first.

    Grids of at most ``limit`` profiles are shuffled whole; larger ones use
    rejection against a visited set (uniform per-cell draws are uniform over
    the product), at most 20 * ``limit`` attempts.  A block of ``m`` rows
    comes from one ``rng.integers`` call of size (m, cells), which yields the
    same numbers as ``m`` single draws; ``m`` never exceeds the draws the
    budget or the attempt cap has left, so the generator stops where
    per-draw sampling stops.  The sequence is thus the same for every
    ``rows``.
    """
    if grid.total_profiles <= limit:
        order = rng.permutation(grid.total_profiles)
        for start in range(0, len(order), rows):
            yield _unravel(order[start : start + rows], grid)
        return
    highs = np.array(grid.cell_sizes)
    visited = set()
    produced = 0
    attempts = 0
    # The attempt cap only matters when the grid barely exceeds the limit and
    # collisions pile up; the draw sequence stays deterministic either way.
    while produced < limit and attempts < 20 * limit:
        m = min(rows, limit - produced, 20 * limit - attempts)
        draws = rng.integers(0, highs, size=(m, len(highs)))
        attempts += m
        fresh = []
        for r, candidate in enumerate(map(tuple, draws.tolist())):
            if candidate not in visited:
                visited.add(candidate)
                fresh.append(r)
        produced += len(fresh)
        if fresh:
            yield draws[fresh]


def _steps(delta: float, levels: int):
    """The grid steps of ``levels`` refinement levels from ``delta``: each
    level halves the previous level's effective step."""
    for _ in range(levels):
        yield delta
        delta = 1.0 / (2 * _resolution(delta))


def _levels_within_cap(game: ValidatedGame, horizon: int, config: SearchConfig) -> tuple:
    """Grid mode's level count: the levels before the first one whose grid
    holds more than ``max_candidates`` profiles, with that level's refusal
    (None when all fit).  Sizes are checked before any candidate is
    certified, so a first level above the cap raises
    :class:`GridTooLargeError` at once and no later one wastes the work of
    the levels before it."""
    for level, delta in enumerate(_steps(config.initial_delta, config.refinement_cap + 1)):
        try:
            sizes = _cell_sizes(game, horizon, _resolution(delta), config.max_candidates)
        except GridTooLargeError as exc:
            if level == 0:
                raise
            return level, str(exc)
        if math.prod(sizes) == 1:
            break  # one action per player: every level is this one profile
    return config.refinement_cap + 1, None


def _initial_state(game: ValidatedGame, initial_state) -> tuple:
    x = tuple(int(v) for v in initial_state)
    if len(x) != game.n:
        raise ValueError(
            f"initial state has {len(x)} components, game has {game.n} players"
        )
    for i, (s, p) in enumerate(zip(x, game.players)):
        if not 0 <= s < p.state_count:
            raise ValueError(
                f"initial state {s} of player {i} outside 0..{p.state_count - 1}"
            )
    return x


def _evaluate(game: ValidatedGame, dists, x: tuple, horizon: int, cutoff: float = math.inf):
    """Values and best-response values, each of shape (rows, players), of a
    block of profiles given as per-player strategy blocks ``dists``, each of
    shape (rows, >= horizon, S, A); unchecked.

    The certification pass: stage marginals (``_propagate``), then per player
    in ascending order the stage terms (``_stage_terms``) and backward
    induction (``_backward``).  A row whose gap for some player is at least
    ``cutoff`` is dropped there: later players skip it and its entries stay
    NaN, so its largest evaluated gap (``np.fmax``) is at least ``cutoff``.
    Rows with identical inputs get identical results in any block, so ties
    break as in a per-candidate scan and a block of one reproduces a row.
    """
    tables = [_propagate(game, i, dist, x[i], horizon) for i, dist in enumerate(dists)]
    values = np.full((len(tables[0]), game.n), np.nan)
    best_values = np.full_like(values, np.nan)
    live = np.arange(len(values))
    for i, p in enumerate(game.players):
        rewards, contributions = _stage_terms(game, i, tables, horizon)
        optimum, _ = _backward(game, i, rewards.reshape(len(live), horizon, p.state_count, p.action_count))
        value = contributions.sum(axis=1)
        best = optimum[:, 0, x[i]]
        values[live, i] = value
        best_values[live, i] = best
        keep = ~(best - value >= cutoff)
        if not keep.any():
            break
        if not keep.all():
            live = live[keep]
            tables = [t[keep] for t in tables]
    return values, best_values


def _passes(worst, epsilon: float):
    """The pass rule on a profile's largest gap ``worst`` (or an array of
    them): no player gains more than epsilon/3 plus slack by deviating."""
    return worst <= epsilon / 3.0 + PASS_SLACK


def _certificate(profile, values, best_values, epsilon, horizon, **search) -> EquilibriumCertificate:
    gaps = best_values - values
    return EquilibriumCertificate(
        profile=profile,
        values=values,
        best_values=best_values,
        gaps=gaps,
        epsilon=epsilon,
        horizon=horizon,
        passed=bool(_passes(np.max(gaps), epsilon)),
        **search,
    )


def certify(
    game: ValidatedGame,
    profile,
    initial_state,
    horizon: int,
    epsilon: float,
) -> EquilibriumCertificate:
    """Check the sufficient equilibrium condition for one profile.

    Computes every player's truncated distorted value under the profile and
    the exact best-response value against the frozen opponents; the profile
    passes when no player can gain more than ``epsilon``/3 (plus numerical
    slack) by deviating.
    """
    _check_epsilon(epsilon)
    x = _initial_state(game, initial_state)
    profile = tuple(profile)
    if len(profile) != game.n:
        raise ValueError(
            f"profile has {len(profile)} strategies, game has {game.n} players"
        )
    for i, strategy in enumerate(profile):
        if strategy.player != i:
            raise ValueError(f"strategy at position {i} belongs to player {strategy.player}")
        _check_strategy(game, strategy, x[i], horizon)
    values, best_values = _evaluate(game, [s.dist[np.newaxis] for s in profile], x, horizon)
    return _certificate(profile, values[0], best_values[0], epsilon, horizon)


def search_equilibrium(
    game: ValidatedGame, initial_state, config: SearchConfig
) -> EquilibriumCertificate:
    """Return the first lattice profile that passes certification.

    ``config.mode`` picks each level's candidates: ``"grid"`` scans every
    profile in enumeration order and raises :class:`GridTooLargeError` when
    the first level holds more than ``max_candidates``; ``"sampled"`` draws
    up to ``max_candidates`` distinct profiles uniformly from a generator
    seeded with ``seed``, so it is deterministic too.  Candidates are certified in
    blocks by ``_evaluate``, and the first passing row's certificate is built
    from its own values.  An exhausted level halves the step, up to
    ``refinement_cap`` times (in grid mode, never into a level above the
    cap); then :class:`EquilibriumNotFoundError` carries the certificate of
    the first candidate with the smallest worst gap.
    """
    x = _initial_state(game, initial_state)
    horizon = config.resolve_horizon(game)
    widest = max(game.opponent_pair_count(i) for i in range(game.n))
    rows = max(1, _BLOCK_ELEMENTS // widest)
    grid_mode = config.mode == "grid"
    levels, stop = config.refinement_cap + 1, None
    if grid_mode:
        levels, stop = _levels_within_cap(game, horizon, config)
    rng = np.random.default_rng(config.seed)
    examined = 0
    best = None  # (worst gap, grid, index row, values, best-response values)
    for delta in _steps(config.initial_delta, levels):
        grid = ProfileGrid(game, horizon, delta)
        if grid_mode:
            blocks = _grid_blocks(grid, rows)
        else:
            blocks = _sampled_blocks(grid, rng, config.max_candidates, rows)
        for block in blocks:
            # a row with a gap of at least the best worst gap so far can
            # neither pass (that gap failed) nor replace it (strict <), so
            # its later players are skipped
            cutoff = math.inf if best is None else best[0]
            values, best_values = _evaluate(game, grid.strategies(block), x, horizon, cutoff)
            worst = np.fmax.reduce(best_values - values, axis=1)
            passing = np.flatnonzero(_passes(worst, config.epsilon))
            if len(passing):
                r = int(passing[0])
                return _certificate(
                    grid.profile_at(block[r]), values[r], best_values[r], config.epsilon,
                    horizon, candidates_examined=examined + r + 1, final_delta=grid.delta,
                )
            r = int(np.argmin(worst))
            if best is None or worst[r] < best[0]:
                best = (worst[r], grid, block[r], values[r], best_values[r])
            examined += len(block)
    cert = None
    if best is not None:
        _, where, indices, values, best_values = best
        cert = _certificate(
            where.profile_at(indices), values, best_values, config.epsilon, horizon,
            candidates_examined=examined, final_delta=grid.delta,
        )
    raise EquilibriumNotFoundError(cert, levels, stop)
