"""Search for certified Markov epsilon-equilibria on simplex grids.

A profile passes certification when every player's truncated distorted value
is within epsilon/3 of that player's exact best-response value against the
others; by the truncation bounds this makes the profile an epsilon-
equilibrium of the infinite-horizon game.  The candidate set is the grid of
profiles whose per-(stage, state) action distributions have coordinates on a
uniform simplex lattice.  ``search_grid`` scans the grid exhaustively in a
fixed order; ``search_sampled`` draws candidates uniformly without
replacement from the same grid (the only option when the grid is too large
or no Lipschitz step is available).  Both halve the lattice step and retry
when a level is exhausted, up to a refinement cap.

Both searches certify candidates in blocks of per-cell index rows: one
batched pass computes every row's gaps with the same operations ``certify``
applies to one profile.  Only the winning row is turned into a profile and
re-certified by ``certify``, so every returned certificate comes from it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .best_response import StageRewardTable, backward_induction
from .criterion import _check_marginal_tables, _stage_terms, truncation_horizon
from .game import ValidatedGame
from .marginals import MarkovStrategy, _distribution_problem, _propagate, forward_marginals

__all__ = [
    "GridTooLargeError",
    "EquilibriumNotFoundError",
    "SearchConfig",
    "EquilibriumCertificate",
    "simplex_grid",
    "ProfileGrid",
    "grid_profiles",
    "sampled_profile_indices",
    "certify",
    "search_grid",
    "search_sampled",
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
    gap) so callers can report how near the search came.
    """

    def __init__(self, best_certificate, levels: int):
        self.best_certificate = best_certificate
        self.levels = levels
        gap = float(np.max(best_certificate.gaps)) if best_certificate else math.inf
        allowance = (
            best_certificate.epsilon / 3.0 if best_certificate else math.nan
        )
        super().__init__(
            f"no profile passed certification within {levels} grid level(s); "
            f"best worst-case gap {gap:.6g} against allowance {allowance:.6g}"
        )


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of both search modes.

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
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon: must be positive and finite, got {self.epsilon}")
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
    ``candidates_examined``/``final_delta`` are filled in by the searches.
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
    resolution = max(1, math.ceil(1.0 / delta - 1e-9))
    return np.array(list(_compositions(resolution, action_count)), dtype=float) / resolution


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
    step always produces a superset of the previous lattice.
    """

    def __init__(self, game: ValidatedGame, horizon: int, delta: float):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.game = game
        self.horizon = horizon
        self.resolution = max(1, math.ceil(1.0 / delta - 1e-9))
        self.delta = 1.0 / self.resolution
        self._options = {}
        for p in game.players:
            if p.action_count not in self._options:
                options = simplex_grid(p.action_count, self.delta)
                # the batched kernel reads these rows without building a
                # MarkovStrategy, so they get the strategy rule here, once
                problem = _distribution_problem(options)
                if problem is not None:
                    raise ValueError(f"lattice row {problem[1][0]}: {problem[0]}")
                self._options[p.action_count] = options
        self.cell_sizes = []
        for p in game.players:
            size = len(self._options[p.action_count])
            self.cell_sizes.extend([size] * (horizon * p.state_count))
        self.total_profiles = 1
        for size in self.cell_sizes:
            self.total_profiles *= size

    def distributions(self, player: int) -> np.ndarray:
        """Lattice distributions available to ``player`` in each cell."""
        return self._options[self.game.players[player].action_count]

    def index_tuples(self):
        """All per-cell index assignments in enumeration order."""
        return itertools.product(*(range(size) for size in self.cell_sizes))

    def profile_at(self, indices) -> tuple:
        """Materialize the profile for one per-cell index assignment."""
        out = []
        pos = 0
        for i, p in enumerate(self.game.players):
            options = self._options[p.action_count]
            dist = np.empty((self.horizon, p.state_count, p.action_count))
            for t in range(self.horizon):
                for s in range(p.state_count):
                    dist[t, s] = options[indices[pos]]
                    pos += 1
            out.append(MarkovStrategy(player=i, dist=dist))
        return tuple(out)


def grid_profiles(
    delta: float, game: ValidatedGame, horizon: int, cap: int | None = None
) -> ProfileGrid:
    """Build the profile grid for one lattice step, refusing grids whose full
    enumeration would exceed ``cap`` candidates (use sampled mode there)."""
    grid = ProfileGrid(game, horizon, delta)
    if cap is not None and grid.total_profiles > cap:
        raise GridTooLargeError(
            f"profile grid holds {grid.total_profiles} candidates, above the cap "
            f"{cap}; use sampled mode"
        )
    return grid


def _unravel(flat: np.ndarray, grid: ProfileGrid) -> np.ndarray:
    """Per-cell index rows of the profiles at enumeration positions ``flat``."""
    return np.stack(np.unravel_index(flat, grid.cell_sizes), axis=1)


def _grid_blocks(grid: ProfileGrid, rows: int):
    """Every profile of ``grid`` in enumeration order, ``rows`` at a time."""
    for start in range(0, grid.total_profiles, rows):
        stop = min(start + rows, grid.total_profiles)
        yield _unravel(np.arange(start, stop), grid)


def _sampled_blocks(grid: ProfileGrid, rng: np.random.Generator, limit: int, rows: int):
    """The draws of :func:`sampled_profile_indices`, at most ``rows`` at a time.

    A block of ``m`` rows comes from one ``rng.integers`` call of size
    (m, cells), which yields the same numbers as ``m`` single draws; ``m``
    never exceeds the draws the budget or the attempt cap has left, so the
    generator stops where per-draw sampling stops.  The sequence is thus the
    same for every ``rows``.
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


def sampled_profile_indices(grid: ProfileGrid, rng: np.random.Generator, limit: int):
    """Yield distinct per-cell index tuples drawn uniformly from ``grid``:
    at most ``limit``, fewer when the grid is exhausted first.

    Small grids are shuffled whole; larger ones use rejection against a
    visited set (uniform per-cell draws are uniform over the product).  The
    sequence is fully determined by the generator state, which advances one
    draw per rejection attempt as the tuples are consumed.
    """
    for block in _sampled_blocks(grid, rng, limit, rows=1):
        yield from map(tuple, block.tolist())


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
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    x = _initial_state(game, initial_state)
    profile = tuple(profile)
    if len(profile) != game.n:
        raise ValueError(
            f"profile has {len(profile)} strategies, game has {game.n} players"
        )
    marginals = [
        forward_marginals(game, profile[i], x[i], horizon) for i in range(game.n)
    ]
    _check_marginal_tables(game, marginals, horizon)
    tables = [table.probs[np.newaxis] for table in marginals]
    values = np.empty(game.n)
    best = np.empty(game.n)
    for i, p in enumerate(game.players):
        rewards, contributions = _stage_terms(game, i, tables, horizon)
        values[i] = contributions[0].sum()
        table = rewards[0].reshape(horizon, p.state_count, p.action_count)
        best[i] = backward_induction(game, i, StageRewardTable(i, table), x[i], horizon).value
    gaps = best - values
    passed = bool(np.max(gaps) <= epsilon / 3.0 + PASS_SLACK)
    return EquilibriumCertificate(
        profile=profile,
        values=values,
        best_values=best,
        gaps=gaps,
        epsilon=epsilon,
        horizon=horizon,
        passed=passed,
    )


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


def _block_values(
    game: ValidatedGame, grid: ProfileGrid, block: np.ndarray, initial_state: tuple, horizon: int
):
    """Values and best-response values, each of shape (rows, players), of the
    lattice profiles whose per-cell indices are the rows of ``block``.

    ``certify`` with a leading batch axis: the same stage marginals and
    stage terms, then backward induction on the maxima only.  Rows with
    identical inputs get identical results in any block, so ties break as
    in a per-candidate scan.
    """
    rows = len(block)
    tables = []
    start = 0
    for i, p in enumerate(game.players):
        cells = block[:, start : start + horizon * p.state_count]
        start += horizon * p.state_count
        dist = grid.distributions(i)[cells].reshape(rows, horizon, p.state_count, p.action_count)
        tables.append(_propagate(game, i, dist, initial_state[i], horizon))
    values = np.empty((rows, game.n))
    best_values = np.empty((rows, game.n))
    for i, p in enumerate(game.players):
        rewards, contributions = _stage_terms(game, i, tables, horizon)
        q = rewards.reshape(rows, horizon, p.state_count, p.action_count)
        best = q[:, -1].max(axis=2)
        for k in range(horizon - 2, -1, -1):
            best = (q[:, k] + np.einsum("sap,bp->bsa", game.kernel(i, k), best)).max(axis=2)
        values[:, i] = contributions.sum(axis=1)
        best_values[:, i] = best[:, initial_state[i]]
    return values, best_values


def _search(game: ValidatedGame, initial_state, config: SearchConfig, blocks, cap):
    """The level loop of both searches.

    ``blocks(grid, rows)`` yields a level's candidates as per-cell index
    arrays of at most ``rows`` rows, in the order candidates are adjudicated;
    ``cap`` bounds each level's grid size (None for no bound).  Rows the
    kernel passes are re-certified by ``certify`` in order, and the first
    that passes there wins; on exhaustion the first candidate with the
    smallest worst gap is re-certified and carried by the error.
    """
    x = _initial_state(game, initial_state)
    horizon = config.resolve_horizon(game)
    widest = max(game.opponent_pair_count(i) for i in range(game.n))
    rows = max(1, _BLOCK_ELEMENTS // widest)
    allowance = config.epsilon / 3.0 + PASS_SLACK
    examined = 0
    best = None  # (worst gap, grid, indices)
    resolution = None
    for _level in range(config.refinement_cap + 1):
        delta = config.initial_delta if resolution is None else 1.0 / resolution
        grid = grid_profiles(delta, game, horizon, cap=cap)
        resolution = 2 * grid.resolution
        for block in blocks(grid, rows):
            values, best_values = _block_values(game, grid, block, x, horizon)
            worst = (best_values - values).max(axis=1)
            for r in np.flatnonzero(worst <= allowance):
                cert = certify(game, grid.profile_at(block[r]), x, horizon, config.epsilon)
                if cert.passed:
                    return replace(
                        cert, candidates_examined=examined + int(r) + 1, final_delta=grid.delta
                    )
            r = int(np.argmin(worst))
            if best is None or worst[r] < best[0]:
                best = (worst[r], grid, block[r])
            examined += len(block)
    cert = None
    if best is not None:
        _, grid, indices = best
        cert = replace(
            certify(game, grid.profile_at(indices), x, horizon, config.epsilon),
            candidates_examined=examined,
            final_delta=2.0 / resolution,
        )
    raise EquilibriumNotFoundError(cert, config.refinement_cap + 1)


def search_grid(
    game: ValidatedGame, initial_state, config: SearchConfig
) -> EquilibriumCertificate:
    """Scan each lattice level's profiles in enumeration order and return the
    first certificate that passes; halve the step on exhaustion.

    Raises :class:`GridTooLargeError` when a level cannot be enumerated
    within ``max_candidates`` and :class:`EquilibriumNotFoundError` when the
    refinement cap runs out (the latter carries the best candidate seen).
    """
    return _search(game, initial_state, config, _grid_blocks, cap=config.max_candidates)


def search_sampled(
    game: ValidatedGame, initial_state, config: SearchConfig
) -> EquilibriumCertificate:
    """Certify up to ``max_candidates`` profiles per lattice level, drawn
    uniformly without replacement from the grid by a seeded generator; halve
    the step when a level is exhausted or its budget is spent.

    Fully deterministic for a given seed.  Raises
    :class:`EquilibriumNotFoundError` (carrying the best candidate) when the
    refinement cap runs out.
    """
    rng = np.random.default_rng(config.seed)

    def blocks(grid, rows):
        return _sampled_blocks(grid, rng, config.max_candidates, rows)

    return _search(game, initial_state, config, blocks, cap=None)
