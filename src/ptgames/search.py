"""Search for certified Markov epsilon-equilibria on simplex grids.

A profile passes certification when every player's truncated distorted value
is within the deviation allowance (``criterion._deviation_allowance``) of
that player's exact best-response value against the others; by the
truncation bounds this makes the profile an epsilon-equilibrium of the
infinite-horizon game.  The candidate set is the grid of profiles whose
per-(stage, state) action distributions have coordinates on a uniform
simplex lattice.  ``search_equilibrium`` scans one lattice level at a time
and picks each level's candidates from its size: a level that fits the
``max_candidates`` budget is enumerated in a fixed order, a larger one is
sampled uniformly without replacement.  An exhausted level doubles the
lattice's integer resolution (halving its step), up to a refinement cap.
Enumeration certifies only the profiles that are 0 in every dead cell, a
(player, stage, state) that the player's chain cannot reach: the others
repeat an earlier profile's certificate.  It still counts them.

There is one certification pass, ``_evaluate``: stage marginals, then per
player stage terms and backward induction, for a block of profiles at once.
The search runs it on chunks of lattice index rows with the best worst gap
so far as a cutoff, so a row is dropped at the first player whose gap
reaches it; the row it returns, the first passing one or else the best, is
always evaluated in full.  ``certify`` runs it on a block of one profile
without a cutoff.  Either way an :class:`EquilibriumCertificate`, which
derives its verdict itself, is the result, and both agree bit for bit.

A level's rows come in draws, and each draw is certified in chunks, in
draw order.  Both sizes come from the one working-set bound
``_BLOCK_ELEMENTS`` (``_block_sizes``): a chunk is sized by the widest
opponent-tuple vector the pass weighs, a draw by the widest one the
stage-1 screen weighs on the start game, so on a wide game a draw holds
many chunks.  Before the search has a cutoff, a draw of more than one
chunk certifies its first row alone, and that row's worst gap screens the
rest of it; a draw of one chunk is certified in one call.  Once the search
has a finite cutoff, the screen bounds every pending row of the draw at
once.  With the start state fixed, every player's stage-1
deviation gain, less a bound on how far the discounted later stages can
move (the largest payoff column spread times the Jensen bound on the
stage's weight mass, ``criterion._continuation_spread``), is a lower bound
on that player's gap.  The stage-1 gain is ``_evaluate`` itself, at
horizon 1 on the game restricted to the start states, so the pass is the
only code that computes a value or a best response.  Before each chunk, a
pending row whose bound reaches the current cutoff plus a derived rounding
margin is dropped: its computed gap is at least the cutoff, so dropping it
changes no certificate.  The screen reads the start-state cells only, one
per player, so a row's bound depends on that combination of cells alone:
the screen bounds each combination once per lattice level and looks the
bounds of every later row with it up (27 combinations at the reference's
first level).  ``_evaluate`` alone judges every row that survives, and the
counts still cover the dropped rows.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .best_response import _backward
from .criterion import (
    _check_epsilon,
    _continuation_spread,
    _deviation_allowance,
    _stage_terms,
    truncation_horizon,
)
from .game import GameSpec, PlayerSpec, TransitionKernel, ValidatedGame, _is_integer, validate_game
from .marginals import MarkovStrategy, _check_tables, _propagate, _reachable

__all__ = [
    "GridTooLargeError",
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

# The one working-set bound, at two widths (``_block_sizes``): a
# certification chunk holds at most this many elements of the widest
# opponent-tuple vector (rows x tuples), and a draw at most this many of
# the widest start-game opponent-tuple vector the stage-1 screen weighs
# (rows x tuples), whatever the game's width.
_BLOCK_ELEMENTS = 2**14

# A lattice holds at most this many entries (rows x actions), 128 MiB of
# floats: a finer lattice is refused before it is allocated.
_LATTICE_ENTRIES = 2**24


class GridTooLargeError(RuntimeError):
    """A lattice is too fine, or a profile's index row too long, to build."""


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the search.

    ``horizon`` overrides the truncation horizon computed from ``epsilon``
    when set (see :meth:`resolve_horizon`).  ``max_candidates`` is the most
    candidates any level examines: a level with at most that many profiles
    is enumerated, a larger one sampled.  ``refinement_cap`` bounds how
    often the lattice step is halved after exhausting a level; ``seed``
    seeds the sampler.  Every range check on these settings lives here.
    """

    epsilon: float
    initial_delta: float = 0.5
    max_candidates: int = 100_000
    seed: int = 0
    horizon: int | None = None
    refinement_cap: int = 6

    def __post_init__(self):
        # messages start with the field name, which callers may prefix
        _check_epsilon(self.epsilon)
        if not 0.0 < self.initial_delta < 1.0:
            raise ValueError(f"initial_delta: must lie in (0,1), got {self.initial_delta}")
        _resolution(self.initial_delta, "initial_delta")
        for name, low in (("max_candidates", 1), ("seed", 0), ("refinement_cap", 0)):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= low):
                raise ValueError(f"{name}: must be an integer >= {low}, got {value}")
        # a level within the budget is enumerated through numpy indices
        most = int(np.iinfo(np.intp).max)
        if self.max_candidates > most:
            raise ValueError(f"max_candidates: must be at most {most}, got {self.max_candidates}")
        _check_tables(None, horizon=self.horizon)

    def resolve_horizon(self, game: ValidatedGame) -> int:
        """The set ``horizon``, else the truncation horizon for ``epsilon``."""
        if self.horizon is not None:
            return self.horizon
        return truncation_horizon(self.epsilon, game)


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Per-player evidence that a profile is (or is not) close to optimal,
    and the one record of that verdict.

    ``values[i]`` is the truncated distorted value achieved by the profile,
    ``best_values[i]`` the exact best-response value against the others;
    construction derives ``gaps[i]``, their difference (nonnegative up to
    numerics), and ``passed``: ``worst_gap`` is at most ``allowance`` plus
    slack.  The search fills in ``candidates_examined``, ``final_delta``,
    ``mode`` (how the final level was scanned: ``"grid"`` or ``"sampled"``),
    ``levels`` (lattice levels scanned) and ``stop`` (why refinement ended
    before its cap, when it did).
    """

    profile: tuple
    values: np.ndarray
    best_values: np.ndarray
    epsilon: float
    horizon: int
    candidates_examined: int = 1
    final_delta: float | None = None
    mode: str | None = None
    levels: int | None = None
    stop: str | None = None
    gaps: np.ndarray = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "gaps", self.best_values - self.values)
        object.__setattr__(self, "passed", bool(_passes(self.worst_gap, self.epsilon)))

    @property
    def worst_gap(self) -> float:
        """The largest player's gain from deviating."""
        return float(np.max(self.gaps))

    @property
    def allowance(self) -> float:
        """The most a player may gain by deviating in a passing profile."""
        return _deviation_allowance(self.epsilon)


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
    return _lattice(action_count, _resolution(delta))


def _resolution(delta: float, name: str = "grid step") -> int:
    """Lattice resolution of a grid step: 1/``delta`` rounded up.  A step so
    small that its reciprocal overflows has none; the message starts with
    ``name``."""
    inverse = 1.0 / delta
    if not math.isfinite(inverse):
        raise ValueError(f"{name}: must have a finite reciprocal, got {delta}")
    return max(1, math.ceil(inverse - 1e-9))


def _lattice(action_count: int, resolution: int) -> np.ndarray:
    """The simplex lattice rows with coordinates in multiples of 1/``resolution``,
    lexicographically ascending.

    Stars and bars: the ``action_count`` - 1 bar positions among
    ``resolution`` + ``action_count`` - 1 slots, in lexicographic order,
    cut the stars into the weak compositions in lexicographic order.
    A lattice of more than ``_LATTICE_ENTRIES`` entries raises
    :class:`GridTooLargeError` before anything is allocated.
    """
    slots = resolution + action_count - 1
    rows = math.comb(slots, action_count - 1)
    if rows * action_count > _LATTICE_ENTRIES:
        raise GridTooLargeError(
            f"lattice at step {1.0 / resolution:g} over {action_count} actions holds "
            f"{_count_text(rows)} rows, above {_LATTICE_ENTRIES} entries; use a coarser "
            "initial_delta"
        )
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), action_count - 1)),
        dtype=np.intp,
        count=rows * (action_count - 1),
    ).reshape(rows, action_count - 1)
    edges = np.hstack([np.full((rows, 1), -1), bars, np.full((rows, 1), slots)])
    return (np.diff(edges, axis=1) - 1) / resolution


class ProfileGrid:
    """Deterministic enumeration of all Markov profiles whose per-(stage,
    state) action distributions lie on the simplex lattice of one integer
    ``resolution`` (step 1/``resolution``).

    Cells are ordered (player, stage, state); a profile is an assignment of
    one lattice distribution per cell, and enumeration is lexicographic over
    the per-cell indices with the last cell varying fastest.  That makes "the
    first passing profile" well defined and bit-reproducible, and doubling
    the resolution always produces a superset of the previous lattice.
    """

    def __init__(self, game: ValidatedGame, horizon: int, resolution: int):
        _check_tables(game, horizon=horizon)
        if not (_is_integer(resolution) and resolution >= 1):
            raise ValueError(f"resolution must be an integer >= 1, got {resolution}")
        self.game = game
        self.horizon = horizon
        self.resolution = resolution
        self.delta = 1.0 / resolution
        # a lattice over A actions has C(resolution + A - 1, A - 1) rows
        self.cell_sizes = [
            math.comb(resolution + p.action_count - 1, p.action_count - 1)
            for p in game.players
            for _ in range(horizon * p.state_count)
        ]
        self.total_profiles = math.prod(self.cell_sizes)
        # stars-and-bars rows are distributions by construction, so the
        # batched pass reads them unchecked
        counts = {p.action_count for p in game.players}
        self._options = {count: _lattice(count, resolution) for count in counts}

    def strategies(self, block: np.ndarray) -> list:
        """Per-player strategy blocks, each of shape (rows, horizon, S, A), of
        the profiles whose per-cell indices are the rows of ``block``."""
        out = []
        start = 0
        for p in self.game.players:
            stop = start + self.horizon * p.state_count
            dist = np.take(self._options[p.action_count], block[:, start:stop], axis=0)
            out.append(dist.reshape(len(block), self.horizon, p.state_count, p.action_count))
            start = stop
        return out

    def start_cells(self, x: tuple) -> list:
        """The column of each player j's stage-1 cell at its start state
        ``x[j]``, sum_{j' < j} horizon * S_j' + x[j]: the only columns
        :meth:`first_stage` reads."""
        columns, start = [], 0
        for j, p in enumerate(self.game.players):
            columns.append(start + x[j])
            start += self.horizon * p.state_count
        return columns

    def first_stage(self, block: np.ndarray, x: tuple) -> list:
        """Per-player stage-1 strategy blocks at the start states ``x``, each
        of shape (rows, 1, 1, A), of the profiles whose per-cell indices are
        the rows of ``block``: the layout of :meth:`strategies` on the
        stage-1 screen's one-state game."""
        return [
            self._options[p.action_count][block[:, column]].reshape(len(block), 1, 1, p.action_count)
            for p, column in zip(self.game.players, self.start_cells(x))
        ]

    def profile_at(self, indices) -> tuple:
        """Materialize the profile for one per-cell index assignment."""
        dists = self.strategies(np.asarray(indices)[np.newaxis])
        return tuple(MarkovStrategy(player=i, dist=d[0]) for i, d in enumerate(dists))


def _count_text(count: int) -> str:
    """``count`` in full up to 10**15, else in scientific notation rounded
    from its exact digits (a float overflows past 1e308)."""
    if count <= 10**15:
        return str(count)
    from decimal import Decimal  # imported on this error path only

    return f"{Decimal(count):.6e}"


def _live_cells(game: ValidatedGame, x: tuple, horizon: int) -> np.ndarray:
    """Boolean mask over a grid's cells, ordered (player, stage, state): may
    player j's chain, started at ``x[j]``, occupy that state at that stage?
    A dead cell never carries mass, so its distribution changes nothing."""
    return np.concatenate([_reachable(game, j, x[j], horizon).ravel() for j in range(game.n)])


def _block_sizes(game: ValidatedGame) -> tuple[int, int]:
    """Rows per certification chunk and per draw, under ``_BLOCK_ELEMENTS``.

    The pass weighs one player's full opponent-tuple vector at a time, so a
    chunk is sized by the widest one.  The screen is the same pass on the
    start game, whose opponent tuples are prod_{j != i} A_j for player i, so
    a draw is sized by the widest of those by the same rule, and its
    weighting calls stay within the bound even if every row of the draw is
    a new start-state combination; a draw is never smaller than a chunk.
    """
    counts = game.action_counts
    widest = max(game.opponent_pair_count(i) for i in range(game.n))
    screened = max(math.prod(counts[:i] + counts[i + 1 :]) for i in range(game.n))
    rows = max(1, _BLOCK_ELEMENTS // widest)
    return rows, max(rows, _BLOCK_ELEMENTS // screened)


def _grid_blocks(grid: ProfileGrid, live: np.ndarray, rows: int):
    """The profiles of ``grid`` whose dead cells (``~live``) have index 0, in
    enumeration order, ``rows`` at a time.

    Each skipped profile certifies exactly like the one with its dead cells
    set to 0, which comes earlier, so the first passing profile and the
    first with the smallest worst gap are among those yielded.
    """
    sizes = [size for size, keep in zip(grid.cell_sizes, live) if keep]
    total = math.prod(sizes)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        block = np.zeros((stop - start, len(live)), dtype=np.intp)
        block[:, live] = np.stack(np.unravel_index(np.arange(start, stop), sizes), axis=1)
        yield block


def _position(indices: np.ndarray, grid: ProfileGrid) -> int:
    """Enumeration position of a per-cell index row, as a Python int."""
    position = 0
    for index, size in zip(indices.tolist(), grid.cell_sizes):
        position = position * size + index
    return position


def _sampled_blocks(grid: ProfileGrid, rng: np.random.Generator, limit: int, rows: int):
    """Distinct per-cell index rows drawn uniformly from ``grid``, at most
    ``rows`` at a time: at most ``limit`` in all.

    Draws are rejected against a visited set (uniform per-cell draws are
    uniform over the product), at most 20 * ``limit`` attempts, so fewer
    rows come out when collisions pile up.  A block of ``m`` rows
    comes from one ``rng.integers`` call of size (m, cells), which yields the
    same numbers as ``m`` single draws; ``m`` never exceeds the draws the
    budget or the attempt cap has left, so the generator stops where
    per-draw sampling stops.  The sequence is thus the same for every
    ``rows``.  A draw whose rows are all new is yielded as drawn, uncopied.
    """
    cells = len(grid.cell_sizes)
    largest = max(grid.cell_sizes)
    # equal cells take a scalar bound, which draws the same stream as the
    # array of them without broadcasting it
    highs = largest if min(grid.cell_sizes) == largest else np.array(grid.cell_sizes)
    # the narrowest integer that holds every index packs the dedup keys
    index_type = np.min_scalar_type(largest - 1)
    key = np.dtype((np.void, cells * index_type.itemsize))
    visited = set()
    produced = 0
    attempts = 0
    # The attempt cap only matters when the grid barely exceeds the limit and
    # collisions pile up; the draw sequence stays deterministic either way.
    while produced < limit and attempts < 20 * limit:
        m = min(rows, limit - produced, 20 * limit - attempts)
        draws = rng.integers(0, highs, size=(m, cells))
        attempts += m
        fresh = []
        # one bytes key per row hashes faster than a tuple of Python ints
        keys = draws.astype(index_type).view(key).ravel()
        for r, candidate in enumerate(keys.tolist()):
            if candidate not in visited:
                visited.add(candidate)
                fresh.append(r)
        produced += len(fresh)
        if len(fresh) == m:
            yield draws  # every row is new: no copy
        elif fresh:
            yield draws[fresh]


class _StageOneScreen:
    """A sound lower bound on every player's gap from stage 1 alone.

    From the fixed start state x, stage 1 is a one-state choice: it is the
    certification pass at horizon 1 on the **start game**, the game
    restricted to x.  There each player has one state that it never
    leaves, the same actions, weighting and valuation, and the payoff
    entries at x, so its valued payoffs are the full game's at x.  Playing
    a best stage-1 action and then the profile's own strategy gains the
    start game's gap at stage 1 and loses at most D_i (``spread``) at the
    later stages, so the gap is at least their difference.  A row whose
    bound reaches the cutoff plus the rounding ``margin`` for some player
    has a computed gap of at least the cutoff: it can neither pass nor
    become the best.  Both come from ``criterion._continuation_spread``.

    A row's bound reads only its n start-state cell indices (its digits,
    :meth:`ProfileGrid.start_cells`), so :meth:`bounds` keeps a table from
    digit combinations to bound rows for the grid of the moment: each
    combination is bounded once per lattice level, on one representative
    row, and every other row with its digits looks that row up.
    """

    def __init__(self, game: ValidatedGame, x: tuple, horizon: int):
        players = [
            PlayerSpec(1, p.action_count, TransitionKernel(np.ones((1, p.action_count, 1))),
                       p.weighting, p.valuation)
            for p in game.players
        ]
        payoff = game.payoff_table[(slice(None), *(slice(s, s + 1) for s in x))]
        self.game = validate_game(GameSpec(players, game.discount_beta, payoff))
        self.spread, self.margin = _continuation_spread(game, horizon)
        self.x = x
        self._grid = None  # the grid the table below is for
        self._table = {}  # start-cell digits (a tuple) -> lower_bounds row

    def bounds(self, grid: ProfileGrid, block: np.ndarray) -> np.ndarray:
        """:meth:`lower_bounds` of the rows of ``block``, per-cell index rows
        of ``grid``, from the table: only combinations of start-state digits
        it lacks are evaluated, one row each.  A row's bound has the same
        bits alone and in any block, so a looked-up row equals a computed
        one."""
        if grid is not self._grid:
            # at another resolution the same digits name other distributions
            self._grid, self._table = grid, {}
            self._columns = grid.start_cells(self.x)
            # the narrowest integer that holds every index sorts fastest
            self._digit_type = np.min_scalar_type(max(grid.cell_sizes) - 1)
        digits = block.T[self._columns].astype(self._digit_type)
        # group the rows by their digits: sort them, and mark where a new
        # combination begins
        order = np.lexsort(digits)
        ordered = digits[:, order]
        begins = np.empty(len(order), dtype=bool)
        begins[:1] = True
        np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=begins[1:])
        group = np.empty_like(order)
        group[order] = np.cumsum(begins) - 1
        keys = list(map(tuple, ordered[:, begins].T.tolist()))
        new = [g for g, key in enumerate(keys) if key not in self._table]
        if new:
            representatives = order[np.flatnonzero(begins)[new]]
            rows = self.lower_bounds(grid.first_stage(block[representatives], self.x))
            self._table.update(zip((keys[g] for g in new), rows))
        return np.take([self._table[key] for key in keys], group, axis=0)

    def lower_bounds(self, first) -> np.ndarray:
        """Each player's gap lower bound, shape (rows, players), for the
        stage-1 strategy blocks ``first`` at the start states, as
        :meth:`ProfileGrid.first_stage` gives them."""
        values, best_values = _evaluate(self.game, first, (0,) * self.game.n, 1, math.inf)
        return best_values - values - self.spread

    def survives(self, bounds: np.ndarray, cutoff: float) -> np.ndarray:
        """Mask of the rows of :meth:`lower_bounds`' ``bounds`` that no
        player's bound rules out at ``cutoff``."""
        return ~(bounds >= cutoff + self.margin).any(axis=1)


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


def _worst_gaps(gaps: np.ndarray) -> np.ndarray:
    """Each row's largest gap, NaN entries (players a cutoff skipped)
    ignored: ``np.fmax.reduce(gaps, axis=1)`` as a fold over the few player
    columns, without a reduction's per-row cost.  The values are the same;
    only a zero's sign may differ, which the search's comparisons ignore."""
    worst = gaps[:, 0]
    for column in gaps.T[1:]:
        worst = np.fmax(worst, column)
    return worst


def _passes(worst, epsilon: float):
    """The pass rule on a profile's largest gap ``worst`` (or an array of
    them): no player gains more than the deviation allowance plus slack."""
    return worst <= _deviation_allowance(epsilon) + PASS_SLACK


def certify(
    game: ValidatedGame,
    profile,
    initial_state,
    horizon: int,
    epsilon: float,
) -> EquilibriumCertificate:
    """Check the sufficient equilibrium condition for one profile.

    Computes every player's truncated distorted value under the profile and
    the exact best-response value against the frozen opponents, and returns
    their certificate: the profile passes when no player can gain more than
    the deviation allowance (one share of ``epsilon``, plus numerical slack)
    by deviating.  A failing profile is a result too, not an error.
    """
    _check_epsilon(epsilon)
    x = tuple(initial_state)
    profile = tuple(profile)
    _check_tables(game, profile, horizon, x)
    values, best_values = _evaluate(game, [s.dist[np.newaxis] for s in profile], x, horizon)
    return EquilibriumCertificate(profile, values[0], best_values[0], epsilon, horizon)


def search_equilibrium(
    game: ValidatedGame, initial_state, config: SearchConfig
) -> EquilibriumCertificate:
    """Return the certificate of the first lattice profile that passes
    certification, or of the best candidate when none does.

    Each level's size picks its candidates: a level of at most
    ``max_candidates`` profiles is scanned in enumeration order (certifying
    those with index 0 in every dead cell, and counting the full grid); a
    larger one yields up to ``max_candidates`` distinct profiles drawn
    uniformly from a generator seeded with ``seed``, so it is deterministic
    too.  Each draw of candidates is certified by ``_evaluate`` in chunks,
    in draw order, and the first passing row's certificate is built from
    its own values.  ``initial_delta`` is rounded to a resolution once; an
    exhausted level doubles it, up to ``refinement_cap`` times (stopping
    before a lattice too fine to build).  The first draw, if it holds more
    than one chunk, certifies its first row alone to set the cutoff.  Once a
    cutoff exists, the stage-1 screen bounds a draw's pending rows once,
    evaluating only the start-state combinations it has not bounded at this
    level; the rows it rules out at the cutoff of the moment are counted but
    not certified.  A draw holds at most ``_LATTICE_ENTRIES`` index entries
    (rows x cells).
    Exhausting the levels returns the certificate of the first candidate
    with the smallest worst gap, with ``passed`` false; ``levels`` and
    ``stop`` say how far the search went.  A horizon whose index row
    (horizon x states cells) outgrows ``_LATTICE_ENTRIES``, or a first
    level too fine to build, raises :class:`GridTooLargeError`.
    """
    x = tuple(initial_state)
    _check_tables(game, initial_state=x)
    horizon = config.resolve_horizon(game)
    cells = horizon * sum(game.state_counts)
    if cells > _LATTICE_ENTRIES:
        # one index row of the grid, and the reach table behind it, would
        # already outgrow the lattice bound
        raise GridTooLargeError(
            f"horizon {horizon} gives each profile {_count_text(cells)} cells (horizon x states), "
            f"above {_LATTICE_ENTRIES} entries; use a shorter horizon"
        )
    rows, draw_rows = _block_sizes(game)
    # a draw holds at most as many index entries (rows x cells) as a lattice
    draw_rows = min(draw_rows, max(1, _LATTICE_ENTRIES // cells))
    resolution = _resolution(config.initial_delta)
    rng = np.random.default_rng(config.seed)
    live = _live_cells(game, x, horizon)
    examined = levels = 0
    stop = None
    best = None  # (worst gap, grid, index row, values, best-response values)
    screen = None  # built at the first finite cutoff
    for level in range(config.refinement_cap + 1):
        try:
            grid = ProfileGrid(game, horizon, resolution << level)
        except GridTooLargeError as exc:
            if level == 0:
                raise
            stop = str(exc)
            break
        levels = level + 1
        enumerated = grid.total_profiles <= config.max_candidates
        if enumerated:
            draws = _grid_blocks(grid, live, draw_rows)
        else:
            draws = _sampled_blocks(grid, rng, config.max_candidates, draw_rows)
        mode = "grid" if enumerated else "sampled"
        for draw in draws:
            # a row with a gap of at least the best worst gap so far can
            # neither pass (that gap failed) nor replace it (strict <): the
            # screen drops the rows whose stage-1 bound shows it, against
            # the cutoff of the moment, and ``_evaluate`` skips the later
            # players of the others.  A row's bound has the same bits in
            # any draw, and rows are certified in draw order.
            pending = np.arange(len(draw))
            bounds = None  # of the pending rows, from the first finite cutoff on
            while len(pending):
                cutoff = math.inf if best is None else best[0]
                if best is not None:
                    if bounds is None:
                        screen = screen or _StageOneScreen(game, x, horizon)
                        bounds = screen.bounds(grid, draw if len(pending) == len(draw) else draw[pending])
                    kept = screen.survives(bounds, cutoff)
                    pending, bounds = pending[kept], bounds[kept]
                    if not len(pending):
                        break
                    bounds = bounds[rows:]  # the chunk's rows leave them below
                # before any cutoff, a draw of several chunks certifies its
                # first row alone, whose worst gap then screens the rest
                size = 1 if best is None and len(draw) > rows else rows
                chunk, pending = pending[:size], pending[size:]
                # a chunk of the whole draw is the draw itself: no copy
                candidates = draw if len(chunk) == len(draw) else draw[chunk]
                values, best_values = _evaluate(game, grid.strategies(candidates), x, horizon, cutoff)
                worst = _worst_gaps(best_values - values)
                passing = np.flatnonzero(_passes(worst, config.epsilon))
                if len(passing):
                    r = int(passing[0])
                    # an enumerated level counts every profile up to the
                    # winner, skipped ones included; a sampled draw every
                    # row up to it, screened ones included
                    before = _position(candidates[r], grid) if enumerated else int(chunk[r])
                    return EquilibriumCertificate(
                        grid.profile_at(candidates[r]), values[r], best_values[r], config.epsilon,
                        horizon, candidates_examined=examined + before + 1,
                        final_delta=grid.delta, mode=mode, levels=levels,
                    )
                r = int(np.argmin(worst))
                if best is None or worst[r] < best[0]:
                    best = (worst[r], grid, candidates[r], values[r], best_values[r])
            if not enumerated:
                examined += len(draw)
        if enumerated:
            examined += grid.total_profiles
    _, where, indices, values, best_values = best
    return EquilibriumCertificate(
        where.profile_at(indices), values, best_values, config.epsilon, horizon,
        candidates_examined=examined, final_delta=grid.delta, mode=mode, levels=levels, stop=stop,
    )
