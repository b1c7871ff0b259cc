"""Lattice enumeration, certification, and the equilibrium search, enumerated
and sampled."""
import collections
import itertools
import json
import math
import runpy
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import ptgames as pg
from ptgames import cli, criterion, search
from ptgames.game import _distribution_problem
from ptgames.marginals import _propagate
from helpers import (
    compositions,
    enumerate_dm_policies,
    full_grid_blocks,
    index_tuples,
    opponent_weight_vector,
    per_draw_profile_indices,
    random_game,
    random_kernel,
    random_initial_state,
    random_profile,
    sampled_profile_indices,
    six_prosumers,
    sparse_kernel,
)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
BUNDLED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "smartgrid.json"

BETA = 0.1


def chain_kernel():
    # one state, both actions stay put
    return pg.TransitionKernel.stationary([[[1.0], [1.0]]])


def dominant_game(n=2, beta=BETA):
    """Each player earns 1 for action 0 and 0 for action 1, regardless of
    the others; the all-zeros profile is the unique strict equilibrium."""
    players = tuple(pg.PlayerSpec(1, 2, chain_kernel()) for _ in range(n))
    shape = (n,) + (1,) * n + (2,) * n
    payoff = np.zeros(shape)
    for i in range(n):
        for actions in np.ndindex(*(2,) * n):
            if actions[i] == 0:
                payoff[(i,) + (0,) * n + actions] = 1.0
    return pg.validate_game(
        pg.GameSpec(players=players, discount_beta=beta, payoff=payoff)
    )


def pennies_game():
    """Zero-sum 2x2 whose mixed equilibrium sits at 0.4, off every lattice
    of resolution 2."""
    M = np.array([[2.0, -1.0], [-1.0, 1.0]])
    payoff = np.stack([M[None, None], -M[None, None]])
    players = tuple(pg.PlayerSpec(1, 2, chain_kernel()) for _ in range(2))
    return pg.validate_game(
        pg.GameSpec(players=players, discount_beta=0.5, payoff=payoff)
    )


def unreachable_state_pennies():
    """``pennies_game`` on two states, started in state 0: with horizon 1 the
    state-1 cells never matter, so every profile ties with 8 others."""
    M = np.array([[2.0, -1.0], [-1.0, 1.0]])
    payoff = np.broadcast_to(np.stack([M, -M])[:, None, None], (2, 2, 2, 2, 2))
    kernel = pg.TransitionKernel.stationary(np.full((2, 2, 2), 0.5))
    players = tuple(pg.PlayerSpec(2, 2, kernel) for _ in range(2))
    return pg.validate_game(
        pg.GameSpec(players=players, discount_beta=0.5, payoff=payoff)
    )


# ---------------------------------------------------------------- lattice


def test_simplex_grid_half_step():
    rows = pg.simplex_grid(2, 0.5)
    assert np.array_equal(rows, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])


def test_simplex_grid_unit_step_is_point_masses():
    rows = pg.simplex_grid(3, 1.0)
    assert np.array_equal(rows, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_simplex_grid_counts():
    assert len(pg.simplex_grid(2, 0.25)) == 5
    # compositions of 4 into 3 parts: C(6, 2)
    assert len(pg.simplex_grid(3, 0.25)) == 15


def test_simplex_grid_step_rounds_down():
    # 1/0.3 is not integral; the step adjusts to 0.25 so it never exceeds
    # the request
    assert np.array_equal(pg.simplex_grid(2, 0.3), pg.simplex_grid(2, 0.25))


@pytest.mark.parametrize("delta", [1e-320, 5e-324, 5e-309])
def test_a_step_without_a_finite_reciprocal_is_refused(delta):
    # 1/delta overflows to inf, which has no ceiling
    with pytest.raises(ValueError, match=f"grid step: must have a finite reciprocal, got {delta}"):
        pg.simplex_grid(2, delta)
    with pytest.raises(ValueError, match=f"initial_delta: must have a finite reciprocal, got {delta}"):
        pg.SearchConfig(epsilon=0.1, initial_delta=delta)


def test_simplex_grid_rows_are_distributions():
    for count in (1, 2, 3, 4):
        rows = pg.simplex_grid(count, 1 / 3)
        assert np.all(rows >= 0.0)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=0)


def test_lattice_matches_recursive_compositions():
    for count in range(1, 6):
        for res in range(1, 30):
            expected = np.array(list(compositions(res, count)), dtype=float) / res
            rows = search._lattice(count, res)
            assert rows.dtype == expected.dtype
            assert np.array_equal(rows, expected), (count, res)
            # the search reads lattice rows without the strategy check
            assert _distribution_problem(rows) is None, (count, res)


def test_simplex_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pg.simplex_grid(0, 0.5)
    with pytest.raises(ValueError):
        pg.simplex_grid(2, 0.0)
    with pytest.raises(ValueError):
        pg.simplex_grid(2, 1.5)


def test_halved_step_is_superset():
    # refinement keeps every coarse point, with exact float equality
    for count in (2, 3):
        for res in (2, 3, 5):
            coarse = {tuple(row) for row in pg.simplex_grid(count, 1.0 / res)}
            fine = {tuple(row) for row in pg.simplex_grid(count, 1.0 / (2 * res))}
            assert coarse <= fine


def test_profile_grid_layout():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 2, 2)
    assert grid.resolution == 2
    assert grid.delta == 0.5
    # cells ordered (player, stage, state): two players x two stages
    assert grid.cell_sizes == [3, 3, 3, 3]
    assert grid.total_profiles == 81
    first = grid.profile_at((0, 0, 0, 0))
    assert np.array_equal(first[0].dist, [[[0.0, 1.0]], [[0.0, 1.0]]])
    mixed = grid.profile_at((0, 1, 2, 0))
    assert np.array_equal(mixed[0].dist, [[[0.0, 1.0]], [[0.5, 0.5]]])
    assert np.array_equal(mixed[1].dist, [[[1.0, 0.0]], [[0.0, 1.0]]])


def test_profile_grid_enumeration_order():
    game = dominant_game(1)
    grid = pg.ProfileGrid(game, 1, 2)
    tuples = list(index_tuples(grid))
    assert tuples == [(0,), (1,), (2,)]
    dists = [grid.profile_at(t)[0].dist[0, 0].tolist() for t in tuples]
    assert dists == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]


def test_grid_profiles_cap():
    assert pg.ProfileGrid(dominant_game(2), 2, 2).total_profiles == 81


def test_search_equilibrium_honours_the_mode():
    # a level of at most max_candidates profiles is enumerated, a larger one
    # sampled: the 81 profiles here are enumerated at a budget of 81 and
    # sampled at 80
    game = dominant_game(2)
    grid = pg.SearchConfig(epsilon=0.1, horizon=2, max_candidates=81)
    sampled = replace(grid, max_candidates=80, seed=3)
    enumerated = pg.search_equilibrium(game, (0, 0), grid)
    assert (enumerated.candidates_examined, enumerated.mode) == (81, "grid")
    # the unique pass is the 53rd distinct draw of this seed
    drawn = pg.search_equilibrium(game, (0, 0), sampled)
    assert (drawn.candidates_examined, drawn.mode) == (53, "sampled")
    assert pg.certify(game, drawn.profile, (0, 0), 2, 0.1).passed


def test_profile_grid_requires_an_integer_resolution():
    with pytest.raises(ValueError, match=r"resolution must be an integer >= 1, got 2\.5"):
        pg.ProfileGrid(dominant_game(2), 1, 2.5)


def test_grid_counts_above_1e15_are_shown_in_scientific_notation():
    assert search._count_text(10**15) == "1000000000000000"
    assert search._count_text(10**15 + 1) == "1.000000e+15"
    # rounded from the exact digits, past where a float overflows
    assert search._count_text(3**1000) == "1.322071e+477"
    assert search._count_text(10**400 - 1) == "1.000000e+400"
    with pytest.raises(pg.GridTooLargeError, match=r"holds 1\.000000e\+16 rows"):
        search._lattice(2, 10**16)


def test_oversized_first_level_is_sampled_not_refused(monkeypatch):
    # 9 profiles against a budget of 8: the level is sampled, not enumerated
    def refuse(*args):
        raise AssertionError("the level was enumerated")

    monkeypatch.setattr(search, "_grid_blocks", refuse)
    config = pg.SearchConfig(epsilon=0.01, horizon=1, initial_delta=0.9, max_candidates=8,
                             refinement_cap=0)
    best = pg.search_equilibrium(pennies_game(), (0, 0), config)
    assert not best.passed
    assert (best.candidates_examined, best.final_delta, best.mode) == (8, 0.5, "sampled")


def test_refinement_samples_a_level_above_the_budget(monkeypatch):
    # resolutions 2, 4 and 8 hold 9, 25 and 81 profiles; with a budget of
    # 30 the first two levels are enumerated and the third samples 30
    built = []
    lattice = search._lattice
    monkeypatch.setattr(search, "_lattice", lambda a, r: built.append(r) or lattice(a, r))
    config = pg.SearchConfig(
        epsilon=0.01, horizon=1, initial_delta=0.9, refinement_cap=2, max_candidates=30
    )
    best = pg.search_equilibrium(pennies_game(), (0, 0), config)
    assert not best.passed
    assert best.levels == 3
    assert best.stop is None
    assert (best.candidates_examined, best.final_delta, best.mode) == (64, 0.125, "sampled")
    assert built == [2, 4, 8]


def test_lattice_too_fine_to_build_is_refused_before_allocation():
    # 10**12 rows of two floats would take 16 TB
    refused = (r"lattice at step 1e-12 over 2 actions holds 1000000000001 rows, above 16777216 "
               r"entries; use a coarser initial_delta")
    with pytest.raises(pg.GridTooLargeError, match=refused):
        search._lattice(2, 10**12)
    assert search._lattice(2, 10**6).shape == (10**6 + 1, 2)  # step 1e-6 still builds


def test_sampled_refinement_stops_before_a_lattice_too_fine_to_build(monkeypatch):
    # resolutions 2, 4 and 8 give lattices of 6, 10 and 18 entries over two
    # actions; the third level is refused and the best certificate kept
    monkeypatch.setattr(search, "_LATTICE_ENTRIES", 10)
    config = pg.SearchConfig(
        epsilon=0.01, horizon=1, initial_delta=0.9, refinement_cap=2, max_candidates=5
    )
    best = pg.search_equilibrium(pennies_game(), (0, 0), config)
    assert not best.passed
    assert best.stop.startswith("lattice at step 0.125 over 2 actions holds 9 rows, above 10")
    assert best.levels == 2
    assert best.final_delta == 0.25
    assert best.mode == "sampled"


def test_refinement_doubles_the_resolution_exactly(monkeypatch):
    # 1/12845056 rounds back to 12845056; a float step halved and rounded up
    # again would refine it to 25690113, off the coarser lattice.  The
    # stand-in lattice is one uniform row broadcast to the real row count,
    # so no large table is built.
    built = []

    def uniform(action_count, resolution):
        built.append(resolution)
        rows = math.comb(resolution + action_count - 1, action_count - 1)
        return np.broadcast_to(np.full(action_count, 1.0 / action_count), (rows, action_count))

    monkeypatch.setattr(search, "_lattice", uniform)
    config = pg.SearchConfig(
        epsilon=0.01, horizon=1, initial_delta=1 / 12_845_056,
        max_candidates=2, refinement_cap=3,
    )
    best = pg.search_equilibrium(dominant_game(1), (0,), config)
    assert not best.passed
    assert built == [12_845_056 << level for level in range(4)]
    assert best.final_delta == 1 / (12_845_056 << 3)


def test_one_action_grid_never_outgrows_the_cap():
    # every level is the same single profile, however many refinements
    players = tuple(pg.PlayerSpec(1, 1, pg.TransitionKernel.stationary([[[1.0]]])) for _ in range(2))
    game = pg.validate_game(
        pg.GameSpec(players=players, discount_beta=0.5, payoff=np.ones((2, 1, 1, 1, 1)))
    )
    config = pg.SearchConfig(epsilon=0.1, horizon=1, refinement_cap=5000, max_candidates=1)
    assert pg.search_equilibrium(game, (0, 0), config).candidates_examined == 1


def test_sampled_indices_cover_small_grids_exactly_once():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 1, 2)  # 9 profiles
    rng = np.random.default_rng(5)
    drawn = list(sampled_profile_indices(grid, rng, 100))
    assert len(drawn) == 9
    assert set(drawn) == set(index_tuples(grid))


def test_sampled_indices_without_replacement_under_limit():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 2, 2)  # 81 profiles
    rng = np.random.default_rng(6)
    drawn = list(sampled_profile_indices(grid, rng, 40))
    assert len(drawn) == 40
    assert len(set(drawn)) == 40
    for indices in drawn:
        assert all(0 <= v < 3 for v in indices)


def test_sampled_indices_deterministic():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 2, 2)
    a = list(sampled_profile_indices(grid, np.random.default_rng(7), 25))
    b = list(sampled_profile_indices(grid, np.random.default_rng(7), 25))
    assert a == b


# ---------------------------------------------------------------- certify


def test_certify_equilibrium_profile_has_zero_gap():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 2, 2)
    profile = grid.profile_at((2, 2, 2, 2))  # everyone plays action 0
    cert = pg.certify(game, profile, (0, 0), 2, 0.01)
    assert cert.passed
    assert np.max(np.abs(cert.gaps)) < 1e-12
    assert cert.values == pytest.approx([1.0 + BETA] * 2, abs=1e-12)


def test_certify_reports_exact_deviation_margin():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 2, 2)
    profile = grid.profile_at((0, 0, 0, 0))  # everyone plays action 1
    margin = 1.0 + BETA  # switching to action 0 at both stages
    cert = pg.certify(game, profile, (0, 0), 2, 3.0 * (margin + 1e-3))
    assert cert.passed
    assert np.max(cert.gaps) == pytest.approx(margin, abs=1e-12)
    cert = pg.certify(game, profile, (0, 0), 2, 3.0 * (margin - 1e-3))
    assert not cert.passed


def test_certify_argument_errors():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 1, 2)
    profile = grid.profile_at((0, 0))
    with pytest.raises(ValueError):
        pg.certify(game, profile, (0, 0), 1, 0.0)
    with pytest.raises(ValueError):
        pg.certify(game, profile, (0,), 1, 0.1)
    with pytest.raises(ValueError):
        pg.certify(game, profile[:1], (0, 0), 1, 0.1)


# ---------------------------------------------------------------- searches


def test_grid_search_scans_to_the_unique_pass():
    # on the half-step lattice only the all-zeros profile closes the gap,
    # and it is the very last candidate in enumeration order
    game = dominant_game(2)
    cert = pg.search_equilibrium(
        game, (0, 0), pg.SearchConfig(epsilon=0.1, horizon=2)
    )
    assert cert.passed
    assert cert.candidates_examined == 81
    assert cert.final_delta == 0.5
    for strat in cert.profile:
        assert np.array_equal(strat.dist, np.array([[[1.0, 0.0]], [[1.0, 0.0]]]))


def test_grid_search_huge_epsilon_takes_first_candidate():
    game = dominant_game(2)
    cert = pg.search_equilibrium(
        game, (0, 0), pg.SearchConfig(epsilon=1e6, horizon=2)
    )
    assert cert.passed
    assert cert.candidates_examined == 1
    for strat in cert.profile:
        assert np.array_equal(strat.dist, np.array([[[0.0, 1.0]], [[0.0, 1.0]]]))


def test_grid_search_single_player_reaches_optimum():
    rng = np.random.default_rng(50)
    for _ in range(5):
        game = random_game(rng, n=1, max_states=2, max_actions=3)
        cert = pg.search_equilibrium(
            game, (0,), pg.SearchConfig(epsilon=0.05, horizon=2)
        )
        tables = [pg.forward_marginals(game, cert.profile[0], 0, 2)]
        rewards = pg.induced_stage_rewards(game, 0, tables, 2)
        _, optimum = enumerate_dm_policies(game, 0, rewards, 0, 2)
        assert cert.best_values[0] == pytest.approx(optimum, abs=1e-9)
        assert cert.values[0] >= optimum - 0.05 / 3 - 1e-9


def test_grid_search_not_found_carries_best_candidate():
    game = pennies_game()
    config = pg.SearchConfig(
        epsilon=0.01, horizon=1, refinement_cap=0, initial_delta=0.9
    )
    best = pg.search_equilibrium(game, (0, 0), config)
    assert not best.passed
    assert best.levels == 1
    assert best.candidates_examined == 9
    assert best.final_delta == 0.5
    # the least-exploitable lattice profile is the even mix
    assert np.max(best.gaps) == pytest.approx(0.25, abs=1e-12)


def test_grid_search_refines_until_pass():
    # the mixed equilibrium sits at 0.4; the best gap on the step-1/2 and
    # step-1/4 lattices is 0.25, dropping to 0.078125 at step 1/8, so this
    # tolerance forces exactly two refinements
    game = pennies_game()
    cert = pg.search_equilibrium(
        game,
        (0, 0),
        pg.SearchConfig(epsilon=0.5, horizon=1, initial_delta=0.9),
    )
    assert cert.passed
    assert cert.final_delta == 0.125
    assert np.max(cert.gaps) <= 0.5 / 3 + 1e-12


def test_exhausted_grid_search_keeps_the_first_of_tied_candidates():
    config = pg.SearchConfig(epsilon=0.01, horizon=1, refinement_cap=0)
    best = pg.search_equilibrium(unreachable_state_pennies(), (0, 0), config)
    assert not best.passed
    assert best.candidates_examined == 81
    assert np.max(best.gaps) == pytest.approx(0.25, abs=1e-12)
    for strat in best.profile:
        # the even mix where it matters, the first lattice row where it does not
        assert np.array_equal(strat.dist, [[[0.5, 0.5], [0.0, 1.0]]])


def test_sampled_search_is_deterministic():
    game = dominant_game(2)
    config = pg.SearchConfig(epsilon=0.1, horizon=2, max_candidates=60, seed=11)
    first = pg.search_equilibrium(game, (0, 0), config)
    second = pg.search_equilibrium(game, (0, 0), config)
    assert first.passed and second.passed
    assert first.candidates_examined == second.candidates_examined
    assert np.array_equal(first.values, second.values)
    for a, b in zip(first.profile, second.profile):
        assert np.array_equal(a.dist, b.dist)


def test_sampled_search_agrees_with_grid_on_unique_pass():
    # only one lattice profile passes, so enumeration and sampling must
    # land on it
    game = dominant_game(2)
    from_grid = pg.search_equilibrium(game, (0, 0), pg.SearchConfig(epsilon=0.1, horizon=2))
    from_samples = pg.search_equilibrium(
        game, (0, 0), pg.SearchConfig(epsilon=0.1, horizon=2, max_candidates=80, seed=3)
    )
    assert (from_grid.mode, from_samples.mode) == ("grid", "sampled")
    assert from_samples.passed
    assert from_samples.final_delta == 0.5
    for a, b in zip(from_samples.profile, from_grid.profile):
        assert np.array_equal(a.dist, b.dist)


def test_sampled_search_not_found():
    game = pennies_game()
    config = pg.SearchConfig(
        epsilon=0.01,
        horizon=1,
        max_candidates=8,
        refinement_cap=0,
        initial_delta=0.9,
        seed=2,
    )
    best = pg.search_equilibrium(game, (0, 0), config)
    assert not best.passed
    assert best.candidates_examined == 8  # 8 distinct draws of the 9 profiles
    assert np.max(best.gaps) == pytest.approx(0.25, abs=1e-12)


def test_certificate_revalidates_bit_for_bit():
    game = dominant_game(3)
    cert = pg.search_equilibrium(game, (0, 0, 0), pg.SearchConfig(epsilon=0.2, horizon=1))
    again = pg.certify(game, cert.profile, (0, 0, 0), cert.horizon, cert.epsilon)
    assert again.passed
    assert np.max(np.abs(again.gaps - cert.gaps)) < 1e-12
    assert np.max(np.abs(again.values - cert.values)) < 1e-12


def test_search_config_validation():
    with pytest.raises(ValueError):
        pg.SearchConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        pg.SearchConfig(epsilon=0.1, initial_delta=1.0)
    with pytest.raises(ValueError):
        pg.SearchConfig(epsilon=0.1, max_candidates=0)
    with pytest.raises(ValueError):
        pg.SearchConfig(epsilon=0.1, refinement_cap=-1)
    with pytest.raises(ValueError, match="seed: must be an integer >= 0"):
        pg.SearchConfig(epsilon=0.1, seed=-1)
    for epsilon in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            pg.SearchConfig(epsilon=epsilon)
    with pytest.raises(ValueError):
        pg.search_equilibrium(
            dominant_game(1), (0,), pg.SearchConfig(epsilon=0.1, horizon=0)
        )


@pytest.mark.parametrize("field, low", [("max_candidates", 1), ("seed", 0), ("refinement_cap", 0)])
@pytest.mark.parametrize("value", [2.5, 1.0, "3", None])
def test_count_settings_must_be_integers(field, low, value):
    with pytest.raises(ValueError, match=rf"^{field}: must be an integer >= {low}, got {value}$"):
        pg.SearchConfig(epsilon=0.1, **{field: value})
    # numpy integers count as integers
    assert getattr(pg.SearchConfig(epsilon=0.1, **{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_one_epsilon_rule(epsilon):
    game = dominant_game(2)
    profile = pg.ProfileGrid(game, 1, 2).profile_at((0, 0))
    rule = "epsilon: must be positive and finite"
    with pytest.raises(ValueError, match=rule):
        pg.SearchConfig(epsilon=epsilon)
    with pytest.raises(ValueError, match=rule):
        pg.certify(game, profile, (0, 0), 1, epsilon)
    with pytest.raises(ValueError, match=rule):
        pg.truncation_horizon(epsilon, game)
    with pytest.raises(ValueError, match=rule):
        pg.lipschitz_delta(epsilon, game)


def test_search_rejects_initial_state_outside_the_chain():
    # the batched kernel indexes by the start state, where -1 would wrap
    with pytest.raises(ValueError, match="initial state -1 of player 1"):
        pg.search_equilibrium(dominant_game(2), (0, -1), pg.SearchConfig(epsilon=0.1, horizon=1))


# ------------------------------------------------------- batched certification

WEIGHTINGS = {
    "identity": pg.WeightingFunction.identity(),
    "prelec": pg.WeightingFunction.prelec(0.65),
    "power_complement": pg.WeightingFunction.power_complement(1.8),
    "table": pg.WeightingFunction.from_table([(0, 0), (0.3, 0.4), (0.7, 0.6), (1, 1)]),
}


def mixed_size_game(rng, n, weighting, stages):
    """Players with unequal (states, actions): (2, 3), (3, 2), (1, 2)."""
    sizes = [(2, 3), (3, 2), (1, 2)][:n]
    players = tuple(
        pg.PlayerSpec(
            S, A, random_kernel(rng, S, A, stages=stages), weighting,
            pg.ValuationFunction.piecewise_power(0.7, 1.5, 0.9),
        )
        for S, A in sizes
    )
    shape = (n, *(S for S, _ in sizes), *(A for _, A in sizes))
    return pg.validate_game(
        pg.GameSpec(players=players, discount_beta=0.6, payoff=rng.normal(size=shape))
    )


@pytest.mark.parametrize("kind", sorted(WEIGHTINGS))
@pytest.mark.parametrize("stages", [1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_block_kernel_matches_scalar_certify(kind, stages, n):
    # certify runs the batched pass on a block of one, so every row must
    # equal it bit for bit wherever it sits in a 40-row block
    rng = np.random.default_rng([n, stages, sorted(WEIGHTINGS).index(kind)])
    game = mixed_size_game(rng, n, WEIGHTINGS[kind], stages)
    horizon = 3
    grid = pg.ProfileGrid(game, horizon, 2)
    x = tuple(int(rng.integers(p.state_count)) for p in game.players)
    block = np.stack([rng.integers(0, c, size=40) for c in grid.cell_sizes], axis=1)
    block[-1] = block[0]  # identical inputs at two positions
    values, best = search._evaluate(game, grid.strategies(block), x, horizon)
    gaps = best - values
    assert np.array_equal(gaps[-1], gaps[0])
    # an allowance that about half the rows meet, so both verdicts occur
    epsilon = 3.0 * float(np.median(gaps.max(axis=1)))
    verdicts = search._passes(gaps.max(axis=1), epsilon)
    assert 0 < verdicts.sum() < len(block)
    for r, indices in enumerate(block):
        cert = pg.certify(game, grid.profile_at(indices), x, horizon, epsilon)
        assert np.array_equal(cert.values, values[r])
        assert np.array_equal(cert.best_values, best[r])
        assert cert.passed == verdicts[r]
    # best responses against brute force over every deterministic policy
    for r in range(3):
        profile = grid.profile_at(block[r])
        tables = [pg.forward_marginals(game, s, x[s.player], horizon) for s in profile]
        for i in range(n):
            rewards = pg.induced_stage_rewards(game, i, tables, horizon)
            _, optimum = enumerate_dm_policies(game, i, rewards, x[i], horizon)
            assert best[r, i] == pytest.approx(optimum, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("kind", sorted(WEIGHTINGS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stage_terms_match_outer_product_oracle(kind, n):
    # certify and the block kernel share _stage_terms, so it is checked
    # against one np.multiply.outer per opponent and a plain discounted sum
    rng = np.random.default_rng([n, 7, sorted(WEIGHTINGS).index(kind)])
    game = mixed_size_game(rng, n, WEIGHTINGS[kind], stages=2)
    horizon = 3
    x = tuple(int(rng.integers(p.state_count)) for p in game.players)
    profiles = [random_profile(rng, game, horizon) for _ in range(4)]
    profiles.append(profiles[1])  # the same row at two positions
    marginals = [
        [pg.forward_marginals(game, s, x[s.player], horizon) for s in profile]
        for profile in profiles
    ]
    tables = [np.stack([m[j].probs for m in marginals]) for j in range(n)]
    for i in range(n):
        rewards, contributions = criterion._stage_terms(game, i, tables, horizon)
        assert np.array_equal(rewards[4], rewards[1])
        assert np.array_equal(contributions[4], contributions[1])
        without_own = [None if j == i else t for j, t in enumerate(tables)]
        alone, missing = criterion._stage_terms(game, i, without_own, horizon)
        assert missing is None
        # with no table at all (one player) the single row serves every row
        assert np.array_equal(np.broadcast_to(alone, rewards.shape), rewards)
        for r, tabs in enumerate(marginals):
            for k in range(horizon):
                weights = opponent_weight_vector(game, i, tabs, k)
                expected = game.discount_beta**k * (game.valued_payoffs[i] @ weights)
                np.testing.assert_allclose(rewards[r, k], expected, rtol=1e-13, atol=1e-15)
                own = tabs[i].probs[k].ravel() @ expected
                assert contributions[r, k] == pytest.approx(own, rel=1e-12, abs=1e-15)


def still_game(action_counts, state_count=1):
    """Players with the given action counts whose states never move, and
    payoff 0: a game for the sampler, which reads only the grid's shape."""
    players = tuple(
        pg.PlayerSpec(state_count, a, pg.TransitionKernel.stationary(
            np.broadcast_to(np.eye(state_count)[:, None, :], (state_count, a, state_count))
        ))
        for a in action_counts
    )
    shape = (len(players),) + (state_count,) * len(players) + tuple(action_counts)
    return pg.validate_game(pg.GameSpec(players=players, discount_beta=0.5, payoff=np.zeros(shape)))


@pytest.mark.parametrize(
    "actions, states, horizon, resolution, limit",
    [
        pytest.param((2, 2), 1, 2, 2, 40, id="2-2-40"),
        pytest.param((2, 2), 1, 2, 2, 80, id="2-2-80"),
        pytest.param((2, 2, 2), 1, 2, 2, 300, id="3-2-300"),
        pytest.param((2, 3), 2, 1, 2, 50, id="mixed-actions"),
        pytest.param((2, 3), 1, 1, 2, 17, id="mixed-actions-17-of-18"),
        pytest.param((3,), 2, 1, 32, 300, id="uint16-keys"),
        pytest.param((2, 3), 1, 1, 32, 300, id="mixed-actions-uint16-keys"),
    ],
)
def test_block_sampler_keeps_the_per_draw_sequence(actions, states, horizon, resolution, limit):
    # draws reject against the visited set.  Equal cell sizes take the
    # scalar draw bound, mixed 2- and 3-action players the array of sizes; (2, 2) at
    # 80 of 81 and (2, 3) at 17 of 18 profiles collide often; resolution
    # 32 gives 3-action cells of 561 indices, so the keys hold uint16
    grid = pg.ProfileGrid(still_game(actions, states), horizon, resolution)
    for seed in range(4):
        reference_rng = np.random.default_rng(seed)
        expected = list(per_draw_profile_indices(grid, reference_rng, limit))
        assert list(sampled_profile_indices(grid, np.random.default_rng(seed), limit)) == expected
        for rows in (1, 7, 64):
            rng = np.random.default_rng(seed)
            blocks = list(search._sampled_blocks(grid, rng, limit, rows))
            assert all(1 <= len(block) <= rows for block in blocks)
            assert [tuple(r) for block in blocks for r in block.tolist()] == expected
            assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_grid_blocks_follow_enumeration_order():
    # horizon 2 from state 0: each player's stage-1 state-1 cell (cells 1
    # and 5) is dead, so the live rows are the enumeration's rows with index
    # 0 there, 729 of 6,561, in the same order
    game = unreachable_state_pennies()
    grid = pg.ProfileGrid(game, 2, 2)
    live = search._live_cells(game, (0, 0), 2)
    assert live.tolist() == [True, False, True, True] * 2
    expected = [t for t in index_tuples(grid) if t[1] == t[5] == 0]
    assert len(expected) == 729
    for rows in (1, 7, 729, 5000):
        blocks = list(search._grid_blocks(grid, live, rows))
        assert all(1 <= len(block) <= rows for block in blocks)
        assert [tuple(r) for block in blocks for r in block.tolist()] == expected
    # the oracle yields the whole grid; positions count it in Python ints
    full = [tuple(r) for b in full_grid_blocks(grid, live, 100) for r in b.tolist()]
    assert full == list(index_tuples(grid))
    assert [search._position(np.array(t), grid) for t in full] == list(range(6561))
    huge = pg.ProfileGrid(dominant_game(2), 20, 2)  # 3**40 profiles
    assert search._position(np.full(40, 2), huge) == 3**40 - 1 > np.iinfo(np.int64).max


@pytest.mark.parametrize("seed", range(40))
def test_live_cells_are_where_the_uniform_strategy_puts_mass(seed):
    # a second route to reachability: every action has positive probability
    # under the uniform strategy, so its marginals put mass on exactly the
    # cells that some strategy reaches
    rng = np.random.default_rng([seed, 9])
    stages = int(rng.integers(1, 4))
    game = random_game(rng, max_states=4, stages=stages, kernel=sparse_kernel)
    horizon = int(rng.integers(1, 5))
    x = random_initial_state(rng, game)
    live = search._live_cells(game, x, horizon)
    expected = []
    for i, p in enumerate(game.players):
        dist = np.full((horizon, p.state_count, p.action_count), 1.0 / p.action_count)
        table = pg.forward_marginals(game, pg.MarkovStrategy(player=i, dist=dist), x[i], horizon)
        expected.extend((table.probs.sum(axis=2) > 0.0).ravel().tolist())
    assert live.tolist() == expected


def grid_outcome(game, x, config):
    """Everything a search reports: status, certificate bytes, count, step,
    final level's mode, levels and why refinement stopped."""
    cert = pg.search_equilibrium(game, x, config)
    return (
        "passed" if cert.passed else "exhausted", cert.mode, cert.levels, cert.stop,
        cert.candidates_examined,
        cert.final_delta, cert.values.tobytes(), cert.best_values.tobytes(), cert.gaps.tobytes(),
        tuple(s.dist.tobytes() for s in cert.profile),
    )


def noisy_pennies(rng, stages):
    """Two players, 1-3 states, 2 actions, sparse kernels: matching pennies
    on the actions plus 0.3 N(0,1) noise, which has no pure equilibrium."""
    players = []
    for _ in range(2):
        S = int(rng.integers(1, 4))
        players.append(pg.PlayerSpec(S, 2, sparse_kernel(rng, S, 2, stages=stages)))
    S0, S1 = players[0].state_count, players[1].state_count
    match = np.equal.outer(np.arange(2), np.arange(2))
    core = np.stack([2.0 * match, 2.0 * ~match])[:, None, None]
    payoff = core + 0.3 * rng.standard_normal((2, S0, S1, 2, 2))
    return pg.validate_game(pg.GameSpec(players=tuple(players), discount_beta=0.5, payoff=payoff))


def test_live_grid_search_matches_the_full_grid(monkeypatch):
    # skipping dead cells must not change a single bit of any outcome:
    # sparse and nonstationary kernels, refinements, integer payoffs (ties),
    # passes and exhaustions, on enumerated levels and then sampled ones
    seen = collections.Counter()
    skipped = 0
    for seed in range(300):
        rng = np.random.default_rng([seed, 300])
        stages = int(rng.integers(1, 3))
        n = (2, 2, 3, 1)[seed % 4]
        if seed % 3 == 2:
            game = noisy_pennies(rng, stages)
        else:
            game = random_game(
                rng, n=n, max_states=3 if n < 3 else 2, stages=stages,
                kernel=sparse_kernel, integer_payoffs=seed % 3 == 0,
            )
        x = random_initial_state(rng, game)
        config = pg.SearchConfig(
            epsilon=float(rng.choice([1e-4, 1e-3, 1e-2])),
            horizon=int(rng.integers(1, 4 - game.n // 2)),
            max_candidates=int(rng.integers(50, 4000)), refinement_cap=int(rng.integers(0, 3)),
            initial_delta=float(rng.choice([0.9, 0.5])),
        )
        skipped += not search._live_cells(game, x, config.horizon).all()
        fast = grid_outcome(game, x, config)
        monkeypatch.setattr(search, "_grid_blocks", full_grid_blocks)
        assert grid_outcome(game, x, config) == fast, seed
        monkeypatch.undo()
        seen[fast[:2]] += 1
    outcomes = [(status, mode) for status in ("passed", "exhausted") for mode in ("grid", "sampled")]
    assert min(seen[outcome] for outcome in outcomes) >= 30, seen
    assert skipped >= 150


def test_grid_exhaust_workload_certifies_only_live_rows(monkeypatch, tmp_path):
    # the benchmark's grid-exhaust config: each player's stage-1 cell at
    # state 1 is dead (1 of 4 cells), so 3**6 = 729 of the 3**8 = 6,561
    # profiles are evaluated, and the count still covers all of them
    workloads = runpy.run_path(str(BENCHMARKS / "workloads.py"))
    path = tmp_path / "grid-exhaust.json"
    path.write_text(workloads["WORKLOADS"]["grid-exhaust"].config_text(workloads["DEFAULT_SEED"]))
    cfg = cli.load_config(path)
    evaluate = search._evaluate
    screen = search._StageOneScreen.__init__
    calls = collections.Counter()

    def counting(game, dists, x, horizon, cutoff=math.inf):
        calls["evaluate"] += 1
        calls["rows"] += len(dists[0])
        return evaluate(game, dists, x, horizon, cutoff)

    def building(self, *args):
        calls["screen"] += 1
        screen(self, *args)

    monkeypatch.setattr(search, "_evaluate", counting)
    monkeypatch.setattr(search._StageOneScreen, "__init__", building)
    best = pg.search_equilibrium(cfg.game, cfg.initial_state, cfg.search)
    assert not best.passed
    assert (best.candidates_examined, best.mode) == (6561, "grid")
    # the live rows are one draw of one chunk: one call, and no cutoff
    # exists before it, so no screen is built
    assert calls["rows"] <= 729
    assert calls["evaluate"] == 1 and calls["screen"] == 0, calls


def test_benchmark_workloads_hold_their_pins(tmp_path, capsys):
    # every benchmark config, generated read-only from the benchmark's
    # workloads file and solved through the CLI: a change that moves a pin
    # fails here, not only in the benchmark.  Each config still names the
    # scan its level size picks (the loader ignores that key).
    workloads = runpy.run_path(str(BENCHMARKS / "workloads.py"))
    for name, pin in workloads["WORKLOADS"].items():
        path = tmp_path / f"{name}.json"
        text = pin.config_text(workloads["DEFAULT_SEED"])
        path.write_text(text)
        out = tmp_path / name
        assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == pin.exit_code, name
        lines = (out / "certificate.txt").read_text().splitlines()
        header = dict(line.split(": ", 1) for line in lines if line.startswith(
            ("mode:", "candidates_examined:", "horizon:", "final_delta:")
        ))
        assert header["mode"] == json.loads(text)["run"]["mode"], name
        assert int(header["candidates_examined"]) == pin.candidates_examined, name
        assert int(header["horizon"]) == pin.horizon, name
        assert float(header["final_delta"]) == pin.final_delta, name


@pytest.mark.parametrize("players", [1, 2, 3, 6])
def test_worst_gap_fold_equals_fmax_reduce(players):
    # NaN marks a player a cutoff skipped; rows of all NaN included
    rng = np.random.default_rng(players)
    gaps = rng.choice([np.nan, -0.5, 0.0, 1e-17, 2.0], size=(455, players))
    expected = np.fmax.reduce(gaps, axis=1)
    assert np.isnan(gaps).any(axis=1).sum() > 50
    assert np.array_equal(search._worst_gaps(gaps), expected, equal_nan=True)


BLOCK_CASES = [
    # unique pass at the last of 81 candidates
    (dominant_game(2), pg.SearchConfig(epsilon=0.1, horizon=2)),
    # passes after two refinements; not found after two
    (pennies_game(), pg.SearchConfig(epsilon=0.5, horizon=1, initial_delta=0.9)),
    (pennies_game(), pg.SearchConfig(epsilon=0.01, horizon=1, initial_delta=0.9, refinement_cap=2)),
    # rejection sampling with 40 draws from 81 profiles per level
    (dominant_game(2), pg.SearchConfig(epsilon=0.1, horizon=2, max_candidates=40, seed=4)),
    # passes at the third level, the second sampled one
    (pennies_game(), pg.SearchConfig(epsilon=0.5, horizon=1, initial_delta=0.9, max_candidates=10, seed=1)),
    (pennies_game(), pg.SearchConfig(epsilon=0.01, horizon=1, initial_delta=0.9, max_candidates=8, refinement_cap=2)),
    # enumerated levels, then a sampled one
    (pennies_game(), pg.SearchConfig(epsilon=0.01, horizon=1, initial_delta=0.9, max_candidates=30, refinement_cap=2)),
    # ties between candidates that differ only in unreachable cells
    (unreachable_state_pennies(), pg.SearchConfig(epsilon=0.01, horizon=1, refinement_cap=0)),
    (unreachable_state_pennies(), pg.SearchConfig(epsilon=0.01, horizon=1, refinement_cap=1, max_candidates=50)),
    # the reference instance: 463 draws, passing in the second default block
    (pg.build_simulation_game(), pg.SearchConfig(epsilon=1e-3, seed=3)),
]


@pytest.mark.parametrize("case", range(len(BLOCK_CASES)))
def test_search_results_do_not_depend_on_block_size(monkeypatch, case):
    # the rows per draw (sampled or enumerated, and screened) and per
    # certification chunk vary independently; None keeps the default
    game, config = BLOCK_CASES[case]
    x = (0,) * game.n
    rows, draw_rows = search._block_sizes(game)
    default = pg.search_equilibrium(game, x, config)
    for chunk, draw in itertools.product((1, 7, None), repeat=2):
        monkeypatch.setattr(search, "_block_sizes", lambda game: (chunk or rows, draw or draw_rows))
        assert_same_certificate(pg.search_equilibrium(game, x, config), default)
        monkeypatch.undo()


@pytest.mark.parametrize("case", [0, 8, len(BLOCK_CASES) - 1])
def test_draws_hold_at_most_the_lattice_entries(monkeypatch, case):
    # a long horizon makes wide index rows: a draw is cut to at most
    # _LATTICE_ENTRIES index entries (rows x cells), here three rows, and
    # the certificate is the uncapped run's (enumerated, sampled over two
    # levels, and the reference instance; every lattice they build fits
    # the smaller bound)
    game, config = BLOCK_CASES[case]
    x = (0,) * game.n
    uncapped = pg.search_equilibrium(game, x, config)
    entries = 3 * config.resolve_horizon(game) * sum(game.state_counts)
    shapes = []
    for name in ("_grid_blocks", "_sampled_blocks"):
        def recording(*args, source=getattr(search, name)):
            for draw in source(*args):
                shapes.append(draw.shape)
                yield draw

        monkeypatch.setattr(search, name, recording)
    monkeypatch.setattr(search, "_LATTICE_ENTRIES", entries)
    assert_same_certificate(pg.search_equilibrium(game, x, config), uncapped)
    assert max(rows for rows, _ in shapes) == 3
    assert all(rows * cells <= entries for rows, cells in shapes)


@pytest.mark.parametrize("case", range(len(BLOCK_CASES)))
def test_search_certificate_equals_certify_of_its_profile(case):
    # the search builds its certificate from the kernel's row; the cases
    # pass and exhaust, enumerated and sampled, and certify of the profile must
    # reproduce the certificate
    game, config = BLOCK_CASES[case]
    x = (0,) * game.n
    cert = pg.search_equilibrium(game, x, config)
    again = pg.certify(game, cert.profile, x, cert.horizon, cert.epsilon)
    assert again.passed == cert.passed
    for field in ("values", "best_values", "gaps"):
        assert np.array_equal(getattr(again, field), getattr(cert, field))


def evaluate_every_player(monkeypatch):
    """Make the search ignore its cutoff, so every player of every row is
    evaluated."""
    evaluate = search._evaluate
    monkeypatch.setattr(
        search, "_evaluate", lambda game, dists, x, horizon, cutoff: evaluate(game, dists, x, horizon)
    )


def assert_bit_equal(lazy, full):
    assert (lazy.passed, lazy.candidates_examined, lazy.final_delta) == (
        full.passed, full.candidates_examined, full.final_delta
    )
    for field in ("values", "best_values", "gaps"):
        assert getattr(lazy, field).tobytes() == getattr(full, field).tobytes()
    for a, b in zip(lazy.profile, full.profile, strict=True):
        assert a.dist.tobytes() == b.dist.tobytes()


@pytest.mark.parametrize("rows", [1, 7, None])  # None keeps the default block size
@pytest.mark.parametrize("case", range(len(BLOCK_CASES)))
def test_lazy_pass_matches_full_pass(monkeypatch, case, rows):
    game, config = BLOCK_CASES[case]
    x = (0,) * game.n
    if rows is not None:
        widest = max(game.opponent_pair_count(i) for i in range(game.n))
        monkeypatch.setattr(search, "_BLOCK_ELEMENTS", rows * widest)
    lazy = pg.search_equilibrium(game, x, config)
    evaluate_every_player(monkeypatch)
    assert_bit_equal(lazy, pg.search_equilibrium(game, x, config))


def test_lazy_pass_matches_full_pass_on_random_games(monkeypatch):
    # three rows per block, so the cutoff set by one block prunes many later
    # ones; the pass must not change a single bit of any outcome
    evaluate = search._evaluate
    pruned = 0

    def counting(game, dists, x, horizon, cutoff):
        nonlocal pruned
        values, best_values = evaluate(game, dists, x, horizon, cutoff)
        pruned += int(np.isnan(values).any(axis=1).sum())
        return values, best_values

    verdicts = set()
    for seed in range(80):
        rng = np.random.default_rng([seed, 80])
        game = random_game(rng, n=int(rng.integers(2, 4)), max_states=2, max_actions=2)
        x = random_initial_state(rng, game)
        # horizon 1 fits the budget of 1000 at both levels (at most 25**3
        # profiles at the second); horizon 2 outgrows 150 at the first
        horizon = 1 + seed % 2
        config = pg.SearchConfig(
            epsilon=float(rng.choice([1e-4, 1e-2, 0.1])), horizon=horizon,
            seed=seed, max_candidates=1000 if horizon == 1 else 150, refinement_cap=1,
        )
        widest = max(game.opponent_pair_count(i) for i in range(game.n))
        monkeypatch.setattr(search, "_BLOCK_ELEMENTS", 3 * widest)
        monkeypatch.setattr(search, "_evaluate", counting)
        lazy = pg.search_equilibrium(game, x, config)
        monkeypatch.setattr(search, "_evaluate", evaluate)
        evaluate_every_player(monkeypatch)
        assert_bit_equal(lazy, pg.search_equilibrium(game, x, config))
        monkeypatch.undo()
        verdicts.add((lazy.mode, lazy.passed))
    assert verdicts == {(m, v) for m in ("grid", "sampled") for v in (True, False)}
    assert pruned > 1000


def test_lazy_pass_prunes_most_player_rows_on_six_prosumers(monkeypatch):
    # the prosumer-wide benchmark run: 400 sampled candidates, none of which
    # passes; one player's gap rules most of them out of the best
    # (the stage-1 screen's calls, on its start-state game, are not counted)
    game = pg.build_prosumer_game(six_prosumers(), discount_beta=0.001)
    stage_terms = search._stage_terms
    rows = 0

    def counting(on, player, tables, horizon):
        nonlocal rows
        rows += len(tables[0]) if on is game else 0
        return stage_terms(on, player, tables, horizon)

    monkeypatch.setattr(search, "_stage_terms", counting)
    config = pg.SearchConfig(
        epsilon=1e-4, max_candidates=400, horizon=4, seed=20250817, refinement_cap=0
    )
    best = pg.search_equilibrium(game, (0,) * 6, config)
    assert not best.passed
    assert best.candidates_examined == 400
    assert rows <= 0.4 * 6 * 400


# ------------------------------------------------------- stage-1 screen


def screen_off(monkeypatch):
    """Switch the stage-1 screen off: an unbounded weight mass makes every
    player's continuation spread and margin infinite or NaN, so no row's
    bound reaches the cutoff."""
    monkeypatch.setattr(criterion, "_weight_mass", lambda weighting, tuples: math.inf)


def assert_same_certificate(screened, plain):
    """Field for field: the profile arrays, values and gaps bitwise."""
    for f in fields(pg.EquilibriumCertificate):
        a, b = getattr(screened, f.name), getattr(plain, f.name)
        if f.name == "profile":
            for s, t in zip(a, b, strict=True):
                assert (s.player, s.dist.tobytes()) == (t.player, t.dist.tobytes())
        elif isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def first_stage_of(profile, x):
    """``ProfileGrid.first_stage`` of one profile: per player, its stage-1
    action distribution at the start state, shape (1, 1, 1, A)."""
    return [strategy.dist[np.newaxis, :1, x[j] : x[j] + 1] for j, strategy in enumerate(profile)]


def one_hot_profile(rng, game, horizon):
    profile = []
    for i, p in enumerate(game.players):
        choice = rng.integers(p.action_count, size=(horizon, p.state_count))
        policy = pg.DeterministicMarkovPolicy(player=i, choice=choice, action_count=p.action_count)
        profile.append(pg.dm_policy_to_strategy(policy))
    return tuple(profile)


def test_stage_one_bound_never_exceeds_the_gap():
    # the screen's lower bound against certify's gap, for every player of
    # random, one-hot and lattice profiles: within the screen's rounding
    # margin above it at most, and equal to it at horizon 1, where no later
    # stage can move
    rng = np.random.default_rng(2204)
    kinds = collections.Counter()
    informative = 0
    for case in range(150):
        horizon = 1 + case % 5
        game = random_game(
            rng, n=int(rng.integers(1, 4)), max_states=3, max_actions=3,
            beta=(case + 0.5) / 150, kernel=sparse_kernel if case % 2 else random_kernel,
        )
        kinds.update(p.weighting.kind for p in game.players)
        x = random_initial_state(rng, game)
        screen = search._StageOneScreen(game, x, horizon)
        grid = pg.ProfileGrid(game, horizon, 2)
        row = np.array([rng.integers(size) for size in grid.cell_sizes])
        cases = [
            (profile, first_stage_of(profile, x))
            for profile in (random_profile(rng, game, horizon), one_hot_profile(rng, game, horizon))
        ]
        cases.append((grid.profile_at(row), grid.first_stage(row[np.newaxis], x)))
        for profile, first in cases:
            gaps = pg.certify(game, profile, x, horizon, 0.1).gaps
            lower = screen.lower_bounds(first)[0]
            assert np.all(lower <= gaps + screen.margin), case
            if horizon == 1:
                assert np.all(np.abs(lower - gaps) <= screen.margin), case
            informative += int(np.sum(lower > 0.0)) if horizon > 1 else 0
    assert set(kinds) == {"identity", "prelec", "power_complement", "table"}
    # the bound is positive, so it can rule a row out, in many of the cases
    # where the later stages move
    assert informative > 50, informative


@pytest.mark.parametrize("kind", sorted(WEIGHTINGS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_screen_weighs_the_stage_pass_tuples_at_its_columns(kind, n, monkeypatch):
    # the screen's stage-1 tuple weights against the full-width ones of
    # _stage_terms: bit for bit at the opponents' start-state columns and
    # exactly 0 elsewhere, and the start game's payoff table is
    # valued_payoffs at those columns, players ascending with the last
    # varying fastest
    rng = np.random.default_rng([n, 23, sorted(WEIGHTINGS).index(kind)])
    game = mixed_size_game(rng, n, WEIGHTINGS[kind], stages=2)
    weigh = pg.WeightingFunction.__call__
    calls = []

    def recording(self, probs):
        calls.append(weigh(self, probs))
        return calls[-1]

    monkeypatch.setattr(pg.WeightingFunction, "__call__", recording)
    for horizon in (1, 2, 3):
        x = random_initial_state(rng, game)
        screen = search._StageOneScreen(game, x, horizon)
        grid = pg.ProfileGrid(game, horizon, 4)
        block = np.stack([rng.integers(0, c, size=5) for c in grid.cell_sizes], axis=1)
        calls.clear()
        screen.lower_bounds(grid.first_stage(block, x))
        # one weighting call per player, players ascending
        screened = list(calls)
        assert len(screened) == n
        tables = [_propagate(game, j, d, x[j], horizon) for j, d in enumerate(grid.strategies(block))]
        beta = game.discount_beta
        later = sum(beta**k for k in range(1, horizon))
        for i, p in enumerate(game.players):
            calls.clear()
            criterion._stage_terms(game, i, tables, 1)
            (full,) = calls
            others = [j for j in range(n) if j != i]
            pairs = [x[j] * game.action_counts[j] + np.arange(game.action_counts[j]) for j in others]
            columns = np.ravel_multi_index(
                np.meshgrid(*pairs, indexing="ij"), [game.pair_count(j) for j in others]
            ).ravel() if others else np.zeros(1, dtype=np.intp)
            own = slice(x[i] * p.action_count, (x[i] + 1) * p.action_count)
            payoffs = screen.game.valued_payoffs[i]
            assert payoffs.tobytes() == game.valued_payoffs[i][own][:, columns].tobytes()
            assert full[:, columns].tobytes() == screened[i].tobytes()
            rest = np.ones(full.shape[1], dtype=bool)
            rest[columns] = False
            assert np.all(full[:, rest] == 0.0)
            # the spread and margin as closed expressions, evaluated in the
            # same order, so the screen's bound keeps its bits
            mass = criterion._weight_mass(p.weighting, game.opponent_pair_count(i))
            spread = float(np.ptp(game.valued_payoffs[i], axis=0).max()) * mass * later
            scale = float(game.value_bounds[i]) * mass * (1.0 + later)
            chain = horizon * (game.opponent_pair_count(i) + game.pair_count(i) + game.n + 16)
            assert screen.spread[i] == spread
            assert screen.margin[i] == 8 * 2.0**-53 * chain * scale


@pytest.mark.parametrize("kind", sorted(WEIGHTINGS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_screen_weighs_a_whole_draw_within_the_block_bound(kind, n, monkeypatch):
    # every row of a draw may be a new start-state combination, so the
    # screen may weigh the whole draw in one pass: each of its weighting
    # calls holds at most _BLOCK_ELEMENTS elements (rows x tuples), and the
    # widest fills more than half of it
    rng = np.random.default_rng([n, 28, sorted(WEIGHTINGS).index(kind)])
    game = mixed_size_game(rng, n, WEIGHTINGS[kind], stages=2)
    _, draw_rows = search._block_sizes(game)
    weigh = pg.WeightingFunction.__call__
    sizes = []

    def recording(self, probs):
        sizes.append(np.size(probs))
        return weigh(self, probs)

    monkeypatch.setattr(pg.WeightingFunction, "__call__", recording)
    x = random_initial_state(rng, game)
    screen = search._StageOneScreen(game, x, 2)
    grid = pg.ProfileGrid(game, 2, 4)
    draw = np.stack([rng.integers(0, c, size=draw_rows) for c in grid.cell_sizes], axis=1)
    screen.lower_bounds(grid.first_stage(draw, x))
    assert len(sizes) == n
    assert search._BLOCK_ELEMENTS // 2 < max(sizes) <= search._BLOCK_ELEMENTS, sizes


@pytest.mark.parametrize("kind", sorted(WEIGHTINGS))
def test_screen_bounds_do_not_depend_on_the_draw(kind):
    # the search screens whole draws and drops rows chunk by chunk, so each
    # row's bound must have the same bits in a block of one as in any draw
    rng = np.random.default_rng([24, sorted(WEIGHTINGS).index(kind)])
    for n in (1, 2, 3):
        game = mixed_size_game(rng, n, WEIGHTINGS[kind], stages=2)
        for horizon in (1, 3):
            x = random_initial_state(rng, game)
            screen = search._StageOneScreen(game, x, horizon)
            grid = pg.ProfileGrid(game, horizon, 4)
            draw = np.stack([rng.integers(0, c, size=85) for c in grid.cell_sizes], axis=1)
            whole = screen.lower_bounds(grid.first_stage(draw, x))
            assert whole.shape == (85, n)
            for r in range(len(draw)):
                alone = screen.lower_bounds(grid.first_stage(draw[r : r + 1], x))
                assert alone.tobytes() == whole[r : r + 1].tobytes(), (n, horizon, r)
            parts = [screen.lower_bounds(grid.first_stage(p, x)) for p in np.array_split(draw, 12)]
            assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("kind", sorted(WEIGHTINGS))
def test_screen_table_matches_lower_bounds(kind):
    # the bounds the screen looks up against lower_bounds of each row's own
    # stage-1 blocks, bit for bit: three draws per level that repeat
    # start-state combinations within and across draws, then a level at
    # double resolution, where the same digits name other distributions
    # (a table kept across levels fails here)
    rng = np.random.default_rng([27, sorted(WEIGHTINGS).index(kind)])
    repeated = stale = 0
    for n in (1, 2, 3):
        game = mixed_size_game(rng, n, WEIGHTINGS[kind], stages=2)
        x = random_initial_state(rng, game)
        screen = search._StageOneScreen(game, x, 2)
        coarse = {}
        for resolution in (2, 4):
            grid = pg.ProfileGrid(game, 2, resolution)
            seen = set()
            for _ in range(3):
                draw = np.stack([rng.integers(0, c, size=40) for c in grid.cell_sizes], axis=1)
                looked_up = screen.bounds(grid, draw)
                assert looked_up.shape == (40, n)
                keys = [tuple(row) for row in draw[:, grid.start_cells(x)].tolist()]
                repeated += len(seen.intersection(keys))
                seen.update(keys)
                for r, key in enumerate(keys):
                    own = screen.lower_bounds(grid.first_stage(draw[r : r + 1], x))[0].tobytes()
                    assert looked_up[r].tobytes() == own, (n, resolution, r)
                    if resolution == 2:
                        coarse[key] = own
                    else:
                        stale += key in coarse and coarse[key] != own
            # each combination drawn at the level is bounded once
            assert len(screen._table) == len(seen)
    assert repeated > 0 and stale > 0


def test_reference_run_screens_each_start_combination_once(monkeypatch):
    # the bundled reference at epsilon 1e-4, the ref-sampled benchmark run:
    # its screened rows take 27 start-state combinations at resolution 2,
    # and one pass on the start game bounds them all.  The first draw's
    # first row, certified alone, sets the cutoff that screens the rest of
    # that draw, so few rows reach the full pass.  The certificate is the
    # one without the screen.
    cfg = cli.load_config(BUNDLED_CONFIG)
    config = replace(cfg.search, epsilon=1e-4)
    assert config.seed == 20250817
    evaluate = search._evaluate
    calls = collections.Counter()
    full = []

    def counting(on, dists, x, horizon, cutoff):
        if on is cfg.game:
            full.append(len(dists[0]))
        else:
            calls["start"] += 1
            calls["start rows"] += len(dists[0])
        return evaluate(on, dists, x, horizon, cutoff)

    monkeypatch.setattr(search, "_evaluate", counting)
    screened = pg.search_equilibrium(cfg.game, cfg.initial_state, config)
    assert screened.passed and screened.candidates_examined == 10583
    assert calls["start"] == 1 and calls["start rows"] <= 27, calls
    assert full[0] == 1 and len(full) <= 4 and sum(full) <= 650, full
    screen_off(monkeypatch)
    assert_same_certificate(screened, pg.search_equilibrium(cfg.game, cfg.initial_state, config))


def test_screen_leaves_every_certificate_unchanged(monkeypatch):
    # the search with the screen against the search without it, field for
    # field: sampled and enumerated levels in chunks of four rows, passes
    # and exhaustions, and chunks where dropped rows sit beside a survivor
    # that becomes the new best.  The hook is the drop rule the search
    # applies to the pending rows before every chunk.
    survives = search._StageOneScreen.survives
    screened_blocks = []

    def recording(self, bounds, cutoff):
        kept = survives(self, bounds, cutoff)
        screened_blocks.append((cutoff, len(bounds), int(kept.sum())))
        return kept

    seen = collections.Counter()
    dropped = beside_new_best = 0
    for seed in range(60):
        rng = np.random.default_rng([seed, 22])
        if seed % 3 == 2:
            game = noisy_pennies(rng, stages=1)
        else:
            game = random_game(
                rng, n=int(rng.integers(2, 4)), max_states=2, max_actions=2,
                integer_payoffs=seed % 3 == 0,
            )
        x = random_initial_state(rng, game)
        config = pg.SearchConfig(
            epsilon=float(rng.choice([1e-3, 1e-2, 0.1])), horizon=1 + seed % 2, seed=seed,
            max_candidates=int(rng.choice([40, 150])), refinement_cap=seed // 2 % 2,
        )
        widest = max(game.opponent_pair_count(i) for i in range(game.n))
        monkeypatch.setattr(search, "_BLOCK_ELEMENTS", 4 * widest)
        monkeypatch.setattr(search._StageOneScreen, "survives", recording)
        screened_blocks.clear()
        screened = pg.search_equilibrium(game, x, config)
        for (cutoff, rows, kept), following in zip(screened_blocks, screened_blocks[1:]):
            beside_new_best += 0 < kept < rows and following[0] < cutoff
        dropped += sum(rows - kept for _, rows, kept in screened_blocks)
        screen_off(monkeypatch)
        assert_same_certificate(screened, pg.search_equilibrium(game, x, config))
        monkeypatch.undo()
        seen[screened.mode, screened.passed] += 1
    assert min(seen[m, v] for m in ("grid", "sampled") for v in (True, False)) >= 2, seen
    assert dropped > 500
    assert beside_new_best > 0


def test_screen_lets_few_six_prosumer_rows_reach_the_pass(monkeypatch):
    # the prosumer-wide benchmark run: stage 1 alone rules out nearly every
    # one of its 400 sampled candidates, and the certificate is unchanged.
    # Only the passes on the full game count, not the screen's own pass on
    # its start-state game.
    game = pg.build_prosumer_game(six_prosumers(), discount_beta=0.001)
    evaluate = search._evaluate
    rows = 0
    lower_bounds = search._StageOneScreen.lower_bounds
    calls = collections.Counter()

    def counting(on, dists, x, horizon, cutoff):
        nonlocal rows
        if on is game:
            rows += len(dists[0])
            calls["evaluate"] += 1
        return evaluate(on, dists, x, horizon, cutoff)

    def screening(self, first):
        calls["screen"] += 1
        return lower_bounds(self, first)

    monkeypatch.setattr(search, "_evaluate", counting)
    monkeypatch.setattr(search._StageOneScreen, "lower_bounds", screening)
    config = pg.SearchConfig(
        epsilon=1e-4, max_candidates=400, horizon=4, seed=20250817, refinement_cap=0
    )
    screened = pg.search_equilibrium(game, (0,) * 6, config)
    assert screened.candidates_examined == 400
    assert rows <= 20
    # the 400 candidates are one draw of 512 rows or fewer: one screen
    # call, not one per 2-row chunk
    assert calls["screen"] == 1 and calls["evaluate"] <= 5, calls
    screen_off(monkeypatch)
    assert_same_certificate(screened, pg.search_equilibrium(game, (0,) * 6, config))
