"""Lattice enumeration, certification, and the equilibrium search in both modes."""
import math
from dataclasses import replace

import numpy as np
import pytest

import ptgames as pg
from ptgames import criterion, search
from helpers import (
    enumerate_dm_policies,
    index_tuples,
    opponent_weight_vector,
    per_draw_profile_indices,
    random_game,
    random_kernel,
    random_initial_state,
    random_profile,
    sampled_profile_indices,
    six_prosumers,
)

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


def test_simplex_grid_rows_are_distributions():
    for count in (1, 2, 3, 4):
        rows = pg.simplex_grid(count, 1 / 3)
        assert np.all(rows >= 0.0)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=0)


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
    grid = pg.ProfileGrid(game, 2, 0.5)
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
    grid = pg.ProfileGrid(game, 1, 0.5)
    tuples = list(index_tuples(grid))
    assert tuples == [(0,), (1,), (2,)]
    dists = [grid.profile_at(t)[0].dist[0, 0].tolist() for t in tuples]
    assert dists == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]


def test_grid_profiles_cap():
    game = dominant_game(2)
    with pytest.raises(pg.GridTooLargeError, match="use sampled mode"):
        pg.ProfileGrid(game, 2, 0.5, cap=80)
    grid = pg.ProfileGrid(game, 2, 0.5, cap=81)
    assert grid.total_profiles == 81


def test_grid_cap_is_checked_before_any_lattice_is_built(monkeypatch):
    # a step of 1e-6 would build lattices of 10**6 rows before refusing
    def refuse(*args):
        raise AssertionError("simplex_grid called for an oversized grid")

    monkeypatch.setattr(search, "simplex_grid", refuse)
    game = dominant_game(2)
    with pytest.raises(pg.GridTooLargeError, match="1000002000001 candidates"):
        pg.ProfileGrid(game, 1, 1e-6, cap=10**6)
    config = pg.SearchConfig(epsilon=0.1, horizon=1, initial_delta=1e-6, max_candidates=10**6)
    with pytest.raises(pg.GridTooLargeError):
        pg.search_equilibrium(game, (0, 0), config)


def test_oversized_first_level_is_refused_before_any_certification(monkeypatch):
    def refuse(*args):
        raise AssertionError("a candidate was certified")

    monkeypatch.setattr(search, "_evaluate", refuse)
    config = pg.SearchConfig(epsilon=0.01, horizon=1, initial_delta=0.9, max_candidates=8)
    with pytest.raises(pg.GridTooLargeError, match=r"at step 0\.5 holds 9 candidates"):
        pg.search_equilibrium(pennies_game(), (0, 0), config)


def test_grid_refinement_stops_before_a_level_above_the_cap(monkeypatch):
    # steps 1/2, 1/4 and 1/8 hold 9, 25 and 81 profiles; with a cap of 30
    # the third level is refused before any candidate is certified, so the
    # search exhausts two levels and keeps its best certificate
    built = []
    lattice = search.simplex_grid
    monkeypatch.setattr(search, "simplex_grid", lambda a, d: built.append(d) or lattice(a, d))
    config = pg.SearchConfig(
        epsilon=0.01, horizon=1, initial_delta=0.9, refinement_cap=2, max_candidates=30
    )
    stopped = r"refinement stopped: profile grid at step 0\.125 holds 81 candidates"
    with pytest.raises(pg.EquilibriumNotFoundError, match=stopped) as info:
        pg.search_equilibrium(pennies_game(), (0, 0), config)
    assert info.value.levels == 2
    best = info.value.best_certificate
    assert (best.candidates_examined, best.final_delta) == (34, 0.25)
    assert built == [0.5, 0.25]


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
    grid = pg.ProfileGrid(game, 1, 0.5)  # 9 profiles
    rng = np.random.default_rng(5)
    drawn = list(sampled_profile_indices(grid, rng, 100))
    assert len(drawn) == 9
    assert set(drawn) == set(index_tuples(grid))


def test_sampled_indices_without_replacement_under_limit():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 2, 0.5)  # 81 profiles
    rng = np.random.default_rng(6)
    drawn = list(sampled_profile_indices(grid, rng, 40))
    assert len(drawn) == 40
    assert len(set(drawn)) == 40
    for indices in drawn:
        assert all(0 <= v < 3 for v in indices)


def test_sampled_indices_deterministic():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 2, 0.5)
    a = list(sampled_profile_indices(grid, np.random.default_rng(7), 25))
    b = list(sampled_profile_indices(grid, np.random.default_rng(7), 25))
    assert a == b


# ---------------------------------------------------------------- certify


def test_certify_equilibrium_profile_has_zero_gap():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 2, 0.5)
    profile = grid.profile_at((2, 2, 2, 2))  # everyone plays action 0
    cert = pg.certify(game, profile, (0, 0), 2, 0.01)
    assert cert.passed
    assert np.max(np.abs(cert.gaps)) < 1e-12
    assert cert.values == pytest.approx([1.0 + BETA] * 2, abs=1e-12)


def test_certify_reports_exact_deviation_margin():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 2, 0.5)
    profile = grid.profile_at((0, 0, 0, 0))  # everyone plays action 1
    margin = 1.0 + BETA  # switching to action 0 at both stages
    cert = pg.certify(game, profile, (0, 0), 2, 3.0 * (margin + 1e-3))
    assert cert.passed
    assert np.max(cert.gaps) == pytest.approx(margin, abs=1e-12)
    cert = pg.certify(game, profile, (0, 0), 2, 3.0 * (margin - 1e-3))
    assert not cert.passed


def test_certify_argument_errors():
    game = dominant_game(2)
    grid = pg.ProfileGrid(game, 1, 0.5)
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


def test_grid_search_rejects_oversized_grid():
    game = dominant_game(2)
    with pytest.raises(pg.GridTooLargeError, match="use sampled mode"):
        pg.search_equilibrium(
            game,
            (0, 0),
            pg.SearchConfig(epsilon=0.1, horizon=2, max_candidates=80),
        )


def test_grid_search_not_found_carries_best_candidate():
    game = pennies_game()
    config = pg.SearchConfig(
        epsilon=0.01, horizon=1, refinement_cap=0, initial_delta=0.9
    )
    with pytest.raises(pg.EquilibriumNotFoundError) as info:
        pg.search_equilibrium(game, (0, 0), config)
    err = info.value
    assert err.levels == 1
    best = err.best_certificate
    assert not best.passed
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
    with pytest.raises(pg.EquilibriumNotFoundError) as info:
        pg.search_equilibrium(unreachable_state_pennies(), (0, 0), config)
    best = info.value.best_certificate
    assert best.candidates_examined == 81
    assert np.max(best.gaps) == pytest.approx(0.25, abs=1e-12)
    for strat in best.profile:
        # the even mix where it matters, the first lattice row where it does not
        assert np.array_equal(strat.dist, [[[0.5, 0.5], [0.0, 1.0]]])


def test_sampled_search_is_deterministic():
    game = dominant_game(2)
    config = pg.SearchConfig(epsilon=0.1, horizon=2, mode="sampled", seed=11)
    first = pg.search_equilibrium(game, (0, 0), config)
    second = pg.search_equilibrium(game, (0, 0), config)
    assert first.passed and second.passed
    assert first.candidates_examined == second.candidates_examined
    assert np.array_equal(first.values, second.values)
    for a, b in zip(first.profile, second.profile):
        assert np.array_equal(a.dist, b.dist)


def test_sampled_search_agrees_with_grid_on_unique_pass():
    # only one lattice profile passes, so both modes must land on it
    game = dominant_game(2)
    from_grid = pg.search_equilibrium(game, (0, 0), pg.SearchConfig(epsilon=0.1, horizon=2))
    from_samples = pg.search_equilibrium(
        game, (0, 0), pg.SearchConfig(epsilon=0.1, horizon=2, mode="sampled", seed=3)
    )
    assert from_samples.passed
    assert from_samples.final_delta == 0.5
    for a, b in zip(from_samples.profile, from_grid.profile):
        assert np.array_equal(a.dist, b.dist)


def test_sampled_search_not_found():
    game = pennies_game()
    config = pg.SearchConfig(
        epsilon=0.01,
        horizon=1,
        mode="sampled",
        refinement_cap=0,
        initial_delta=0.9,
        seed=2,
    )
    with pytest.raises(pg.EquilibriumNotFoundError) as info:
        pg.search_equilibrium(game, (0, 0), config)
    best = info.value.best_certificate
    assert best.candidates_examined == 9  # grid smaller than the budget
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
        pg.SearchConfig(epsilon=0.1, mode="annealed")
    with pytest.raises(ValueError):
        pg.SearchConfig(epsilon=0.1, max_candidates=0)
    with pytest.raises(ValueError):
        pg.SearchConfig(epsilon=0.1, refinement_cap=-1)
    with pytest.raises(ValueError, match="seed: must be >= 0"):
        pg.SearchConfig(epsilon=0.1, seed=-1)
    for epsilon in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            pg.SearchConfig(epsilon=epsilon)
    with pytest.raises(ValueError):
        pg.search_equilibrium(
            dominant_game(1), (0,), pg.SearchConfig(epsilon=0.1, horizon=0)
        )


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_one_epsilon_rule(epsilon):
    game = dominant_game(2)
    profile = pg.ProfileGrid(game, 1, 0.5).profile_at((0, 0))
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
    grid = pg.ProfileGrid(game, horizon, 0.5)
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


@pytest.mark.parametrize("n, horizon, limit", [(2, 1, 100), (2, 2, 40), (2, 2, 80), (3, 2, 300)])
def test_block_sampler_keeps_the_per_draw_sequence(n, horizon, limit):
    # (2, 1, 100) shuffles the whole 9-profile grid; the others reject
    # against the visited set, (2, 2, 80) with many collisions
    grid = pg.ProfileGrid(dominant_game(n), horizon, 0.5)
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
    grid = pg.ProfileGrid(dominant_game(2), 2, 0.5)
    for rows in (1, 7, 81, 500):
        blocks = list(search._grid_blocks(grid, rows))
        assert [tuple(r) for block in blocks for r in block.tolist()] == list(index_tuples(grid))


def outcome(game, x, config):
    """The search's certificate: the passing one, or the best on exhaustion."""
    try:
        return pg.search_equilibrium(game, x, config)
    except pg.EquilibriumNotFoundError as exc:
        return exc.best_certificate


BLOCK_CASES = [
    # unique pass at the last of 81 candidates
    (dominant_game(2), pg.SearchConfig(epsilon=0.1, horizon=2)),
    # passes after two refinements; not found after two
    (pennies_game(), pg.SearchConfig(epsilon=0.5, horizon=1, initial_delta=0.9)),
    (pennies_game(), pg.SearchConfig(epsilon=0.01, horizon=1, initial_delta=0.9, refinement_cap=2)),
    # rejection sampling with 40 draws from 81 profiles per level
    (dominant_game(2), pg.SearchConfig(epsilon=0.1, horizon=2, mode="sampled", max_candidates=40, seed=4)),
    # whole-grid shuffles across refinements
    (pennies_game(), pg.SearchConfig(epsilon=0.5, horizon=1, initial_delta=0.9, mode="sampled", seed=1)),
    (pennies_game(), pg.SearchConfig(epsilon=0.01, horizon=1, initial_delta=0.9, mode="sampled", refinement_cap=2)),
    # ties between candidates that differ only in unreachable cells
    (unreachable_state_pennies(), pg.SearchConfig(epsilon=0.01, horizon=1, refinement_cap=0)),
    (unreachable_state_pennies(), pg.SearchConfig(epsilon=0.01, horizon=1, mode="sampled", refinement_cap=1, max_candidates=50)),
    # the reference instance: 463 draws, passing in the second default block
    (pg.build_simulation_game(), pg.SearchConfig(epsilon=1e-3, mode="sampled", seed=3)),
]


@pytest.mark.parametrize("case", range(len(BLOCK_CASES)))
def test_search_results_do_not_depend_on_block_size(monkeypatch, case):
    game, config = BLOCK_CASES[case]
    x = (0,) * game.n
    widest = max(game.opponent_pair_count(i) for i in range(game.n))
    results = []
    for rows in (1, 7, None):  # None keeps the default block size
        if rows is not None:
            monkeypatch.setattr(search, "_BLOCK_ELEMENTS", rows * widest)
        results.append(outcome(game, x, config))
        monkeypatch.undo()
    first = results[0]
    for cert in results[1:]:
        assert (cert.passed, cert.candidates_examined, cert.final_delta) == (
            first.passed, first.candidates_examined, first.final_delta
        )
        assert np.array_equal(cert.gaps, first.gaps)
        for a, b in zip(cert.profile, first.profile):
            assert np.array_equal(a.dist, b.dist)


@pytest.mark.parametrize("case", range(len(BLOCK_CASES)))
def test_search_certificate_equals_certify_of_its_profile(case):
    # the search builds its certificate from the kernel's row; the cases
    # pass and exhaust in both modes, and certify of the profile must
    # reproduce the certificate
    game, config = BLOCK_CASES[case]
    x = (0,) * game.n
    cert = outcome(game, x, config)
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
    lazy = outcome(game, x, config)
    evaluate_every_player(monkeypatch)
    assert_bit_equal(lazy, outcome(game, x, config))


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
        mode = ("grid", "sampled")[seed % 2]
        config = pg.SearchConfig(
            epsilon=float(rng.choice([1e-4, 1e-2, 0.1])), horizon=1 if mode == "grid" else 2,
            mode=mode, seed=seed, max_candidates=1000 if mode == "grid" else 150,
            refinement_cap=1,
        )
        widest = max(game.opponent_pair_count(i) for i in range(game.n))
        monkeypatch.setattr(search, "_BLOCK_ELEMENTS", 3 * widest)
        monkeypatch.setattr(search, "_evaluate", counting)
        lazy = outcome(game, x, config)
        monkeypatch.setattr(search, "_evaluate", evaluate)
        evaluate_every_player(monkeypatch)
        assert_bit_equal(lazy, outcome(game, x, config))
        monkeypatch.undo()
        verdicts.add((mode, lazy.passed))
    assert verdicts == {(m, v) for m in ("grid", "sampled") for v in (True, False)}
    assert pruned > 1000


def test_lazy_pass_prunes_most_player_rows_on_six_prosumers(monkeypatch):
    # the prosumer-wide benchmark run: 400 sampled candidates, none of which
    # passes; one player's gap rules most of them out of the best
    game = pg.build_prosumer_game(six_prosumers(), discount_beta=0.001)
    stage_terms = search._stage_terms
    rows = 0

    def counting(game, player, tables, horizon):
        nonlocal rows
        rows += len(tables[0])
        return stage_terms(game, player, tables, horizon)

    monkeypatch.setattr(search, "_stage_terms", counting)
    config = pg.SearchConfig(
        epsilon=1e-4, mode="sampled", max_candidates=400, horizon=4, seed=20250817, refinement_cap=0
    )
    with pytest.raises(pg.EquilibriumNotFoundError) as info:
        pg.search_equilibrium(game, (0,) * 6, config)
    assert info.value.best_certificate.candidates_examined == 400
    assert rows <= 0.4 * 6 * 400


def test_search_equilibrium_honours_the_mode():
    game = dominant_game(2)
    grid = pg.SearchConfig(epsilon=0.1, horizon=2)
    sampled = replace(grid, mode="sampled", seed=3)
    assert pg.search_equilibrium(game, (0, 0), grid).candidates_examined == 81
    # the unique pass is the 30th profile of this seed's shuffle of all 81
    assert pg.search_equilibrium(game, (0, 0), sampled).candidates_examined == 30
    # the grid cap binds grid mode only
    with pytest.raises(pg.GridTooLargeError):
        pg.search_equilibrium(game, (0, 0), replace(grid, max_candidates=80))
    pg.search_equilibrium(game, (0, 0), replace(sampled, max_candidates=80))
