"""Forward marginal recursion, flow constraints, and strategy round trips."""
import itertools
import re

import numpy as np
import pytest

import ptgames as pg
from helpers import (
    joint_stage_distributions,
    random_game,
    random_initial_state,
    random_profile,
    random_strategy,
)


def test_first_stage_is_start_state_action_distribution():
    rng = np.random.default_rng(0)
    game = random_game(rng, n=1, max_states=3, max_actions=3)
    strat = random_strategy(rng, game, 0, horizon=1)
    table = pg.forward_marginals(game, strat, 1 % game.players[0].state_count, 1)
    x = 1 % game.players[0].state_count
    expected = np.zeros_like(table.probs[0])
    expected[x] = strat.dist[0, x]
    assert np.array_equal(table.probs[0], expected)


def test_deterministic_shift_chain_hand_computed():
    # two states; every action moves the chain to state 1 with certainty
    kernel = pg.TransitionKernel.stationary(
        [[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]
    )
    player = pg.PlayerSpec(state_count=2, action_count=2, kernel=kernel)
    game = pg.validate_game(
        pg.GameSpec(players=(player,), discount_beta=0.5, payoff=np.zeros((1, 2, 2)))
    )
    uniform = pg.MarkovStrategy(player=0, dist=np.full((2, 2, 2), 0.5))
    table = pg.forward_marginals(game, uniform, 0, 2)
    assert np.array_equal(table.probs[0], [[0.5, 0.5], [0.0, 0.0]])
    assert np.array_equal(table.probs[1], [[0.0, 0.0], [0.5, 0.5]])


def test_marginals_match_monte_carlo_frequencies():
    # independent oracle: simulate one million trajectories of the chain and
    # compare empirical (state, action) frequencies per stage within three
    # standard errors
    rng = np.random.default_rng(2024)
    game = random_game(rng, n=1, max_states=3, max_actions=2, beta=0.5)
    spec = game.players[0]
    S, A = spec.state_count, spec.action_count
    horizon = 4
    strat = random_strategy(rng, game, 0, horizon)
    x = 0
    table = pg.forward_marginals(game, strat, x, horizon)

    sim = np.random.default_rng(99)
    trials = 1_000_000
    states = np.full(trials, x)
    for k in range(horizon):
        actions = np.empty(trials, dtype=int)
        for s in range(S):
            mask = states == s
            count = int(mask.sum())
            if count:
                cdf = np.cumsum(strat.dist[k, s])
                actions[mask] = np.searchsorted(cdf, sim.random(count), side="right")
        counts = np.zeros((S, A))
        np.add.at(counts, (states, actions), 1.0)
        freq = counts / trials
        for s in range(S):
            for a in range(A):
                p = table.probs[k, s, a]
                se = np.sqrt(max(p * (1.0 - p), 1e-12) / trials)
                assert abs(freq[s, a] - p) <= 3.0 * se + 1e-9, (k, s, a)
        if k < horizon - 1:
            kern = game.kernel(0, k)
            nxt = np.empty(trials, dtype=int)
            for s in range(S):
                for a in range(A):
                    mask = (states == s) & (actions == a)
                    count = int(mask.sum())
                    if count:
                        cdf = np.cumsum(kern[s, a])
                        nxt[mask] = np.searchsorted(cdf, sim.random(count), side="right")
            states = nxt


def test_stage_mass_is_conserved():
    rng = np.random.default_rng(5)
    for _ in range(20):
        game = random_game(rng, n=1)
        strat = random_strategy(rng, game, 0, 5)
        x = int(rng.integers(game.players[0].state_count))
        table = pg.forward_marginals(game, strat, x, 5)
        sums = table.probs.sum(axis=(1, 2))
        assert np.all(np.abs(sums - 1.0) < 1e-10)


def test_forward_marginals_argument_errors():
    rng = np.random.default_rng(6)
    game = random_game(rng, n=1, max_states=2, max_actions=2)
    strat = random_strategy(rng, game, 0, 2)
    with pytest.raises(ValueError):
        pg.forward_marginals(game, strat, game.players[0].state_count, 2)
    with pytest.raises(ValueError):
        pg.forward_marginals(game, strat, 0, 3)  # strategy too short
    with pytest.raises(ValueError):
        pg.forward_marginals(game, strat, 0, 0)


def test_flow_constraints_accept_forward_output():
    rng = np.random.default_rng(7)
    for _ in range(20):
        game = random_game(rng, n=1, stages=int(rng.integers(1, 3)))
        strat = random_strategy(rng, game, 0, 4)
        x = int(rng.integers(game.players[0].state_count))
        table = pg.forward_marginals(game, strat, x, 4)
        assert pg.check_flow_constraints(game, table, x) == []


def test_flow_constraints_dirac_violation_residuals():
    player = pg.PlayerSpec(
        state_count=2,
        action_count=2,
        kernel=pg.TransitionKernel.stationary(np.full((2, 2, 2), 0.5)),
    )
    game = pg.validate_game(
        pg.GameSpec(players=(player,), discount_beta=0.5, payoff=np.zeros((1, 2, 2)))
    )
    table = pg.MarginalTable(
        player=0, probs=np.array([[[0.5, 0.5], [0.0, 0.0]]])
    )
    violations = pg.check_flow_constraints(game, table, 1)
    assert len(violations) == 2
    by_state = {v.state: v for v in violations}
    assert by_state[0].stage == 1 and by_state[0].residual == pytest.approx(1.0)
    assert by_state[1].stage == 1 and by_state[1].residual == pytest.approx(-1.0)


def test_flow_constraints_flag_exactly_perturbed_cells():
    rng = np.random.default_rng(8)
    game = random_game(rng, n=1, max_states=3, max_actions=2)
    S = game.players[0].state_count
    A = game.players[0].action_count
    strat = random_strategy(rng, game, 0, 4)
    table = pg.forward_marginals(game, strat, 0, 4)
    bump_stage, bump_state, bump_action = 2, S - 1, A - 1
    probs = np.array(table.probs)
    probs[bump_stage, bump_state, bump_action] += 1e-3
    bumped = pg.MarginalTable(player=0, probs=probs)
    violations = pg.check_flow_constraints(game, bumped, 0)
    # the bumped row's own mass balance breaks...
    expected = {(bump_stage + 1, bump_state)}
    # ...and the next stage receives extra pushed-forward mass wherever the
    # kernel row sends it
    kern = game.kernel(0, bump_stage)
    for nxt in np.flatnonzero(kern[bump_state, bump_action] > 1e-9):
        expected.add((bump_stage + 2, int(nxt)))
    assert {(v.stage, v.state) for v in violations} == expected
    for v in violations:
        if (v.stage, v.state) == (bump_stage + 1, bump_state):
            assert v.residual == pytest.approx(1e-3, rel=1e-6)


def test_strategy_round_trip_through_marginals():
    rng = np.random.default_rng(9)
    for _ in range(50):
        game = random_game(rng, n=1)
        horizon = int(rng.integers(1, 5))
        strat = random_strategy(rng, game, 0, horizon)
        x = int(rng.integers(game.players[0].state_count))
        table = pg.forward_marginals(game, strat, x, horizon)
        rebuilt = pg.strategy_from_marginals(table)
        table2 = pg.forward_marginals(game, rebuilt, x, horizon)
        assert np.max(np.abs(table2.probs - table.probs)) <= 1e-12


def test_strategy_from_marginals_uniform_on_dead_states():
    probs = np.zeros((1, 2, 2))
    probs[0, 0] = [0.25, 0.75]
    table = pg.MarginalTable(player=0, probs=probs)
    strat = pg.strategy_from_marginals(table)
    assert np.allclose(strat.dist[0, 0], [0.25, 0.75], atol=1e-15)
    assert np.array_equal(strat.dist[0, 1], [0.5, 0.5])


@pytest.mark.parametrize(
    "entry, message",
    [
        (np.nan, "non-finite probability nan at (t=2, s=1)"),
        (np.inf, "non-finite probability inf at (t=2, s=1)"),
        (-0.5, "negative probability -0.5 at (t=2, s=1)"),
        (0.7, "action distribution sums to 1.2 at (t=2, s=1)"),
    ],
)
def test_markov_strategy_rejects_malformed_rows(entry, message):
    dist = np.full((2, 2, 2), 0.5)
    dist[1, 1, 0] = entry
    with pytest.raises(ValueError, match=re.escape(message)):
        pg.MarkovStrategy(player=0, dist=dist)


def test_markov_strategy_rejects_all_nan_rows():
    # a NaN row sum passes the |sum - 1| > tol test, so finiteness is checked first
    with pytest.raises(ValueError, match=re.escape("non-finite probability nan at (t=1, s=0)")):
        pg.MarkovStrategy(player=0, dist=np.full((2, 2, 2), np.nan))


def test_strategy_from_marginals_rejects_negative_mass():
    probs = np.zeros((1, 1, 2))
    probs[0, 0] = [0.5, 0.5]
    table = pg.MarginalTable(player=0, probs=probs)
    object.__setattr__(table, "probs", np.array([[[-0.1, 1.1]]]))
    with pytest.raises(ValueError):
        pg.strategy_from_marginals(table)


def test_dm_policy_round_trip():
    rng = np.random.default_rng(10)
    for _ in range(20):
        game = random_game(rng, n=1)
        S = game.players[0].state_count
        A = game.players[0].action_count
        m = int(rng.integers(1, 4))
        choice = rng.integers(A, size=(m, S))
        policy = pg.DeterministicMarkovPolicy(player=0, choice=choice, action_count=A)
        strat = pg.dm_policy_to_strategy(policy)
        assert strat.dist.shape == (m, S, A)
        assert np.all(strat.dist.sum(axis=2) == 1.0)
        assert np.array_equal(np.argmax(strat.dist, axis=2), choice)


def test_policy_marginals_match_path_enumeration():
    # independent oracle: enumerate every state path of a deterministic
    # policy and accumulate path probabilities
    rng = np.random.default_rng(11)
    game = random_game(rng, n=1, max_states=2, max_actions=2)
    S = game.players[0].state_count
    A = game.players[0].action_count
    m = 3
    choice = rng.integers(A, size=(m, S))
    policy = pg.DeterministicMarkovPolicy(player=0, choice=choice, action_count=A)
    table = pg.forward_marginals(game, pg.dm_policy_to_strategy(policy), 0, m)
    # suffix probabilities sum to 1, so adding each full path's probability
    # at every stage along it yields exactly the stage marginals
    expected = np.zeros((m, S, A))
    for path in itertools.product(range(S), repeat=m):
        if path[0] != 0:
            continue
        prob = 1.0
        for k in range(m - 1):
            prob *= game.kernel(0, k)[path[k], choice[k, path[k]], path[k + 1]]
        for k in range(m):
            expected[k, path[k], choice[k, path[k]]] += prob
    assert np.max(np.abs(expected - table.probs)) < 1e-12


def test_marginal_convexity():
    # tables from two strategies blend into a table from the blended... the
    # set of realizable tables is convex, so the blend must pass the checker
    rng = np.random.default_rng(12)
    game = random_game(rng, n=1, max_states=3, max_actions=2)
    x = 0
    t1 = pg.forward_marginals(game, random_strategy(rng, game, 0, 3), x, 3)
    t2 = pg.forward_marginals(game, random_strategy(rng, game, 0, 3), x, 3)
    lam = 0.3
    blend = pg.MarginalTable(player=0, probs=lam * t1.probs + (1 - lam) * t2.probs)
    assert pg.check_flow_constraints(game, blend, x) == []


def test_joint_chain_factorization():
    # the joint stage distribution of independent chains is the product of
    # the per-player marginals; cross-check against plain joint enumeration
    rng = np.random.default_rng(13)
    for _ in range(5):
        game = random_game(rng, n=2, max_states=2, max_actions=2)
        horizon = 3
        profile = random_profile(rng, game, horizon)
        x = random_initial_state(rng, game)
        tables = [
            pg.forward_marginals(game, profile[i], x[i], horizon) for i in range(2)
        ]
        stages = joint_stage_distributions(game, profile, x, horizon)
        for k in range(horizon):
            for s in itertools.product(*(range(c) for c in game.state_counts)):
                for a in itertools.product(*(range(c) for c in game.action_counts)):
                    product = tables[0].probs[k, s[0], a[0]] * tables[1].probs[k, s[1], a[1]]
                    joint = stages[k].get((s, a), 0.0)
                    assert abs(product - joint) <= 1e-12
