"""Induced stage rewards and exact best responses."""
import itertools
import re

import numpy as np
import pytest

import ptgames as pg
from ptgames import best_response
from helpers import (
    backward_by_reduction,
    enumerate_dm_policies,
    random_game,
    random_initial_state,
    random_kernel,
    random_profile,
    random_strategy,
)


def make_marginals(game, profile, x, horizon):
    return [
        pg.forward_marginals(game, profile[i], x[i], horizon)
        for i in range(game.n)
    ]


def loop_stage_rewards(game, player, marginals, horizon):
    """Slow reimplementation with explicit loops over opponent tuples."""
    spec = game.players[player]
    w = spec.weighting
    v = spec.valuation
    beta = game.discount_beta
    opponents = [j for j in range(game.n) if j != player]
    out = np.zeros((horizon, spec.state_count, spec.action_count))
    for k in range(horizon):
        for s in range(spec.state_count):
            for a in range(spec.action_count):
                total = 0.0
                pair_ranges = [
                    itertools.product(
                        range(game.players[j].state_count),
                        range(game.players[j].action_count),
                    )
                    for j in opponents
                ]
                for combo in itertools.product(*pair_ranges):
                    prob = 1.0
                    for j, (sj, aj) in zip(opponents, combo):
                        prob *= marginals[j].probs[k, sj, aj]
                    states = [None] * game.n
                    actions = [None] * game.n
                    states[player], actions[player] = s, a
                    for j, (sj, aj) in zip(opponents, combo):
                        states[j], actions[j] = sj, aj
                    total += w(prob) * v(
                        game.payoff(player, tuple(states), tuple(actions))
                    )
                out[k, s, a] = beta**k * total
    return out


def test_no_opponents_rewards_are_valued_payoffs():
    rng = np.random.default_rng(31)
    game = random_game(rng, n=1, max_states=2, max_actions=2)
    spec = game.players[0]
    rewards = pg.induced_stage_rewards(game, 0, [None], 3)
    v = spec.valuation
    for k in range(3):
        for s in range(spec.state_count):
            for a in range(spec.action_count):
                expected = game.discount_beta**k * v(game.payoff(0, (s,), (a,)))
                assert rewards.rewards[k, s, a] == pytest.approx(expected, abs=1e-14)


def test_induced_rewards_match_loop_oracle():
    rng = np.random.default_rng(32)
    for _ in range(10):
        game = random_game(rng, n=int(rng.integers(2, 4)), max_states=2, max_actions=2)
        horizon = int(rng.integers(1, 4))
        profile = random_profile(rng, game, horizon)
        x = random_initial_state(rng, game)
        tables = make_marginals(game, profile, x, horizon)
        player = int(rng.integers(game.n))
        rewards = pg.induced_stage_rewards(game, player, tables, horizon)
        oracle = loop_stage_rewards(game, player, tables, horizon)
        assert np.max(np.abs(rewards.rewards - oracle)) < 1e-12


def test_identity_weighting_collapses_to_expectation():
    # with identity weighting the reward is the plain expectation of the
    # valued payoff over the opponents' joint distribution
    rng = np.random.default_rng(33)
    game = random_game(rng, n=2, max_states=2, max_actions=2, identity_pt=True)
    horizon = 2
    profile = random_profile(rng, game, horizon)
    tables = make_marginals(game, profile, (0, 0), horizon)
    rewards = pg.induced_stage_rewards(game, 0, tables, horizon)
    spec = game.players[0]
    opp = game.players[1]
    for k in range(horizon):
        for s in range(spec.state_count):
            for a in range(spec.action_count):
                mean = sum(
                    tables[1].probs[k, sj, aj] * game.payoff(0, (s, sj), (a, aj))
                    for sj in range(opp.state_count)
                    for aj in range(opp.action_count)
                )
                assert rewards.rewards[k, s, a] == pytest.approx(
                    game.discount_beta**k * mean, abs=1e-12
                )


def test_entry_at_player_slot_is_ignored():
    rng = np.random.default_rng(34)
    game = random_game(rng, n=2, max_states=2, max_actions=2)
    profile = random_profile(rng, game, 2)
    tables = make_marginals(game, profile, (0, 0), 2)
    with_own = pg.induced_stage_rewards(game, 0, tables, 2)
    without_own = pg.induced_stage_rewards(game, 0, [None, tables[1]], 2)
    assert np.array_equal(with_own.rewards, without_own.rewards)


def test_single_stage_best_response_maximizes_rows():
    rng = np.random.default_rng(35)
    game = random_game(rng, n=1, max_states=3, max_actions=3)
    rewards = pg.induced_stage_rewards(game, 0, [None], 1)
    result = pg.backward_induction(game, 0, rewards, 0, 1)
    assert np.array_equal(result.policy.choice[0], np.argmax(rewards.rewards[0], axis=1))
    assert result.value == pytest.approx(np.max(rewards.rewards[0, 0]), abs=1e-15)


def test_ties_break_to_lowest_action_index():
    player = pg.PlayerSpec(
        state_count=1,
        action_count=3,
        kernel=pg.TransitionKernel.stationary([[[1.0], [1.0], [1.0]]]),
    )
    game = pg.validate_game(
        pg.GameSpec(players=(player,), discount_beta=0.5, payoff=np.zeros((1, 1, 3)))
    )
    rewards = pg.StageRewardTable(player=0, rewards=np.zeros((2, 1, 3)))
    result = pg.backward_induction(game, 0, rewards, 0, 2)
    assert np.array_equal(result.policy.choice, np.zeros((2, 1), dtype=int))


def tied_game(rng, action_count, stages):
    """One player on 3 states whose last action has action 0's kernel rows,
    so the two actions' reward-to-go tie at every stage where their rewards
    do."""
    probs = random_kernel(rng, 3, action_count, stages).probs.copy()
    probs[:, :, -1] = probs[:, :, 0]
    player = pg.PlayerSpec(3, action_count, pg.TransitionKernel(probs=probs))
    return pg.validate_game(
        pg.GameSpec(players=(player,), discount_beta=0.5, payoff=np.zeros((1, 3, action_count)))
    )


@pytest.mark.parametrize("stages", [1, 2], ids=["stationary", "two-stage"])
@pytest.mark.parametrize("rows", [1, 2, 455])
@pytest.mark.parametrize("action_count", [1, 2, 3, 5])
def test_backward_folds_equal_the_reductions(action_count, rows, stages):
    # rewards from a small set with both zeros, so columns tie often and
    # maxima land on signed zeros; every other row repeats action 0's
    # rewards in the last action, so those rows tie at every stage
    rng = np.random.default_rng(1000 * action_count + 10 * rows + stages)
    game = tied_game(rng, action_count, stages)
    q = rng.choice([-1.0, -0.0, 0.0, 0.25, 1.0], size=(rows, 3, 3, action_count))
    q[::2, ..., -1] = q[::2, ..., 0]
    values, choice = best_response._backward(game, 0, q)
    expected_values, expected_choice = backward_by_reduction(game, 0, q)
    assert np.array_equal(values, expected_values)
    assert np.array_equal(np.signbit(values), np.signbit(expected_values))
    assert np.array_equal(choice, expected_choice)
    assert choice.dtype == expected_choice.dtype


def test_backward_induction_is_reproducible():
    rng = np.random.default_rng(36)
    game = random_game(rng, n=2, max_states=3, max_actions=3)
    profile = random_profile(rng, game, 3)
    tables = make_marginals(game, profile, (0, 0), 3)
    rewards = pg.induced_stage_rewards(game, 0, tables, 3)
    r1 = pg.backward_induction(game, 0, rewards, 0, 3)
    r2 = pg.backward_induction(game, 0, rewards, 0, 3)
    assert r1.value == r2.value
    assert np.array_equal(r1.policy.choice, r2.policy.choice)
    assert np.array_equal(r1.stage_state_values, r2.stage_state_values)


def test_backward_induction_matches_enumeration():
    rng = np.random.default_rng(37)
    for _ in range(25):
        game = random_game(rng, n=int(rng.integers(1, 3)), max_states=3, max_actions=2)
        horizon = int(rng.integers(1, 4))
        profile = random_profile(rng, game, horizon)
        x = random_initial_state(rng, game)
        tables = make_marginals(game, profile, x, horizon)
        player = int(rng.integers(game.n))
        rewards = pg.induced_stage_rewards(game, player, tables, horizon)
        recursive = pg.backward_induction(game, player, rewards, x[player], horizon)
        _policy, brute_value = enumerate_dm_policies(
            game, player, rewards, x[player], horizon
        )
        assert recursive.value == pytest.approx(brute_value, abs=1e-9)


def test_enumeration_cap_carries_policy_count():
    rng = np.random.default_rng(38)
    game = random_game(rng, n=1, max_states=2, max_actions=2)
    S = game.players[0].state_count
    A = game.players[0].action_count
    m = 2
    strategy = random_strategy(rng, game, 0, m)
    rewards = pg.induced_stage_rewards(game, 0, [None], m)
    total = A ** (m * S)
    with pytest.raises(ValueError, match=str(total)):
        enumerate_dm_policies(game, 0, rewards, 0, m, cap=total - 1)
    # with the cap at the exact count it runs
    enumerate_dm_policies(game, 0, rewards, 0, m, cap=total)


def test_best_response_dominates_random_strategies():
    rng = np.random.default_rng(39)
    game = random_game(rng, n=2, max_states=2, max_actions=3)
    horizon = 3
    profile = random_profile(rng, game, horizon)
    x = random_initial_state(rng, game)
    tables = make_marginals(game, profile, x, horizon)
    rewards = pg.induced_stage_rewards(game, 0, tables, horizon)
    best = pg.backward_induction(game, 0, rewards, x[0], horizon)
    for _ in range(100):
        challenger = random_strategy(rng, game, 0, horizon)
        marg = pg.forward_marginals(game, challenger, x[0], horizon)
        value = float(np.sum(marg.probs * rewards.rewards))
        assert value <= best.value + 1e-10


def test_marginal_weighted_rewards_equal_pt_value():
    # contracting the player's own marginals against the induced rewards
    # reproduces the distorted value exactly
    rng = np.random.default_rng(40)
    for _ in range(10):
        game = random_game(rng, n=int(rng.integers(1, 4)), max_states=2, max_actions=2)
        horizon = int(rng.integers(1, 4))
        profile = random_profile(rng, game, horizon)
        x = random_initial_state(rng, game)
        tables = make_marginals(game, profile, x, horizon)
        report = pg.pt_payoff(game, tables, horizon)
        for i in range(game.n):
            rewards = pg.induced_stage_rewards(game, i, tables, horizon)
            contracted = float(np.sum(tables[i].probs[:horizon] * rewards.rewards))
            assert contracted == pytest.approx(report.value(i), abs=1e-10)


def test_reward_table_validation():
    rng = np.random.default_rng(41)
    game = random_game(rng, n=1, max_states=2, max_actions=2)
    rewards = pg.induced_stage_rewards(game, 0, [None], 2)
    with pytest.raises(ValueError):
        pg.backward_induction(game, 0, rewards, 0, 3)  # horizon beyond table
    with pytest.raises(ValueError):
        pg.backward_induction(game, 0, rewards, game.players[0].state_count, 2)
    wrong_player = pg.StageRewardTable(player=1, rewards=rewards.rewards)
    with pytest.raises(ValueError):
        pg.backward_induction(game, 0, wrong_player, 0, 2)
    with pytest.raises(ValueError, match="needs shape"):
        pg.StageRewardTable(player=0, rewards=rewards.rewards[0])
    for entry in (np.nan, np.inf, -np.inf):  # any finite reward, negative too
        bad = -np.ones((2, 2, 2))
        bad[1, 1, 0] = entry
        with pytest.raises(ValueError, match=re.escape(f"non-finite value {entry} at (t=2, s=1)")):
            pg.StageRewardTable(player=0, rewards=bad)
