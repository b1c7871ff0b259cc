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
    random_kernel,
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
        (0.7, "distribution sums to 1.2 at (t=2, s=1)"),
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


@pytest.mark.parametrize(
    "player, action_count, message",
    [
        (True, 2, "player: must be an integer >= 0, got True"),
        (0.0, 2, "player: must be an integer >= 0, got 0.0"),
        (-1, 2, "player: must be an integer >= 0, got -1"),
        (0, 2.5, "action_count: must be an integer >= 1, got 2.5"),
        (0, True, "action_count: must be an integer >= 1, got True"),
        (0, "2", "action_count: must be an integer >= 1, got '2'"),
        (0, 0, "action_count: must be an integer >= 1, got 0"),
    ],
)
def test_deterministic_policy_takes_only_integer_player_and_action_count(player, action_count, message):
    # a float count used to pass here and fail later inside numpy
    with pytest.raises(ValueError, match=re.escape(message)):
        pg.DeterministicMarkovPolicy(player=player, choice=[[0]], action_count=action_count)


def test_deterministic_policy_accepts_numpy_integers():
    policy = pg.DeterministicMarkovPolicy(player=np.int64(1), choice=[[1]], action_count=np.int32(2))
    assert np.array_equal(pg.dm_policy_to_strategy(policy).dist, [[[0.0, 1.0]]])


@pytest.mark.parametrize(
    "choice", [[[0.5]], [[True]], [[np.nan]], [[1.0]], [["1"]], np.array([[0, 1]], dtype=float)]
)
def test_deterministic_policy_takes_only_integer_choices(choice):
    # a cast to int used to take 0.5 as action 0 and True as action 1, and
    # to fail inside numpy on NaN
    with pytest.raises(ValueError, match="^choice: must hold integer action indices"):
        pg.DeterministicMarkovPolicy(player=0, choice=choice, action_count=2)


@pytest.mark.parametrize("dtype", [np.intp, np.int8, np.uint16])
def test_deterministic_policy_keeps_integer_choice_arrays(dtype):
    # best_response passes its argmax choices as an intp array
    choice = np.array([[1, 0]], dtype=dtype)
    policy = pg.DeterministicMarkovPolicy(player=0, choice=choice, action_count=2)
    assert policy.choice.dtype == int
    assert np.array_equal(policy.choice, [[1, 0]])
    assert not policy.choice.flags.writeable and choice.flags.writeable


@pytest.mark.parametrize(
    "table, field",
    [(pg.MarkovStrategy, "dist"), (pg.MarginalTable, "probs"), (pg.StageRewardTable, "rewards")],
)
@pytest.mark.parametrize(
    "entries, dtype",
    [([[[True, False]]], "bool"), ([[["1", "0"]]], "<U1"), ([[[1 + 0j, 0j]]], "complex128")],
)
def test_player_tables_take_only_real_numbers(table, field, entries, dtype):
    # a float cast used to take True and "1" as 1.0, and to fail inside
    # numpy on a complex entry
    message = f"{table.noun} must hold real numbers, got {dtype} entries"
    with pytest.raises(ValueError, match=re.escape(message)):
        table(player=0, **{field: entries})


@pytest.mark.parametrize("dtype", [np.intp, np.uint8, np.float32])
def test_player_tables_keep_integer_and_float_arrays(dtype):
    entries = np.array([[[1, 0]]], dtype=dtype)
    strategy = pg.MarkovStrategy(player=0, dist=entries)
    assert strategy.dist.dtype == float
    assert np.array_equal(strategy.dist, [[[1.0, 0.0]]])
    assert not strategy.dist.flags.writeable and entries.flags.writeable


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


@pytest.mark.parametrize(
    "entry, message",
    [
        (np.nan, "non-finite probability nan at (t=2, s=1)"),
        (np.inf, "non-finite probability inf at (t=2, s=1)"),
        (-np.inf, "non-finite probability -inf at (t=2, s=1)"),
        (-0.5, "negative probability -0.5 at (t=2, s=1)"),
    ],
)
def test_marginal_table_rejects_non_finite_and_negative_entries(entry, message):
    probs = np.full((2, 2, 2), 0.25)
    probs[1, 1, 0] = entry
    with pytest.raises(ValueError, match=re.escape(message)):
        pg.MarginalTable(player=0, probs=probs)


def test_marginal_table_reports_non_finite_before_negative():
    probs = np.full((2, 2, 2), 0.25)
    probs[0, 0, 0] = -0.5
    probs[1, 1, 0] = np.nan
    with pytest.raises(ValueError, match=re.escape("non-finite probability nan at (t=2, s=1)")):
        pg.MarginalTable(player=0, probs=probs)


def test_every_table_keeps_a_frozen_float_copy():
    # nested lists are accepted, and the caller's array is never shared
    for cls, field in (
        (pg.MarkovStrategy, "dist"),
        (pg.MarginalTable, "probs"),
        (pg.StageRewardTable, "rewards"),
    ):
        table = cls(0, [[[0, 1], [1, 0]]])
        assert (table.horizon, table.state_count, table.action_count) == (1, 2, 2)
        source = np.array([[[0.5, 0.5]]])
        stored = getattr(cls(0, source), field)
        assert stored.dtype == float and not stored.flags.writeable, cls
        source[0, 0, 0] = 7.0
        assert stored[0, 0, 0] == 0.5, cls


# ------------------------------------------------------------- table rules

# player 0 has (S, A) = (2, 2), player 1 has (3, 2)
SIZES = ((2, 2), (3, 2))
H = 2


def rules_game():
    rng = np.random.default_rng(5)
    players = tuple(
        pg.PlayerSpec(state_count=S, action_count=A, kernel=random_kernel(rng, S, A))
        for S, A in SIZES
    )
    payoff = rng.normal(size=(2, *(S for S, _ in SIZES), *(A for _, A in SIZES)))
    return pg.validate_game(pg.GameSpec(players=players, discount_beta=0.5, payoff=payoff))


GAME = rules_game()
CONFIG = pg.SearchConfig(epsilon=0.1, horizon=H)


def strategy(j, stages=H, sizes=None):
    S, A = sizes or SIZES[j]
    return pg.MarkovStrategy(player=j, dist=np.full((stages, S, A), 1.0 / A))


def marginal(j, stages=H, sizes=None):
    S, A = sizes or SIZES[j]
    return pg.MarginalTable(player=j, probs=np.full((stages, S, A), 1.0 / (S * A)))


def reward(j, stages=H, sizes=None):
    return pg.StageRewardTable(player=j, rewards=np.zeros((stages, *(sizes or SIZES[j]))))


def profile(*strategies):
    return strategies or (strategy(0), strategy(1))


def tables(*entries):
    return list(entries) or [marginal(0), marginal(1)]


# each violation of a table rule, the one message every entry point gives
# for it, and every public entry point that accepts it
TABLE_RULES = {
    "player-negative": ("player index -1 outside 0..1", [
        lambda: pg.forward_marginals(GAME, strategy(-1), 0, H),
        lambda: pg.check_flow_constraints(GAME, marginal(-1), 0),
        lambda: pg.induced_stage_rewards(GAME, -1, tables(), H),
        lambda: pg.backward_induction(GAME, -1, reward(-1), 0),
    ]),
    "player-too-large": ("player index 2 outside 0..1", [
        lambda: pg.forward_marginals(GAME, strategy(2, sizes=(3, 2)), 0, H),
        lambda: pg.check_flow_constraints(GAME, marginal(2, sizes=(3, 2)), 0),
        lambda: pg.induced_stage_rewards(GAME, 2, tables(), H),
        lambda: pg.backward_induction(GAME, 2, reward(2, sizes=(3, 2)), 0),
    ]),
    "player-fractional": ("player index 0.5 outside 0..1", [
        lambda: pg.forward_marginals(GAME, strategy(0.5, sizes=(2, 2)), 0, H),
        lambda: pg.check_flow_constraints(GAME, marginal(0.5, sizes=(2, 2)), 0),
        lambda: pg.induced_stage_rewards(GAME, 0.5, tables(), H),
        lambda: pg.backward_induction(GAME, 0.5, reward(0.5, sizes=(2, 2)), 0),
    ]),
    "strategy-sizes": ("player 1: strategy has sizes (2, 2), game declares (3, 2)", [
        lambda: pg.forward_marginals(GAME, strategy(1, sizes=(2, 2)), 0, H),
        lambda: pg.certify(GAME, profile(strategy(0), strategy(1, sizes=(2, 2))), (0, 0), H, 0.1),
    ]),
    "marginal-sizes": ("player 1: marginal table has sizes (3, 3), game declares (3, 2)", [
        lambda: pg.check_flow_constraints(GAME, marginal(1, sizes=(3, 3)), 0),
        lambda: pg.pt_payoff(GAME, tables(marginal(0), marginal(1, sizes=(3, 3))), H),
        lambda: pg.induced_stage_rewards(GAME, 0, [None, marginal(1, sizes=(3, 3))], H),
    ]),
    "reward-sizes": ("player 1: reward table has sizes (3, 3), game declares (3, 2)", [
        lambda: pg.backward_induction(GAME, 1, reward(1, sizes=(3, 3)), 0),
    ]),
    "strategy-stages": ("player 1: strategy covers 1 stages, horizon 2 requested", [
        lambda: pg.forward_marginals(GAME, strategy(1, 1), 0, H),
        lambda: pg.certify(GAME, profile(strategy(0), strategy(1, 1)), (0, 0), H, 0.1),
    ]),
    "marginal-stages": ("player 1: marginal table covers 1 stages, horizon 2 requested", [
        lambda: pg.pt_payoff(GAME, tables(marginal(0), marginal(1, 1)), H),
        lambda: pg.induced_stage_rewards(GAME, 0, [None, marginal(1, 1)], H),
    ]),
    "reward-stages": ("player 1: reward table covers 1 stages, horizon 2 requested", [
        lambda: pg.backward_induction(GAME, 1, reward(1, 1), 0, H),
    ]),
    "horizon": ("horizon: must be an integer >= 1, got 0", [
        lambda: pg.forward_marginals(GAME, strategy(0), 0, 0),
        lambda: pg.certify(GAME, profile(), (0, 0), 0, 0.1),
        lambda: pg.pt_payoff(GAME, tables(), 0),
        lambda: pg.induced_stage_rewards(GAME, 0, tables(), 0),
        lambda: pg.backward_induction(GAME, 0, reward(0), 0, 0),
        lambda: pg.backward_induction(GAME, 0, reward(0, 0), 0),
        lambda: pg.truncation_error_bound(GAME, 0),
        lambda: pg.ProfileGrid(GAME, 0, 2),
        lambda: pg.SearchConfig(epsilon=0.1, horizon=0),
    ]),
    "horizon-fractional": ("horizon: must be an integer >= 1, got 2.5", [
        lambda: pg.forward_marginals(GAME, strategy(0), 0, 2.5),
        lambda: pg.certify(GAME, profile(), (0, 0), 2.5, 0.1),
        lambda: pg.pt_payoff(GAME, tables(), 2.5),
        lambda: pg.induced_stage_rewards(GAME, 0, tables(), 2.5),
        lambda: pg.backward_induction(GAME, 0, reward(0), 0, 2.5),
        lambda: pg.truncation_error_bound(GAME, 2.5),
        lambda: pg.ProfileGrid(GAME, 2.5, 2),
        lambda: pg.SearchConfig(epsilon=0.1, horizon=2.5),
    ]),
    "start-too-large": ("initial state 3 of player 1 outside 0..2", [
        lambda: pg.forward_marginals(GAME, strategy(1), 3, H),
        lambda: pg.check_flow_constraints(GAME, marginal(1), 3),
        lambda: pg.backward_induction(GAME, 1, reward(1), 3),
        lambda: pg.certify(GAME, profile(), (0, 3), H, 0.1),
        lambda: pg.search_equilibrium(GAME, (0, 3), CONFIG),
    ]),
    "start-negative": ("initial state -1 of player 1 outside 0..2", [
        lambda: pg.forward_marginals(GAME, strategy(1), -1, H),
        lambda: pg.check_flow_constraints(GAME, marginal(1), -1),
        lambda: pg.backward_induction(GAME, 1, reward(1), -1),
        lambda: pg.certify(GAME, profile(), (0, -1), H, 0.1),
        lambda: pg.search_equilibrium(GAME, (0, -1), CONFIG),
    ]),
    "start-fractional": ("initial state 1.5 of player 1 outside 0..2", [
        lambda: pg.forward_marginals(GAME, strategy(1), 1.5, H),
        lambda: pg.check_flow_constraints(GAME, marginal(1), 1.5),
        lambda: pg.backward_induction(GAME, 1, reward(1), 1.5),
        lambda: pg.certify(GAME, profile(), (0, 1.5), H, 0.1),
        lambda: pg.search_equilibrium(GAME, (0, 1.5), CONFIG),
    ]),
    "start-count": ("initial state has 1 components, game has 2 players", [
        lambda: pg.certify(GAME, profile(), (0,), H, 0.1),
        lambda: pg.search_equilibrium(GAME, (0,), CONFIG),
    ]),
    "entry-count": ("profile: needs one table per player (2), got 1", [
        lambda: pg.pt_payoff(GAME, [marginal(0)], H),
        lambda: pg.induced_stage_rewards(GAME, 0, [None], H),
        lambda: pg.certify(GAME, (strategy(0),), (0, 0), H, 0.1),
    ]),
    "entry-missing": ("player 1: table is missing", [
        lambda: pg.pt_payoff(GAME, [marginal(0), None], H),
        lambda: pg.induced_stage_rewards(GAME, 0, [None, None], H),
        lambda: pg.certify(GAME, (strategy(0), None), (0, 0), H, 0.1),
    ]),
    "strategy-position": ("player 1: strategy belongs to player 0", [
        lambda: pg.certify(GAME, profile(strategy(0), strategy(0)), (0, 0), H, 0.1),
    ]),
    "marginal-position": ("player 1: marginal table belongs to player 0", [
        lambda: pg.pt_payoff(GAME, tables(marginal(0), marginal(0)), H),
        lambda: pg.induced_stage_rewards(GAME, 0, [None, marginal(0)], H),
    ]),
    "reward-position": ("player 1: reward table belongs to player 0", [
        lambda: pg.backward_induction(GAME, 1, reward(0), 0),
    ]),
}


@pytest.mark.parametrize("rule", list(TABLE_RULES))
def test_each_table_rule_gives_one_message_at_every_entry_point(rule):
    message, calls = TABLE_RULES[rule]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

