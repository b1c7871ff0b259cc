"""Distorted discounted values, truncation bounds, and the Lipschitz step."""
import math

import numpy as np
import pytest

import ptgames as pg
from ptgames import criterion
from helpers import (
    classical_joint_value,
    random_game,
    random_initial_state,
    random_profile,
    random_strategy,
)

# ceil(ln(0.05/12)/ln 0.5) evaluated with mpmath at 40 digits, frozen here.
HORIZON_BETA_HALF_EPS_TENTH = 8
# (delta, horizon) for beta=0.5, eps=0.6, bound 1, one player with 2 states
# and 2 actions, unit value bound; mpmath-evaluated and frozen.
LIPSCHITZ_EXAMPLE = (1.0899135044642857e-07, 7)


def make_marginals(game, profile, x, horizon):
    return [
        pg.forward_marginals(game, profile[i], x[i], horizon)
        for i in range(game.n)
    ]


def test_single_outcome_game_collapses_to_discount_series():
    # one player, one state, one action: every stage pays v(r) * w(1) = v(r)
    reward = -2.5
    valuation = pg.ValuationFunction.piecewise_power(0.5, 1.0, 0.3)
    weighting = pg.WeightingFunction.prelec(0.8)
    player = pg.PlayerSpec(
        state_count=1,
        action_count=1,
        kernel=pg.TransitionKernel.stationary([[[1.0]]]),
        weighting=weighting,
        valuation=valuation,
    )
    game = pg.validate_game(
        pg.GameSpec(
            players=(player,), discount_beta=0.5, payoff=np.full((1, 1, 1), reward)
        )
    )
    strat = pg.MarkovStrategy(player=0, dist=np.ones((3, 1, 1)))
    report = pg.pt_payoff(game, make_marginals(game, (strat,), (0,), 3), 3)
    expected = (1.0 + 0.5 + 0.25) * valuation(reward)
    assert report.value(0) == pytest.approx(expected, abs=1e-12)
    assert np.allclose(
        report.stage_contributions[0],
        [valuation(reward), 0.5 * valuation(reward), 0.25 * valuation(reward)],
        atol=1e-12,
    )


def test_identity_single_player_matches_classical_dp_evaluation():
    # independent oracle: textbook policy evaluation on the player's chain
    rng = np.random.default_rng(21)
    for _ in range(20):
        game = random_game(rng, n=1, identity_pt=True)
        horizon = int(rng.integers(1, 6))
        strat = random_strategy(rng, game, 0, horizon)
        x = int(rng.integers(game.players[0].state_count))
        report = pg.pt_payoff(game, make_marginals(game, (strat,), (x,), horizon), horizon)

        S = game.players[0].state_count
        beta = game.discount_beta
        state_mass = np.zeros(S)
        state_mass[x] = 1.0
        expected = 0.0
        for k in range(horizon):
            stage = 0.0
            for s in range(S):
                for a in range(game.players[0].action_count):
                    stage += state_mass[s] * strat.dist[k, s, a] * game.payoff(0, (s,), (a,))
            expected += beta**k * stage
            kern = game.kernel(0, k)
            state_mass = np.array(
                [
                    sum(
                        state_mass[s] * strat.dist[k, s, a] * kern[s, a, y]
                        for s in range(S)
                        for a in range(game.players[0].action_count)
                    )
                    for y in range(S)
                ]
            )
        assert report.value(0) == pytest.approx(expected, abs=1e-10)


def test_two_player_single_stage_hand_expansion():
    # 1 state, 2 actions each, horizon 1: the value is a 2x4-term sum that
    # can be written out by hand
    rng = np.random.default_rng(22)
    payoff = rng.normal(size=(2, 1, 1, 2, 2))
    weighting = pg.WeightingFunction.prelec(0.7)
    valuation = pg.ValuationFunction.piecewise_power(0.6, 1.2, 0.4)
    players = tuple(
        pg.PlayerSpec(
            state_count=1,
            action_count=2,
            kernel=pg.TransitionKernel.stationary([[[1.0], [1.0]]]),
            weighting=weighting,
            valuation=valuation,
        )
        for _ in range(2)
    )
    game = pg.validate_game(pg.GameSpec(players=players, discount_beta=0.9, payoff=payoff))
    p = np.array([0.3, 0.7])
    q = np.array([0.8, 0.2])
    profile = (
        pg.MarkovStrategy(player=0, dist=p.reshape(1, 1, 2)),
        pg.MarkovStrategy(player=1, dist=q.reshape(1, 1, 2)),
    )
    report = pg.pt_payoff(game, make_marginals(game, profile, (0, 0), 1), 1)
    expected0 = sum(
        p[a] * weighting(q[b]) * valuation(payoff[0, 0, 0, a, b])
        for a in range(2)
        for b in range(2)
    )
    expected1 = sum(
        q[b] * weighting(p[a]) * valuation(payoff[1, 0, 0, a, b])
        for a in range(2)
        for b in range(2)
    )
    assert report.value(0) == pytest.approx(expected0, abs=1e-14)
    assert report.value(1) == pytest.approx(expected1, abs=1e-14)


def test_identity_distortions_reduce_to_joint_chain_expectation():
    rng = np.random.default_rng(23)
    for _ in range(10):
        game = random_game(rng, n=int(rng.integers(2, 4)), max_states=2, max_actions=2, identity_pt=True)
        horizon = int(rng.integers(1, 4))
        profile = random_profile(rng, game, horizon)
        x = random_initial_state(rng, game)
        report = pg.pt_payoff(game, make_marginals(game, profile, x, horizon), horizon)
        for i in range(game.n):
            oracle = classical_joint_value(game, profile, x, horizon, i)
            assert report.value(i) == pytest.approx(oracle, abs=1e-10)


def test_value_linear_in_own_marginals():
    # the objective is linear in the player's own table when opponents are
    # frozen: blending two of the player's tables blends the values
    rng = np.random.default_rng(24)
    game = random_game(rng, n=2, max_states=2, max_actions=2)
    horizon = 3
    opp = random_strategy(rng, game, 1, horizon)
    x = (0, 0)
    own1 = pg.forward_marginals(game, random_strategy(rng, game, 0, horizon), 0, horizon)
    own2 = pg.forward_marginals(game, random_strategy(rng, game, 0, horizon), 0, horizon)
    opp_table = pg.forward_marginals(game, opp, 0, horizon)
    lam = 0.35
    blend = pg.MarginalTable(
        player=0, probs=lam * own1.probs + (1 - lam) * own2.probs
    )
    v1 = pg.pt_payoff(game, [own1, opp_table], horizon).value(0)
    v2 = pg.pt_payoff(game, [own2, opp_table], horizon).value(0)
    vb = pg.pt_payoff(game, [blend, opp_table], horizon).value(0)
    assert vb == pytest.approx(lam * v1 + (1 - lam) * v2, abs=1e-12)


def test_symmetric_opponents_can_be_swapped():
    # player 0's value only sees opponents through the weighted product of
    # their marginals, so swapping two interchangeable opponents changes
    # nothing
    rng = np.random.default_rng(25)
    S, A = 2, 2
    kernel = pg.TransitionKernel.stationary(np.full((S, A, S), 1.0 / S))
    base = rng.normal(size=(S, S, S, A, A, A))
    sym = 0.5 * (base + np.transpose(base, (0, 2, 1, 3, 5, 4)))
    payoff = np.stack([sym, rng.normal(size=sym.shape), rng.normal(size=sym.shape)])
    players = tuple(
        pg.PlayerSpec(
            state_count=S,
            action_count=A,
            kernel=kernel,
            weighting=pg.WeightingFunction.prelec(0.8),
        )
        for _ in range(3)
    )
    game = pg.validate_game(pg.GameSpec(players=players, discount_beta=0.5, payoff=payoff))
    horizon = 2
    own = pg.forward_marginals(game, random_strategy(rng, game, 0, horizon), 0, horizon)
    s1 = random_strategy(rng, game, 1, horizon)
    s2 = random_strategy(rng, game, 2, horizon)
    t1 = pg.forward_marginals(game, s1, 0, horizon)
    t2 = pg.forward_marginals(game, s2, 0, horizon)
    swapped1 = pg.MarginalTable(player=1, probs=t2.probs)
    swapped2 = pg.MarginalTable(player=2, probs=t1.probs)
    v = pg.pt_payoff(game, [own, t1, t2], horizon).value(0)
    v_swapped = pg.pt_payoff(game, [own, swapped1, swapped2], horizon).value(0)
    assert v == pytest.approx(v_swapped, abs=1e-12)


def test_pt_payoff_validates_tables():
    rng = np.random.default_rng(26)
    game = random_game(rng, n=2, max_states=2, max_actions=2)
    profile = random_profile(rng, game, 2)
    tables = make_marginals(game, profile, (0, 0), 2)
    with pytest.raises(ValueError):
        pg.pt_payoff(game, tables[:1], 2)
    with pytest.raises(ValueError):
        pg.pt_payoff(game, tables, 3)  # tables only cover 2 stages
    with pytest.raises(ValueError):
        pg.pt_payoff(game, [tables[1], tables[0]], 2)  # player fields off


# ---------- truncation ----------


def unit_bound_game(beta):
    # |S| = |A| = 2, identity valuation, max |payoff| = 1
    player = pg.PlayerSpec(
        state_count=2,
        action_count=2,
        kernel=pg.TransitionKernel.stationary(np.full((2, 2, 2), 0.5)),
    )
    payoff = np.zeros((1, 2, 2))
    payoff[0, 0, 0] = 1.0
    payoff[0, 1, 1] = -1.0
    return pg.validate_game(
        pg.GameSpec(players=(player,), discount_beta=beta, payoff=payoff)
    )


def test_truncation_horizon_frozen_example():
    game = unit_bound_game(0.5)
    assert pg.truncation_horizon(0.1, game) == HORIZON_BETA_HALF_EPS_TENTH
    assert game.value_bounds[0] == 1.0


def test_truncation_horizon_floors_at_one():
    game = unit_bound_game(0.5)
    assert pg.truncation_horizon(1e6, game) == 1


def test_truncation_horizon_ignores_zero_bound_players():
    player = pg.PlayerSpec(
        state_count=1, action_count=1, kernel=pg.TransitionKernel.stationary([[[1.0]]])
    )
    game = pg.validate_game(
        pg.GameSpec(players=(player,), discount_beta=0.9, payoff=np.zeros((1, 1, 1)))
    )
    assert pg.truncation_horizon(1e-9, game) == 1


def test_truncation_horizon_rejects_nonpositive_epsilon():
    game = unit_bound_game(0.5)
    with pytest.raises(ValueError):
        pg.truncation_horizon(0.0, game)


def test_truncation_horizon_is_the_smallest_horizon_within_the_bound():
    # the log-space inversion in truncation_horizon against the tail bound
    # itself: its horizon keeps every player's bound within a share of
    # epsilon, and one stage fewer (above the floor of 1) does not
    rng = np.random.default_rng(2501)
    tight = 0
    for case in range(400):
        game = random_game(
            rng, n=int(rng.integers(1, 4)), max_states=2, max_actions=2,
            beta=float(rng.uniform(0.01, 0.99)),
        )
        for epsilon in (1e-1, 1e-4, 1e-8):
            share = epsilon / 3
            horizon = pg.truncation_horizon(epsilon, game)
            assert np.all(pg.truncation_error_bound(game, horizon) <= share * (1 + 1e-12)), case
            if horizon > 1:
                before = pg.truncation_error_bound(game, horizon - 1)
                assert np.any(before > share * (1 - 1e-12)), (case, epsilon)
                tight += 1
    assert tight > 1000


def test_truncation_error_bound_formula_and_decay():
    game = unit_bound_game(0.5)
    for m in range(1, 6):
        bound = pg.truncation_error_bound(game, m)
        assert bound[0] == pytest.approx(1.0 * 4 * 0.5**m / 0.5, abs=1e-15)
    bounds = [pg.truncation_error_bound(game, m)[0] for m in range(1, 10)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_truncation_bound_dominates_observed_tail():
    # |V^m - V^{m+10}| must sit below the stated bound for V^m
    rng = np.random.default_rng(27)
    for _ in range(5):
        game = random_game(rng, n=2, max_states=2, max_actions=2, beta=0.6)
        profile = random_profile(rng, game, 15)
        x = random_initial_state(rng, game)
        tables = make_marginals(game, profile, x, 15)
        for m in (1, 3, 5):
            short = pg.pt_payoff(game, tables, m)
            long = pg.pt_payoff(game, tables, m + 10)
            bound = pg.truncation_error_bound(game, m)
            for i in range(game.n):
                drift = abs(long.value(i) - short.value(i))
                assert drift <= bound[i] + 1e-12


def test_cauchy_stage_increments_bounded():
    # adding one stage changes the value by at most K * |S| * |A| * beta^m
    rng = np.random.default_rng(28)
    game = random_game(rng, n=2, max_states=2, max_actions=2, beta=0.7)
    profile = random_profile(rng, game, 8)
    x = random_initial_state(rng, game)
    tables = make_marginals(game, profile, x, 8)
    sizes = game.joint_state_count * game.joint_action_count
    for m in range(1, 8):
        shorter = pg.pt_payoff(game, tables, m)
        longer = pg.pt_payoff(game, tables, m + 1)
        for i in range(game.n):
            step = abs(longer.value(i) - shorter.value(i))
            assert step <= game.value_bounds[i] * sizes * 0.7**m + 1e-12


def test_smallest_positive_epsilon_gets_a_horizon():
    # the allowance (1 - beta) * epsilon / 3 of 5e-324 underflows to 0; the
    # tail bound 1 * 4 * 0.5**m / 0.5 is still inverted, in log space
    game = unit_bound_game(0.5)
    horizon = pg.truncation_horizon(5e-324, game)
    log_tail = lambda m: math.log(4.0) + m * math.log(0.5) - math.log(0.5)
    assert log_tail(horizon) <= math.log(5e-324) - math.log(3.0) < log_tail(horizon - 1)


# ---------- Lipschitz grid step ----------


def test_lipschitz_delta_frozen_example():
    game = unit_bound_game(0.5)
    delta, horizon = pg.lipschitz_delta(0.6, game)
    assert horizon == LIPSCHITZ_EXAMPLE[1]
    assert delta == pytest.approx(LIPSCHITZ_EXAMPLE[0], rel=1e-12)


def test_lipschitz_delta_scales_linearly_in_epsilon_at_fixed_horizon():
    game = unit_bound_game(0.5)
    eps = 0.57
    delta1, h1 = pg.lipschitz_delta(eps, game)
    delta2, h2 = pg.lipschitz_delta(2 * eps, game)
    assert h1 != h2 or delta2 == pytest.approx(2 * delta1, rel=1e-12)
    # pick a pair that certainly shares the horizon
    d_lo, h_lo = pg.lipschitz_delta(0.60, game)
    d_hi, h_hi = pg.lipschitz_delta(0.61, game)
    assert h_lo == h_hi
    assert d_hi / d_lo == pytest.approx(0.61 / 0.60, rel=1e-12)


def test_lipschitz_delta_never_names_an_epsilon_it_was_not_passed():
    # epsilon/2 of 5e-324 is 0.0 as a float; the halved allowance goes
    # through the log-space horizon, and only the step itself is refused
    with pytest.raises(ValueError, match="not representable") as info:
        pg.lipschitz_delta(5e-324, unit_bound_game(0.5))
    assert "0.0" not in str(info.value)


def test_lipschitz_delta_accepts_power_complement_with_matching_bound():
    def game(weighting):
        player = pg.PlayerSpec(
            state_count=2,
            action_count=2,
            kernel=pg.TransitionKernel.stationary(np.full((2, 2, 2), 0.5)),
            weighting=weighting,
        )
        payoff = np.ones((1, 2, 2))
        return pg.validate_game(pg.GameSpec(players=(player,), discount_beta=0.5, payoff=payoff))

    delta, horizon = pg.lipschitz_delta(0.6, game(pg.WeightingFunction.power_complement(2.0)))
    assert delta > 0.0 and horizon >= 1
    # the bound is the game's largest Lipschitz constant, 2 here
    plain, plain_horizon = pg.lipschitz_delta(0.6, game(pg.WeightingFunction.identity()))
    assert horizon == plain_horizon
    assert delta == pytest.approx(plain / 2.0, rel=1e-12)


def test_lipschitz_delta_rejects_prelec_and_bad_bounds():
    player = pg.PlayerSpec(
        state_count=2,
        action_count=2,
        kernel=pg.TransitionKernel.stationary(np.full((2, 2, 2), 0.5)),
        weighting=pg.WeightingFunction.prelec(0.8),
    )
    game = pg.validate_game(
        pg.GameSpec(players=(player,), discount_beta=0.5, payoff=np.ones((1, 2, 2)))
    )
    with pytest.raises(ValueError, match="not Lipschitz"):
        pg.lipschitz_delta(0.6, game)
    with pytest.raises(ValueError):
        pg.lipschitz_delta(-0.1, unit_bound_game(0.5))


# ------------------------------------------------------------ weight mass

MASS_WEIGHTINGS = [
    pg.WeightingFunction.identity(),
    *(pg.WeightingFunction.prelec(alpha) for alpha in (0.05, 0.3, 0.61, 0.8, 0.999, 1.0)),
    *(pg.WeightingFunction.power_complement(alpha) for alpha in (1.01, 1.5, 4.0)),
    # neither monotone nor concave; convex
    pg.WeightingFunction.from_table([(0, 0), (0.3, 0.6), (0.5, 0.4), (0.7, 0.9), (1, 1)]),
    pg.WeightingFunction.from_table([(0, 0), (0.1, 0.05), (1, 1)]),
]
MASS_TUPLES = [1, 2, 3, 5, 36, 7776]


def simplex_points(rng, tuples):
    """Uniform, one-hot, two-point and random (Dirichlet) points of the
    simplex over ``tuples`` entries, one per row."""
    uniform = np.full((1, tuples), 1.0 / tuples)
    one_hot = np.zeros((1, tuples))
    one_hot[0, -1] = 1.0
    two_point = np.zeros((20, tuples))
    share = rng.random(20)
    two_point[:, 0] = share
    two_point[:, -1] += 1.0 - share
    spread = [rng.dirichlet(np.full(tuples, c), size=10) for c in (0.05, 1.0, 20.0)]
    return np.vstack([uniform, one_hot, two_point, *spread])


@pytest.mark.parametrize("tuples", MASS_TUPLES)
@pytest.mark.parametrize("weighting", MASS_WEIGHTINGS, ids=lambda w: f"{w.kind}-{w.alpha}-{len(w.knots_y)}")
def test_weight_mass_bounds_every_weight_sum(weighting, tuples):
    rng = np.random.default_rng(tuples)
    mass = criterion._weight_mass(weighting, tuples)
    sums = weighting(simplex_points(rng, tuples)).sum(axis=1)
    assert np.all(sums <= mass * (1.0 + 1e-12))
    # the line above w on a dense grid, and on a log grid towards 0, where
    # prelec's slope is unbounded
    intercept, slope = criterion._weight_line(weighting, tuples)
    p = np.concatenate([np.linspace(0.0, 1.0, 100_001), np.geomspace(1e-300, 1e-3, 3_000)])
    assert np.all(intercept + slope * p >= weighting(p) - 1e-12)


@pytest.mark.parametrize("tuples", [1, 2, 3, 36, 7776])
@pytest.mark.parametrize("weighting", MASS_WEIGHTINGS, ids=lambda w: f"{w.kind}-{w.alpha}-{len(w.knots_y)}")
def test_weight_mass_is_the_concave_majorant_at_the_uniform_point(weighting, tuples):
    # K * (least concave majorant of w at 1/K), the majorant taken as the
    # best chord through 1/K over a dense grid and a table's knots
    p0 = 1.0 / tuples
    knots = np.array(weighting.knots_y)
    left = np.concatenate([[0.0], np.geomspace(1e-12, p0, 1500), knots[knots <= p0]])
    right = np.concatenate([np.linspace(p0, 1.0, 1500), knots[knots >= p0]])
    wl, wr = weighting(left)[:, None], weighting(right)[None, :]
    span = right[None, :] - left[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        chords = np.where(span > 0, wl + (wr - wl) * (p0 - left[:, None]) / span, weighting(p0))
    expected = tuples * chords.max()
    assert criterion._weight_mass(weighting, tuples) == pytest.approx(expected, rel=1e-4)


def test_weight_mass_frozen_examples():
    # prelec(0.8) over the reference instance's 36 opponent tuples and the
    # six-prosumer game's 7,776: the tangent at 1/K, so exactly K * w(1/K)
    prelec = pg.WeightingFunction.prelec(0.8)
    for tuples, mass in ((36, 2.2419), (7776, 24.0588)):
        assert criterion._weight_mass(prelec, tuples) == pytest.approx(tuples * prelec(1.0 / tuples), rel=1e-14)
        assert criterion._weight_mass(prelec, tuples) == pytest.approx(mass, abs=1e-4)
    # one tuple holds all the mass, and the identity sums to 1
    for weighting in MASS_WEIGHTINGS:
        assert criterion._weight_mass(weighting, 1) == pytest.approx(1.0, abs=1e-12)
    assert criterion._weight_mass(pg.WeightingFunction.identity(), 7776) == 1.0
