"""Distortion functions, kernels, and game validation."""
import math
import re

import numpy as np
import pytest

import ptgames as pg
from ptgames.game import _distribution_problem
from helpers import random_game, weighting_by_mask

# exp(-(ln 2)**0.8) evaluated at 40 decimal digits with mpmath, frozen here.
PRELEC_08_AT_HALF = 0.47432371775586135


def chain(matrix):
    return pg.TransitionKernel.stationary(matrix)


def one_state_game(beta=0.5, reward=1.0, weighting=None, valuation=None):
    player = pg.PlayerSpec(
        state_count=1,
        action_count=1,
        kernel=chain([[[1.0]]]),
        weighting=weighting or pg.WeightingFunction.identity(),
        valuation=valuation or pg.ValuationFunction.identity(),
    )
    payoff = np.full((1, 1, 1), reward)
    return pg.validate_game(
        pg.GameSpec(players=(player,), discount_beta=beta, payoff=payoff)
    )


# ---------- weighting functions ----------


def test_prelec_midpoint_matches_arbitrary_precision():
    w = pg.WeightingFunction.prelec(0.8)
    assert w(0.5) == pytest.approx(PRELEC_08_AT_HALF, abs=1e-15)


def test_prelec_endpoints_and_fixed_point():
    for alpha in (0.3, 0.5, 0.8, 1.0):
        w = pg.WeightingFunction.prelec(alpha)
        assert w(0.0) == 0.0
        assert w(1.0) == 1.0
        # 1/e is a fixed point of every prelec curve
        assert w(math.exp(-1.0)) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_prelec_strictly_increasing_and_in_range():
    w = pg.WeightingFunction.prelec(0.6)
    ys = np.linspace(0.0, 1.0, 200)
    out = w(ys)
    assert np.all(np.diff(out) > 0.0)
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_prelec_rejects_bad_exponents():
    for alpha in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            pg.WeightingFunction.prelec(alpha)


def test_power_complement_values_and_constant():
    w = pg.WeightingFunction.power_complement(2.0)
    assert w(0.0) == 0.0
    assert w(1.0) == 1.0
    assert w(0.5) == pytest.approx(0.75, abs=1e-15)
    assert w.lipschitz_constant == 2.0
    with pytest.raises(ValueError):
        pg.WeightingFunction.power_complement(1.0)


def test_lipschitz_flags():
    assert pg.WeightingFunction.identity().lipschitz_constant == 1.0
    assert pg.WeightingFunction.prelec(0.8).lipschitz_constant is None
    assert pg.WeightingFunction.prelec(1.0).lipschitz_constant == 1.0
    table = pg.WeightingFunction.from_table([(0, 0), (0.5, 0.25), (1, 1)])
    assert table.lipschitz_constant == pytest.approx(1.5)


def test_table_weighting_interpolates():
    w = pg.WeightingFunction.from_table([(0, 0), (0.5, 0.3), (1, 1)])
    assert w(0.25) == pytest.approx(0.15, abs=1e-15)
    assert w(0.75) == pytest.approx(0.65, abs=1e-15)
    out = w(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(out, [0.0, 0.3, 1.0], atol=1e-15)


def test_table_weighting_validates_knots():
    with pytest.raises(ValueError):
        pg.WeightingFunction.from_table([(0.1, 0), (1, 1)])
    with pytest.raises(ValueError):
        pg.WeightingFunction.from_table([(0, 0), (0.5, 1.2), (1, 1)])
    with pytest.raises(ValueError):
        pg.WeightingFunction.from_table([(0, 0), (0.5, 0.3), (0.5, 0.4), (1, 1)])


FOUR_KINDS = (
    pg.WeightingFunction.identity(),
    pg.WeightingFunction.prelec(0.7),
    pg.WeightingFunction.power_complement(1.8),
    pg.WeightingFunction.from_table([(0, 0), (0.4, 0.2), (1, 1)]),
)


def test_weighting_rejects_out_of_domain():
    # a NaN fails the min/max range check like an entry past the slack band
    slack = pg.game._DOMAIN_SLACK
    for w in FOUR_KINDS:
        for bad in (-0.1, 1.1, -2 * slack, 1.0 + 2 * slack, np.nan, -np.inf, np.inf):
            for y in (bad, np.array([0.2, bad, 0.5]), np.array([[0.0, 1.0], [bad, 0.3]])):
                with pytest.raises(ValueError, match=r"weighting argument outside \[0, 1\]"):
                    w(y)


def weighting_inputs():
    """Edge values (signed zeros, the least subnormal, exact 1, entries in
    the slack band just outside [0, 1]), dense and 89 %-zero arrays, in
    0-d, 1-D, 2-D and empty shapes."""
    slack = pg.game._DOMAIN_SLACK
    edges = np.array([0.0, -0.0, 5e-324, 1.0, -slack, -slack / 2, 1.0 + slack, 1.0 + slack / 2, 0.5])
    rng = np.random.default_rng(12)
    dense = rng.random((7, 36))
    sparse = np.where(rng.random((2, 7776)) < 0.89, 0.0, rng.random((2, 7776)))
    yield from (np.array(v) for v in edges)  # 0-d
    yield from (float(v) for v in edges)
    yield edges
    yield edges.reshape(3, 3)
    yield dense
    yield dense[:, ::3]  # not contiguous
    yield sparse
    yield np.concatenate([sparse.ravel()[:100], edges])
    yield np.empty(0)
    yield np.empty((3, 0))


@pytest.mark.parametrize("w", FOUR_KINDS, ids=lambda w: w.kind)
def test_weighting_matches_the_masked_form_bit_for_bit(w):
    # the integer-index gather and the skipped in-range clip give the bits,
    # signed zeros included, of the boolean-mask form with a clip
    for y in weighting_inputs():
        out, expected = w(y), weighting_by_mask(w, y)
        assert type(out) is type(expected)
        assert np.shape(out) == np.shape(expected)
        assert np.array_equal(out, expected), y
        assert np.array_equal(np.signbit(out), np.signbit(expected)), y


def test_identity_weighting_returns_a_new_array():
    x = np.array([0.0, 0.25, 1.0])
    out = pg.WeightingFunction.identity()(x)
    x[:] = 0.5
    assert out.tolist() == [0.0, 0.25, 1.0]


def test_weighting_scalar_and_array_forms_agree():
    for w in FOUR_KINDS:
        ys = np.linspace(0.0, 1.0, 11)
        out = w(ys)
        assert isinstance(w(0.3), float)
        for y, o in zip(ys, out):
            assert w(float(y)) == o


# ---------- valuation functions ----------


def test_piecewise_power_values():
    v = pg.ValuationFunction.piecewise_power(0.5, 1.0, 0.3)
    assert v(0.0) == 0.0
    assert v(4.0) == pytest.approx(2.0, abs=1e-15)
    assert v(-1.0) == pytest.approx(-1.0, abs=1e-15)
    # losses scale with c2 and curve with c3
    v2 = pg.ValuationFunction.piecewise_power(1.0, 2.0, 2.0)
    assert v2(-3.0) == pytest.approx(-18.0, abs=1e-12)


def test_piecewise_power_monotone():
    v = pg.ValuationFunction.piecewise_power(0.5, 1.3, 0.4)
    ys = np.linspace(-5.0, 5.0, 401)
    assert np.all(np.diff(v(ys)) >= 0.0)


def test_piecewise_power_rejects_nonpositive_constants():
    for c1, c2, c3 in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)):
        with pytest.raises(ValueError):
            pg.ValuationFunction.piecewise_power(c1, c2, c3)


@pytest.mark.parametrize("make, message", [
    (lambda: pg.WeightingFunction(kind="identity", alpha=5.0),
     "identity weighting does not read alpha, got 5.0"),
    (lambda: pg.WeightingFunction(kind="prelec", alpha=0.8, knots_y=(0.0, 0.5), knots_w=(1.0,)),
     "prelec weighting does not read knots_y, got (0.0, 0.5)"),
    (lambda: pg.WeightingFunction(kind="power_complement", alpha=2.0, knots_w=(0.0, 1.0)),
     "power_complement weighting does not read knots_w, got (0.0, 1.0)"),
    (lambda: pg.WeightingFunction(kind="table", alpha=2.0, knots_y=(0.0, 1.0), knots_w=(0.0, 1.0)),
     "table weighting does not read alpha, got 2.0"),
    (lambda: pg.ValuationFunction(kind="identity", gain_exponent=float("nan")),
     "identity valuation does not read gain_exponent, got nan"),
    (lambda: pg.ValuationFunction(kind="identity", loss_scale=2.0),
     "identity valuation does not read loss_scale, got 2.0"),
], ids=["identity-alpha", "prelec-knots", "power-knots", "table-alpha", "valuation-nan",
        "valuation-scale"])
def test_distortion_refuses_a_parameter_its_kind_does_not_read(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_distortion_accepts_unread_parameters_left_at_their_defaults():
    W, V = pg.WeightingFunction, pg.ValuationFunction
    assert W(kind="identity", alpha=1.0, knots_y=(), knots_w=()) == W.identity()
    assert W(kind="prelec", alpha=0.5, knots_y=()) == W.prelec(0.5)
    assert V(kind="identity", gain_exponent=1.0, loss_scale=1.0) == V.identity()
    table = W.from_table([(0, 0), (0.5, 0.3), (1, 1)])
    assert W(kind="table", alpha=1.0, knots_y=table.knots_y, knots_w=table.knots_w) == table


# ---------- kernels ----------


def test_kernel_shapes_and_stage_lookup():
    mat1 = [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]]
    mat2 = [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]
    kern = pg.TransitionKernel.nonstationary([mat1, mat2])
    assert not kern.is_stationary
    assert kern.state_count == 2 and kern.action_count == 2
    assert np.array_equal(kern.stage(0), mat1)
    assert np.array_equal(kern.stage(1), mat2)
    # stages past the declared range repeat the last one
    assert np.array_equal(kern.stage(7), mat2)
    flat = pg.TransitionKernel.stationary(mat1)
    assert flat.is_stationary
    assert np.array_equal(flat.stage(3), mat1)


def test_kernel_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pg.TransitionKernel.stationary([[1.0, 0.0]])
    with pytest.raises(ValueError):
        pg.TransitionKernel(probs=np.ones((2, 2, 3)))  # next-state dim mismatch


# ---------- validation ----------


def test_minimal_game_validates():
    game = one_state_game()
    assert game.n == 1
    assert game.joint_state_count == 1 and game.joint_action_count == 1
    assert game.value_bounds[0] == 1.0


def test_row_sum_violation_reported_with_indices():
    with pytest.raises(ValueError, match=re.escape("distribution sums to 0.9 at (t=1, s=0, a=0)")):
        chain([[[0.9]]])
    stages = np.array([np.eye(2)[:, np.newaxis]] * 3)
    stages[2, 1, 0] = (0.5, 0.25)
    with pytest.raises(ValueError, match=re.escape("distribution sums to 0.75 at (t=3, s=1, a=0)")):
        pg.TransitionKernel.nonstationary(stages)


def keeps_rule_row_by_row(values, rule):
    """Whether every row along the last axis keeps ``rule``, one row at a time."""
    rows = values.reshape(int(np.prod(values.shape[:-1])), values.shape[-1])
    for row in rows:
        if not np.isfinite(row).all() or (rule != "finite" and (row < 0.0).any()):
            return False
        if rule == "distribution" and abs(row.sum() - 1.0) > 1e-12:
            return False
    return True


@pytest.mark.parametrize("rule", ["distribution", "nonnegative", "finite"])
def test_probability_rule_accepts_exactly_the_rows_that_keep_it(rule):
    rng = np.random.default_rng(3)
    tables = [np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((2, 3, 0))]
    for _ in range(200):
        table = rng.dirichlet(np.ones(3), size=(2, 2))
        k = tuple(rng.integers(0, 2, size=2)) + (int(rng.integers(0, 3)),)
        table[k] += rng.choice([0.0, 0.5e-12, 2e-12, -2e-12, -1.0, -0.0, np.nan, np.inf])
        if rng.random() < 0.2:
            table[k] = -1e-300
        tables.append(table)
    outcomes = set()
    for table in tables:
        keeps = keeps_rule_row_by_row(table, rule)
        outcomes.add(keeps)
        assert (_distribution_problem(table, rule) is None) == keeps, table
    assert outcomes == {True, False}


def test_discount_factor_bounds_rejected():
    player = pg.PlayerSpec(state_count=1, action_count=1, kernel=chain([[[1.0]]]))
    for beta in (0.0, 1.0, 1.2, -0.1):
        with pytest.raises(pg.GameValidationError) as err:
            pg.validate_game(
                pg.GameSpec(
                    players=(player,), discount_beta=beta, payoff=np.zeros((1, 1, 1))
                )
            )
        assert any(
            "discount factor must lie in (0,1)" in v for v in err.value.violations
        )


def test_all_violations_reported_together():
    # kernel rows are refused when the kernel is built, so the bad kernel
    # here is one of the wrong shape
    bad_kernel = pg.PlayerSpec(state_count=1, action_count=1, kernel=chain([[[0.5, 0.5]]] * 2))
    with pytest.raises(pg.GameValidationError) as err:
        pg.validate_game(
            pg.GameSpec(
                players=(bad_kernel,),
                discount_beta=1.5,
                payoff=np.full((1, 1, 1), np.nan),
            )
        )
    text = "; ".join(err.value.violations)
    assert "kernel of player 0 has shape (2, 1, 2), expected (1, 1, 1)" in text
    assert "discount factor" in text
    assert "non-finite payoff" in text


def test_negative_probability_reported():
    with pytest.raises(ValueError, match=re.escape("negative probability -0.5 at (t=1, s=0, a=0)")):
        chain([[[1.5, -0.5]], [[0.0, 1.0]]])
    # a non-finite entry is named before a negative one in an earlier row
    with pytest.raises(ValueError, match=re.escape("non-finite probability inf at (t=1, s=1, a=0)")):
        chain([[[1.5, -0.5]], [[np.inf, 1.0]]])


def test_payoff_shape_mismatch_reported():
    player = pg.PlayerSpec(state_count=2, action_count=2, kernel=chain(
        [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]
    ))
    with pytest.raises(pg.GameValidationError) as err:
        pg.validate_game(
            pg.GameSpec(players=(player,), discount_beta=0.5, payoff=np.zeros((1, 2, 3)))
        )
    assert any("payoff table has shape" in v for v in err.value.violations)


def test_callable_payoff_rejected_as_violation():
    player = pg.PlayerSpec(state_count=1, action_count=2, kernel=chain([[[1.0], [1.0]]]))

    def rule(i, states, actions):
        return 0.0

    with pytest.raises(pg.GameValidationError) as err:
        pg.validate_game(pg.GameSpec(players=(player,), discount_beta=0.5, payoff=rule))
    (violation,) = err.value.violations
    assert violation.startswith("payoff is not a numeric table")


def test_valuation_overflow_reported_per_player():
    # -1e308 * 2**3 overflows to -inf although both constants are finite
    steep = pg.ValuationFunction.piecewise_power(1.0, 1e308, 3.0)
    players = tuple(
        pg.PlayerSpec(
            state_count=1, action_count=2, kernel=chain([[[1.0], [1.0]]]), valuation=steep
        )
        for _ in range(2)
    )
    payoff = np.zeros((2, 1, 1, 2, 2))
    payoff[1, 0, 0, 1, :] = -2.0
    with pytest.raises(pg.GameValidationError) as err:
        pg.validate_game(pg.GameSpec(players=players, discount_beta=0.5, payoff=payoff))
    (violation,) = err.value.violations
    assert violation == (
        "valuation of player 1 is non-finite at 2 payoff entries, "
        "first -inf at (s=(0, 0), a=(1, 0))"
    )


def test_value_bounds_use_exhaustive_scan():
    # valuation turns the worst raw payoff (-8) into -(8)**0.5, and the best
    # (+3) into 3**0.5; the bound is the larger magnitude
    payoff = np.array([[[3.0, -8.0]]])  # 1 player, 1 state, 2 actions
    player = pg.PlayerSpec(
        state_count=1,
        action_count=2,
        kernel=chain([[[1.0], [1.0]]]),
        valuation=pg.ValuationFunction.piecewise_power(0.5, 1.0, 0.5),
    )
    game = pg.validate_game(
        pg.GameSpec(players=(player,), discount_beta=0.5, payoff=payoff)
    )
    assert game.value_bounds[0] == pytest.approx(math.sqrt(8.0), abs=1e-15)


def test_valued_payoff_matrix_layout():
    # two players with distinct sizes; check one specific matrix entry:
    # rows are own (s, a) pairs lexicographic, columns opponents' pairs
    rng = np.random.default_rng(3)
    payoff = rng.normal(size=(2, 2, 3, 2, 2))
    players = (
        pg.PlayerSpec(state_count=2, action_count=2, kernel=chain(np.full((2, 2, 2), 0.5))),
        pg.PlayerSpec(state_count=3, action_count=2, kernel=chain(np.full((3, 2, 3), 1.0 / 3))),
    )
    game = pg.validate_game(pg.GameSpec(players=players, discount_beta=0.5, payoff=payoff))
    mat0 = game.valued_payoffs[0]
    assert mat0.shape == (4, 6)
    # own pair (s=1, a=0) -> row 2; opponent pair (s=2, a=1) -> column 5
    assert mat0[2, 5] == payoff[0, 1, 2, 0, 1]
    mat1 = game.valued_payoffs[1]
    assert mat1.shape == (6, 4)
    assert mat1[3, 1] == payoff[1, 0, 1, 1, 1]  # own (1,1) row 3, opp (0,1) col 1


def test_validated_game_arrays_are_read_only():
    game = random_game(np.random.default_rng(11), n=2)
    with pytest.raises(ValueError):
        game.payoff_table[(0,) * game.payoff_table.ndim] = 99.0
    with pytest.raises(ValueError):
        game.valued_payoffs[0][0, 0] = 99.0


def test_writeable_payoff_is_copied_and_read_only_payoff_shared():
    player = pg.PlayerSpec(state_count=1, action_count=2, kernel=chain([[[1.0], [1.0]]]))
    payoff = np.array([[[1.0, 2.0]]])
    game = pg.validate_game(pg.GameSpec(players=(player,), discount_beta=0.5, payoff=payoff))
    payoff[0, 0, 0] = 7.0
    assert game.payoff(0, (0,), (0,)) == 1.0
    assert payoff.flags.writeable
    payoff.setflags(write=False)
    shared = pg.validate_game(pg.GameSpec(players=(player,), discount_beta=0.5, payoff=payoff))
    assert shared.payoff_table is payoff


@pytest.mark.parametrize("state_counts", [(1,), (1, 1)], ids=["one-player", "length-1-axes"])
def test_valued_payoffs_never_view_the_callers_payoff(state_counts):
    # under the identity valuation a reordering that moves only length-1
    # axes, or none, keeps a view of the table it is given
    players = tuple(
        pg.PlayerSpec(state_count=S, action_count=2, kernel=chain([[[1.0], [1.0]]]))
        for S in state_counts
    )
    payoff = np.arange(len(players) * 2 ** len(players), dtype=float).reshape(
        (len(players), *state_counts, *(2,) * len(players))
    )
    game = pg.validate_game(pg.GameSpec(players=players, discount_beta=0.5, payoff=payoff))
    before = [matrix.copy() for matrix in game.valued_payoffs]
    payoff[...] = -1.0
    for matrix, kept in zip(game.valued_payoffs, before):
        assert np.array_equal(matrix, kept)


# ---------- the integer rule ----------

BOOL_GAME = pg.build_simulation_game()  # 3 players, 3 states, 2 actions
UNIFORM = tuple(
    pg.MarkovStrategy(player=i, dist=np.full((2, 3, 2), 0.5)) for i in range(3)
)
GENERATION = pg.GenerationDistribution(start=0, pmf=[1.0])


def prosumer(**changes):
    spec = dict(storage_cap=2, consumption_cap=1, demand_cap=2, tau=1, generation=GENERATION)
    return pg.ProsumerSpec(**{**spec, **changes})


BOOL_CASES = {
    "certify-horizon": (
        lambda: pg.certify(BOOL_GAME, UNIFORM, (0, 0, 0), True, 0.01),
        "horizon: must be an integer >= 1, got True"),
    "certify-start": (
        lambda: pg.certify(BOOL_GAME, UNIFORM, (False, 0, 0), 2, 0.01),
        "initial state False of player 0 outside 0..2"),
    "certify-epsilon": (
        lambda: pg.certify(BOOL_GAME, UNIFORM, (0, 0, 0), 2, True),
        "epsilon: must be positive and finite, got True"),
    "strategy-player": (
        lambda: pg.forward_marginals(
            BOOL_GAME, pg.MarkovStrategy(player=True, dist=np.full((2, 3, 2), 0.5)), 0, 2),
        "player index True outside 0..2"),
    "profile-player": (
        lambda: pg.certify(
            BOOL_GAME,
            (UNIFORM[0], pg.MarkovStrategy(player=True, dist=np.full((2, 3, 2), 0.5)), UNIFORM[2]),
            (0, 0, 0), 2, 0.01),
        "player 1: strategy belongs to player True"),
    "search-horizon": (
        lambda: pg.SearchConfig(epsilon=0.01, horizon=True),
        "horizon: must be an integer >= 1, got True"),
    "search-epsilon": (
        lambda: pg.SearchConfig(epsilon=True), "epsilon: must be positive and finite, got True"),
    "search-budget": (
        lambda: pg.SearchConfig(epsilon=0.01, max_candidates=True),
        "max_candidates: must be an integer >= 1, got True"),
    "search-seed": (
        lambda: pg.SearchConfig(epsilon=0.01, seed=False), "seed: must be an integer >= 0, got False"),
    "search-cap": (
        lambda: pg.SearchConfig(epsilon=0.01, refinement_cap=True),
        "refinement_cap: must be an integer >= 0, got True"),
    "grid-resolution": (
        lambda: pg.ProfileGrid(BOOL_GAME, 1, True), "resolution must be an integer >= 1, got True"),
    "generation-start": (
        lambda: pg.GenerationDistribution(start=True, pmf=[1.0]), "start must be an integer, got True"),
    "gaussian-support": (
        lambda: pg.discretize_gaussian(0.0, 1.0, support=(False, 3)),
        "support must be two integers, got (False, 3)"),
    "prosumer-cap": (
        lambda: prosumer(storage_cap=True),
        "storage, consumption and demand caps must be integers >= 0, got (True, 1, 2)"),
    "prosumer-tau": (
        lambda: prosumer(tau=True), "reserve target True outside battery range 0..2"),
}


@pytest.mark.parametrize("case", list(BOOL_CASES))
def test_a_bool_is_never_an_integer(case):
    # True == 1 and False == 0, so a bool used to pass every integer check
    # and fail later, deep inside numpy, or not at all
    call, message = BOOL_CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_numpy_integers_keep_passing_the_integer_rule():
    grid = pg.ProfileGrid(BOOL_GAME, np.int64(1), np.int32(2))
    assert grid.resolution == 2
    config = pg.SearchConfig(epsilon=0.01, max_candidates=np.int64(5), horizon=np.int64(1))
    assert config.resolve_horizon(BOOL_GAME) == 1
    assert prosumer(tau=np.int64(0)).tau == 0
