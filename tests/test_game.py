"""Distortion functions, kernels, and game validation."""
import math

import numpy as np
import pytest

import ptgames as pg
from helpers import random_game

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


def test_weighting_rejects_out_of_domain():
    w = pg.WeightingFunction.prelec(0.8)
    with pytest.raises(ValueError):
        w(-0.1)
    with pytest.raises(ValueError):
        w(1.1)


def test_weighting_scalar_and_array_forms_agree():
    for w in (
        pg.WeightingFunction.identity(),
        pg.WeightingFunction.prelec(0.7),
        pg.WeightingFunction.power_complement(1.8),
        pg.WeightingFunction.from_table([(0, 0), (0.4, 0.2), (1, 1)]),
    ):
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
    player = pg.PlayerSpec(
        state_count=1, action_count=1, kernel=chain([[[0.9]]])
    )
    with pytest.raises(pg.GameValidationError) as err:
        pg.validate_game(
            pg.GameSpec(players=(player,), discount_beta=0.5, payoff=np.zeros((1, 1, 1)))
        )
    (violation,) = err.value.violations
    assert "row sum 0.9" in violation
    assert "(player 0, t=1, s=0, a=0)" in violation


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
    bad_kernel = pg.PlayerSpec(state_count=1, action_count=1, kernel=chain([[[0.8]]]))
    with pytest.raises(pg.GameValidationError) as err:
        pg.validate_game(
            pg.GameSpec(
                players=(bad_kernel,),
                discount_beta=1.5,
                payoff=np.full((1, 1, 1), np.nan),
            )
        )
    text = "; ".join(err.value.violations)
    assert "row sum" in text
    assert "discount factor" in text
    assert "non-finite payoff" in text


def test_negative_probability_reported():
    player = pg.PlayerSpec(
        state_count=2,
        action_count=1,
        kernel=chain([[[1.5, -0.5]], [[0.0, 1.0]]]),
    )
    with pytest.raises(pg.GameValidationError) as err:
        pg.validate_game(
            pg.GameSpec(
                players=(player,), discount_beta=0.5, payoff=np.zeros((1, 2, 1))
            )
        )
    assert any("negative probability" in v for v in err.value.violations)


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
