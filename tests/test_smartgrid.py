"""Prosumer game construction: demand rule, discretization, kernels, payoffs."""
import math

import mpmath
import numpy as np
import pytest

import ptgames as pg
from helpers import prosumer_payoff_table

# largest |valued payoff| per prosumer in the reference instance, frozen
SIMULATION_VALUE_BOUNDS = (
    1.0835975233532482,
    0.8325546111576977,
    1.0835975233532482,
)


def point_mass(value: int) -> pg.GenerationDistribution:
    return pg.GenerationDistribution(start=value, pmf=np.array([1.0]))


def simple_prosumer(tau=1, generation=None, **kwargs):
    return pg.ProsumerSpec(
        storage_cap=2,
        consumption_cap=1,
        demand_cap=2,
        tau=tau,
        generation=point_mass(0) if generation is None else generation,
        **kwargs,
    )


# ---------------------------------------------------------------- demand rule


def test_demand_examples():
    assert pg.demand_of(1, 0, 0, 2) == 1
    assert pg.demand_of(1, 1, 0, 2) == 2
    assert pg.demand_of(0, 0, 2, 2) == 0  # reserve already covered
    assert pg.demand_of(1, 1, 1, 2) == 1
    assert pg.demand_of(2, 2, 0, 2) == 2  # capped below the shortfall of 4
    assert pg.demand_of(0, 1, 0, 1) == 1
    # elementwise on broadcast arrays: consumption along columns, storage rows
    grid = pg.demand_of(1, np.array([0, 1]), np.array([[0], [2]]), 2)
    assert np.array_equal(grid, [[1, 2], [0, 0]])


def test_demand_monotonicity():
    for tau in range(3):
        for l in range(3):
            for x in range(3):
                d = pg.demand_of(tau, l, x, 5)
                assert pg.demand_of(tau + 1, l, x, 5) >= d
                assert pg.demand_of(tau, l + 1, x, 5) >= d
                assert pg.demand_of(tau, l, x + 1, 5) <= d
                assert 0 <= d <= 5


# ------------------------------------------------------------- discretization


def test_generation_distribution_validation():
    with pytest.raises(ValueError, match="sums to"):
        pg.GenerationDistribution(0, np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="negative"):
        pg.GenerationDistribution(0, np.array([1.5, -0.5]))
    gen = pg.GenerationDistribution(-2, np.array([0.25, 0.25, 0.5]))
    assert list(gen.support) == [-2, -1, 0]


def test_gaussian_default_support_is_four_sigma():
    gen = pg.discretize_gaussian(0.5, 2.0)
    assert gen.support == range(-6, 8)
    assert abs(gen.pmf.sum() - 1.0) < 1e-12


def test_gaussian_interior_bins_match_quadrature():
    mu, variance = 0.5, 2.0
    gen = pg.discretize_gaussian(mu, variance)
    sigma = mpmath.sqrt(variance)
    for k in list(gen.support)[1:-1]:
        expected = mpmath.quad(
            lambda t: mpmath.npdf(t, mu, sigma), [k - 0.5, k + 0.5]
        )
        assert gen.pmf[k - gen.start] == pytest.approx(float(expected), abs=1e-8)


def test_gaussian_boundary_bins_absorb_tails():
    mu, variance = 0.0, 1.0
    gen = pg.discretize_gaussian(mu, variance, support=(-2, 2))
    sigma = mpmath.sqrt(variance)
    low_tail = mpmath.ncdf(-1.5, mu, sigma)
    assert gen.pmf[0] == pytest.approx(float(low_tail), abs=1e-12)
    assert gen.pmf[-1] == pytest.approx(float(low_tail), abs=1e-12)
    assert abs(gen.pmf.sum() - 1.0) < 1e-12


def test_gaussian_symmetry():
    gen = pg.discretize_gaussian(0.0, 1.0, support=(-5, 5))
    assert np.allclose(gen.pmf, gen.pmf[::-1], atol=1e-15)


def test_gaussian_tiny_variance_concentrates():
    gen = pg.discretize_gaussian(1.0, 1e-12)
    assert gen.pmf[1 - gen.start] == pytest.approx(1.0, abs=1e-12)
    pinned = pg.discretize_gaussian(0.0, 1e-12, support=(-3, 3))
    assert pinned.pmf[0 - pinned.start] == pytest.approx(1.0, abs=1e-12)


def test_gaussian_two_bin_split():
    gen = pg.discretize_gaussian(0.5, 1.0, support=(0, 1))
    assert np.allclose(gen.pmf, [0.5, 0.5], atol=1e-15)


def test_gaussian_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pg.discretize_gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        pg.discretize_gaussian(0.0, -1.0)
    with pytest.raises(ValueError):
        pg.discretize_gaussian(0.0, 1.0, support=(3, 2))


# ------------------------------------------------------------------- kernels


def test_kernel_zero_generation_moves_deterministically():
    spec = simple_prosumer(tau=0)
    table = pg.storage_kernel(spec, induced_demand=True)
    # tau 0 and x >= l: no demand, battery just drains by consumption
    assert np.array_equal(table[1, 0], [0.0, 1.0, 0.0])
    assert np.array_equal(table[1, 1], [1.0, 0.0, 0.0])
    assert np.array_equal(table[2, 1], [0.0, 1.0, 0.0])
    # empty battery, consume 1: demand 1 covers it, charge stays 0
    assert np.array_equal(table[0, 1], [1.0, 0.0, 0.0])


def test_kernel_clamps_at_battery_bounds():
    spec = simple_prosumer(tau=0, generation=point_mass(5))
    table = pg.storage_kernel(spec, induced_demand=True)
    assert np.array_equal(table[2, 0], [0.0, 0.0, 1.0])  # already full
    assert np.array_equal(table[0, 0], [0.0, 0.0, 1.0])  # jump past the cap
    low = simple_prosumer(tau=0, generation=point_mass(-4))
    table = pg.storage_kernel(low, induced_demand=True)
    assert np.array_equal(table[2, 1], [1.0, 0.0, 0.0])  # drained below 0


def test_kernel_rows_match_direct_convolution():
    spec = simple_prosumer(tau=1, generation=pg.discretize_gaussian(0.5, 2.0))
    table = pg.storage_kernel(spec, induced_demand=True)
    gen = spec.generation[0]
    for x in range(spec.state_count):
        for l in range(spec.consumption_count):
            d = pg.demand_of(spec.tau, l, x, spec.demand_cap)
            expected = {}
            for g, mass in zip(gen.support, gen.pmf):
                nxt = min(max(x + g + d - l, 0), spec.storage_cap)
                expected[nxt] = expected.get(nxt, 0.0) + mass
            for nxt in range(spec.state_count):
                assert table[x, l, nxt] == pytest.approx(
                    expected.get(nxt, 0.0), abs=1e-12
                )


def test_kernel_rows_are_distributions():
    for tau in (0, 1, 2):
        spec = simple_prosumer(tau=tau, generation=pg.discretize_gaussian(1.0, 1.0))
        for induced in (True, False):
            table = pg.storage_kernel(spec, induced_demand=induced)
            assert np.all(table >= 0.0)
            assert np.allclose(table.sum(axis=2), 1.0, atol=1e-12)


def test_full_encoding_indexes_consumption_demand_pairs():
    spec = simple_prosumer(tau=1, generation=pg.discretize_gaussian(0.5, 1.0))
    full = pg.storage_kernel(spec, induced_demand=False)
    induced = pg.storage_kernel(spec, induced_demand=True)
    assert full.shape == (3, spec.consumption_count * spec.demand_count, 3)
    for x in range(spec.state_count):
        for l in range(spec.consumption_count):
            d = pg.demand_of(spec.tau, l, x, spec.demand_cap)
            a = l * spec.demand_count + d
            assert np.array_equal(induced[x, l], full[x, a])


def test_nonstationary_generation_changes_stage_kernels():
    spec = simple_prosumer(
        tau=0, generation=(point_mass(0), point_mass(1))
    )
    first = pg.storage_kernel(spec, 0, induced_demand=True)
    second = pg.storage_kernel(spec, 1, induced_demand=True)
    assert np.array_equal(second[0, 0], [0.0, 1.0, 0.0])
    assert np.array_equal(first[0, 0], [1.0, 0.0, 0.0])
    game = pg.build_prosumer_game([spec], 0.5)
    assert not game.players[0].kernel.is_stationary
    assert np.array_equal(game.kernel(0, 0), first)
    assert np.array_equal(game.kernel(0, 5), second)  # last stage repeats


# ------------------------------------------------------------------- payoffs


def test_fairness_price_examples():
    assert np.array_equal(pg.fairness_price([1.0, 1.0, 2.0]), [0.25, 0.25, 0.5])
    assert np.array_equal(pg.fairness_price([0.0, 0.0]), [0.0, 0.0])
    assert np.array_equal(pg.fairness_price([3.0]), [1.0])
    with pytest.raises(ValueError):
        pg.fairness_price([1.0, -0.5])
    with pytest.raises(ValueError):
        pg.fairness_price([1.0, math.nan])
    # consumers on the leading axis, one demand profile per column
    demands = np.array([[1.0, 0.0, 3.0], [1.0, 0.0, 1.0]])
    assert np.array_equal(pg.fairness_price(demands), [[0.5, 0.0, 0.75], [0.5, 0.0, 0.25]])
    assert np.array_equal(demands, [[1.0, 0.0, 3.0], [1.0, 0.0, 1.0]])  # input untouched


def test_prosumer_payoff_examples():
    spec = simple_prosumer()
    # no consumption, no demand anywhere: nothing gained, nothing billed
    assert pg.prosumer_payoff(spec, 0, 0, [0, 0, 0], 0) == 0.0
    # consume 1 free of charge
    assert pg.prosumer_payoff(spec, 0, 1, [0, 5, 5], 0) == pytest.approx(
        math.log(2.0)
    )
    # sole demander pays the full unit price on both units
    assert pg.prosumer_payoff(spec, 0, 1, [2, 0, 0], 0) == pytest.approx(
        math.log(2.0) - 2.0
    )
    # equal split halves the price
    assert pg.prosumer_payoff(spec, 0, 1, [1, 1], 0) == pytest.approx(
        math.log(2.0) - 0.5
    )


def test_storage_cost_enters_payoff():
    spec = simple_prosumer(storage_cost=lambda x: 0.1 * x)
    base = pg.prosumer_payoff(spec, 0, 1, [0, 0], 0)
    assert pg.prosumer_payoff(spec, 2, 1, [0, 0], 0) == pytest.approx(base - 0.2)


def test_prosumer_spec_validation():
    with pytest.raises(ValueError, match="reserve target"):
        simple_prosumer(tau=3)
    with pytest.raises(ValueError):
        pg.ProsumerSpec(
            storage_cap=-1, consumption_cap=1, demand_cap=1, tau=0,
            generation=point_mass(0),
        )
    with pytest.raises(ValueError):
        pg.ProsumerSpec(
            storage_cap=1, consumption_cap=1, demand_cap=1, tau=0, generation=(),
        )


# ------------------------------------------------------------ assembled games


def test_induced_payoff_sees_opponent_batteries():
    # an opponent with a full battery demands nothing, so the bill changes
    specs = [simple_prosumer(tau=1), simple_prosumer(tau=1)]
    game = pg.build_prosumer_game(specs, 0.5)
    alone = game.payoff(0, (0, 0), (1, 1))  # both demand 2: price 1/2 each
    crowded = game.payoff(0, (0, 2), (1, 1))  # opponent self-covered
    assert alone == pytest.approx(math.log(2.0) - 1.0)
    assert crowded == pytest.approx(math.log(2.0) - 2.0)


def test_full_encoding_payoff_ignores_opponent_batteries():
    specs = [simple_prosumer(tau=1), simple_prosumer(tau=1)]
    game = pg.build_prosumer_game(specs, 0.5, induced_demand=False)
    for a0 in range(6):
        for a1 in range(6):
            values = {
                game.payoff(0, (0, x1), (a0, a1)) for x1 in range(3)
            }
            assert len(values) == 1


def test_encodings_agree_on_induced_demands():
    specs = [simple_prosumer(tau=1), simple_prosumer(tau=0)]
    induced = pg.build_prosumer_game(specs, 0.5)
    full = pg.build_prosumer_game(specs, 0.5, induced_demand=False)
    for states in np.ndindex(3, 3):
        for consumptions in np.ndindex(2, 2):
            actions = tuple(
                l * spec.demand_count
                + pg.demand_of(spec.tau, l, x, spec.demand_cap)
                for spec, l, x in zip(specs, consumptions, states)
            )
            for i in range(2):
                assert induced.payoff(i, states, consumptions) == pytest.approx(
                    full.payoff(i, states, actions), abs=1e-15
                )


# (storage_cap, consumption_cap, demand_cap, tau) per prosumer, all unequal
UNEQUAL_CAPS = [(2, 1, 2, 1), (1, 2, 1, 0), (0, 1, 1, 0), (1, 0, 2, 1)]


@pytest.mark.parametrize("induced_demand", [True, False], ids=["induced", "full"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_broadcast_payoff_matches_per_entry_reference(n, induced_demand):
    rng = np.random.default_rng(40 + n)
    valuation = pg.ValuationFunction.piecewise_power(0.5, 1.0, 0.3)
    specs = []
    for k, (storage_cap, consumption_cap, demand_cap, tau) in enumerate(UNEQUAL_CAPS[:n]):
        extra = {}
        if k % 2:  # custom tables on every other prosumer
            satisfaction = rng.normal(size=consumption_cap + 1)
            cost = rng.uniform(0.0, 0.5, size=storage_cap + 1)
            extra = dict(
                satisfaction=lambda l, t=satisfaction: t[l],
                storage_cost=lambda x, t=cost: t[x],
            )
        generation = (pg.discretize_gaussian(0.5, 1.0), point_mass(k % 2))
        specs.append(pg.ProsumerSpec(
            storage_cap=storage_cap,
            consumption_cap=consumption_cap,
            demand_cap=demand_cap,
            tau=tau,
            generation=generation if k != 2 else generation[0],  # per-stage or not
            valuation=valuation,
            **extra,
        ))
    game = pg.build_prosumer_game(specs, 0.3, induced_demand=induced_demand)
    reference = pg.validate_game(pg.GameSpec(
        players=game.players,
        discount_beta=0.3,
        payoff=prosumer_payoff_table(specs, induced_demand),
    ))
    assert np.array_equal(game.payoff_table, reference.payoff_table)
    for mine, theirs in zip(game.valued_payoffs, reference.valued_payoffs):
        assert np.array_equal(mine, theirs)
    assert np.array_equal(game.value_bounds, reference.value_bounds)


def test_simulation_game_shape_and_bounds():
    game = pg.build_simulation_game()
    assert game.n == 3
    assert game.state_counts == (3, 3, 3)
    assert game.action_counts == (2, 2, 2)
    assert game.joint_state_count == 27
    assert game.joint_action_count == 8
    assert game.discount_beta == 0.001
    for bound, expected in zip(game.value_bounds, SIMULATION_VALUE_BOUNDS):
        assert bound == pytest.approx(expected, rel=1e-12)
    assert pg.truncation_horizon(0.01, game).horizon == 2


def test_simulation_game_preferences():
    game = pg.build_simulation_game()
    for player in game.players:
        assert player.weighting.kind == "prelec"
        assert player.weighting.alpha == 0.8
        assert player.valuation.kind == "piecewise_power"
    # the middle prosumer's bound comes from the gain side: v(log 2)
    gain = math.sqrt(math.log(2.0))
    assert game.value_bounds[1] == pytest.approx(gain, rel=1e-12)
    # the outer prosumers' bound from the worst bill: v(log 2 - 2)
    loss = (2.0 - math.log(2.0)) ** 0.3
    assert game.value_bounds[0] == pytest.approx(loss, rel=1e-12)


def test_build_rejects_empty_prosumer_list():
    with pytest.raises(ValueError):
        pg.build_prosumer_game([], 0.5)
