"""End-to-end acceptance checks with pinned tolerances and time budgets.

Every test prints one summary line so a full run reads as a checklist.
"""
import itertools
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import conftest
import ptgames as pg
from ptgames import cli
from helpers import (
    classical_joint_value,
    enumerate_dm_policies,
    joint_stage_distributions,
    random_game,
    random_initial_state,
    random_profile,
    random_strategy,
    six_prosumers,
)

BUNDLED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "smartgrid.json"


def report(index, label, elapsed, budget, detail):
    line = (f"criterion {index} ({label}): PASS in {elapsed:.2f}s "
            f"(budget {budget:.0f}s) — {detail}")
    print(line)
    conftest.acceptance_lines.append(line)


def test_reference_instance_builds_fast_with_short_horizon():
    budget = 1.0
    started = time.perf_counter()
    game = pg.build_simulation_game()
    horizon = pg.truncation_horizon(0.01, game)
    elapsed = time.perf_counter() - started
    assert horizon == 2
    assert game.n == 3
    assert elapsed < budget
    report(1, "reference build", elapsed, budget,
           f"horizon {horizon}, bounds {np.round(game.value_bounds, 4)}")


def test_forward_marginals_are_feasible_and_reconstructible():
    budget = 10.0
    tolerance_flow = 1e-10
    tolerance_round = 1e-12
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst_residual = 0.0
    worst_round = 0.0
    for _ in range(200):
        game = random_game(
            rng, max_states=4, max_actions=3, stages=int(rng.integers(1, 3))
        )
        player = int(rng.integers(game.n))
        horizon = int(rng.integers(1, 6))
        x = int(rng.integers(game.players[player].state_count))
        strategy = random_strategy(rng, game, player, horizon)
        table = pg.forward_marginals(game, strategy, x, horizon)
        violations = pg.check_flow_constraints(game, table, x, tolerance=tolerance_flow)
        if violations:
            worst_residual = max(
                worst_residual, max(abs(v.residual) for v in violations)
            )
        assert violations == []
        rebuilt = pg.strategy_from_marginals(table)
        replayed = pg.forward_marginals(game, rebuilt, x, horizon)
        worst_round = max(
            worst_round, float(np.max(np.abs(replayed.probs - table.probs)))
        )
    elapsed = time.perf_counter() - started
    assert worst_round <= tolerance_round
    assert elapsed < budget
    report(2, "flow feasibility + round trip", elapsed, budget,
           f"200 triples, worst round-trip error {worst_round:.2e}")


def test_backward_induction_agrees_with_policy_enumeration():
    budget = 30.0
    tolerance = 1e-9
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        game = random_game(rng, n=int(rng.integers(1, 4)), max_states=3, max_actions=2)
        horizon = int(rng.integers(1, 4))
        profile = random_profile(rng, game, horizon)
        x = random_initial_state(rng, game)
        tables = [
            pg.forward_marginals(game, profile[i], x[i], horizon)
            for i in range(game.n)
        ]
        player = int(rng.integers(game.n))
        rewards = pg.induced_stage_rewards(game, player, tables, horizon)
        fast = pg.backward_induction(game, player, rewards, x[player], horizon)
        _, brute = enumerate_dm_policies(game, player, rewards, x[player], horizon)
        worst = max(worst, abs(fast.value - brute))
    elapsed = time.perf_counter() - started
    assert worst <= tolerance
    assert elapsed < budget
    report(3, "best response vs enumeration", elapsed, budget,
           f"100 instances, worst value gap {worst:.2e}")


def test_identity_distortions_reduce_to_classical_values():
    budget = 30.0
    tolerance = 1e-10
    rng = np.random.default_rng(103)
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 50:
        game = random_game(rng, identity_pt=True)
        if game.joint_state_count * game.joint_action_count > 64:
            continue
        checked += 1
        horizon = int(rng.integers(1, 5))
        profile = random_profile(rng, game, horizon)
        x = random_initial_state(rng, game)
        tables = [
            pg.forward_marginals(game, profile[i], x[i], horizon)
            for i in range(game.n)
        ]
        report_pt = pg.pt_payoff(game, tables, horizon)
        for i in range(game.n):
            classical = classical_joint_value(game, profile, x, horizon, i)
            worst = max(worst, abs(report_pt.value(i) - classical))
    elapsed = time.perf_counter() - started
    assert worst <= tolerance
    assert elapsed < budget
    report(4, "identity reduction", elapsed, budget,
           f"50 games, worst deviation from joint-chain value {worst:.2e}")


def test_truncation_bound_dominates_observed_tails():
    # the m-stage value against the (m+10)-stage value, for m = 1..5
    budget = 60.0
    table_horizon = 15
    rng = np.random.default_rng(104)
    started = time.perf_counter()
    slack = 0.0
    for _ in range(20):
        game = random_game(rng, n=int(rng.integers(1, 3)), max_states=2, max_actions=2)
        bounds = {
            m: pg.truncation_error_bound(game, m) for m in range(1, 6)
        }
        for _ in range(10):
            profile = random_profile(rng, game, table_horizon)
            x = random_initial_state(rng, game)
            tables = [
                pg.forward_marginals(game, profile[i], x[i], table_horizon)
                for i in range(game.n)
            ]
            for m in range(1, 6):
                short = pg.pt_payoff(game, tables, m).values
                long = pg.pt_payoff(game, tables, m + 10).values
                observed = np.abs(long - short)
                assert np.all(observed <= bounds[m] + 1e-12)
                slack = max(slack, float(np.max(observed / np.maximum(bounds[m], 1e-300))))
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    report(5, "truncation soundness", elapsed, budget,
           f"20 games x 10 profiles x m=1..5, worst observed/bound ratio {slack:.3f}")


def exhaustive_best_deviation(game, tables, x, player, horizon):
    """Best value over every deterministic Markov policy, evaluated through
    the criterion itself (no backward induction involved)."""
    spec = game.players[player]
    best = -np.inf
    for assignment in itertools.product(
        range(spec.action_count), repeat=horizon * spec.state_count
    ):
        choice = np.array(assignment).reshape(horizon, spec.state_count)
        policy = pg.DeterministicMarkovPolicy(
            player=player, choice=choice, action_count=spec.action_count
        )
        strategy = pg.dm_policy_to_strategy(policy)
        deviated = list(tables)
        deviated[player] = pg.forward_marginals(game, strategy, x[player], horizon)
        value = pg.pt_payoff(game, deviated, horizon).value(player)
        best = max(best, value)
    return best


def test_search_results_survive_exhaustive_deviation_checks():
    budget = 60.0
    tolerance = 1e-9
    rng = np.random.default_rng(105)
    started = time.perf_counter()
    checked = 0
    modes = set()
    for trial in range(12):
        game = random_game(rng, n=2, max_states=2, max_actions=2)
        horizon = int(rng.integers(1, 3))
        x = random_initial_state(rng, game)
        # pick a tolerance the level-0 lattice can certainly satisfy (the
        # uniform profile lies on it), so every search returns a certificate
        uniform = tuple(
            pg.MarkovStrategy(
                player=i,
                dist=np.full(
                    (horizon, p.state_count, p.action_count), 1.0 / p.action_count
                ),
            )
            for i, p in enumerate(game.players)
        )
        probe = pg.certify(game, uniform, x, horizon, 1.0)
        epsilon = 3.0 * (float(np.max(probe.gaps)) + 0.05)
        # odd trials give the first level a budget of 8 candidates, which
        # samples it when it holds more profiles
        config = pg.SearchConfig(
            epsilon=epsilon, horizon=horizon, seed=trial,
            max_candidates=100_000 if trial % 2 == 0 else 8,
        )
        cert = pg.search_equilibrium(game, x, config)
        assert cert.passed
        modes.add(cert.mode)

        tables = [
            pg.forward_marginals(game, cert.profile[i], x[i], horizon)
            for i in range(game.n)
        ]
        values = pg.pt_payoff(game, tables, horizon).values
        for i in range(game.n):
            best = exhaustive_best_deviation(game, tables, x, i, horizon)
            assert best - values[i] <= epsilon / 3.0 + tolerance
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 12
    assert modes == {"grid", "sampled"}
    assert elapsed < budget
    report(6, "certificate soundness", elapsed, budget,
           f"{checked} search results (enumerated and sampled) beat exhaustive deviation sweeps")


def test_reference_instance_sampled_search_finds_equilibrium(tmp_path):
    budget = 600.0
    started = time.perf_counter()
    out = tmp_path / "reference"
    code = cli.main([
        "solve", "--config", str(BUNDLED_CONFIG), "--out", str(out)
    ])
    elapsed = time.perf_counter() - started
    assert code == 0
    text = (out / "certificate.txt").read_text()
    assert text.startswith("passed: true\n")
    assert "mode: sampled" in text
    assert "horizon: 2" in text
    gaps = [
        float(line.split()[-1])
        for line in text.splitlines()
        if line.lstrip().startswith("gap:")
    ]
    assert len(gaps) == 3
    assert max(gaps) <= 0.01 / 3 + 1e-12
    # bar-chart data: every (player, stage, state, action) probability
    plot = cli.read_probability_csv(out / "plot_data.csv")
    assert sorted(plot) == [0, 1, 2]
    for probs in plot.values():
        assert probs.shape == (2, 3, 2)
        assert np.allclose(probs.sum(axis=2), 1.0, atol=1e-12)
    assert elapsed < budget
    report(7, "reference search", elapsed, budget,
           f"certificate passed with worst gap {max(gaps):.2e}")


def test_grid_step_matches_arbitrary_precision_arithmetic():
    budget = 1.0
    tolerance = 1e-12
    rng = np.random.default_rng(106)
    started = time.perf_counter()

    def oracle(game, epsilon, bound):
        with mpmath.workdps(60):
            beta = mpmath.mpf(game.discount_beta)
            eps = mpmath.mpf(epsilon)
            sizes = game.joint_state_count * game.joint_action_count
            horizon = 1
            for K in game.value_bounds:
                if K <= 0.0:
                    continue
                ratio = mpmath.log(
                    (1 - beta) * eps / (6 * mpmath.mpf(K) * sizes)
                ) / mpmath.log(beta)
                horizon = max(horizon, int(mpmath.ceil(ratio)))
            worst = mpmath.mpf(max(game.value_bounds))
            tail = sum(
                mpmath.mpf(p.state_count * p.action_count) ** horizon
                for p in game.players
            )
            delta = (1 - beta) * eps / (
                6 * mpmath.mpf(bound) * worst * sizes * horizon * tail
            )
            return float(delta), horizon

    checked = 0
    worst_rel = 0.0
    while checked < 10:
        n = int(rng.integers(1, 3))
        players = []
        for _ in range(n):
            S = int(rng.integers(1, 3))
            A = int(rng.integers(1, 3))
            raw = rng.random((1, S, A, S)) + 0.05
            players.append(pg.PlayerSpec(
                state_count=S,
                action_count=A,
                kernel=pg.TransitionKernel(probs=raw / raw.sum(axis=3, keepdims=True)),
                weighting=pg.WeightingFunction.power_complement(
                    float(rng.uniform(1.1, 2.5))
                ),
            ))
        payoff = rng.normal(0.0, 2.0, size=(
            n,
            *(p.state_count for p in players),
            *(p.action_count for p in players),
        ))
        game = pg.validate_game(pg.GameSpec(
            players=tuple(players),
            discount_beta=float(rng.uniform(0.25, 0.9)),
            payoff=payoff,
        ))
        epsilon = float(rng.uniform(0.02, 1.5))
        bound = max(p.weighting.lipschitz_constant for p in game.players)
        delta, horizon = pg.lipschitz_delta(epsilon, game)
        expected_delta, expected_horizon = oracle(game, epsilon, bound)
        assert horizon == expected_horizon
        rel = abs(delta - expected_delta) / expected_delta
        worst_rel = max(worst_rel, rel)
        assert rel <= tolerance
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < budget
    report(8, "grid-step precision", elapsed, budget,
           f"10 parameter tuples, worst relative error {worst_rel:.2e}")


def test_marginal_products_match_joint_chain():
    budget = 5.0
    tolerance = 1e-12
    rng = np.random.default_rng(107)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        game = random_game(
            rng,
            n=2 if trial < 8 else 3,
            max_states=2,
            max_actions=2,
            stages=int(rng.integers(1, 3)),
        )
        horizon = int(rng.integers(1, 4))
        profile = random_profile(rng, game, horizon)
        x = random_initial_state(rng, game)
        tables = [
            pg.forward_marginals(game, profile[i], x[i], horizon)
            for i in range(game.n)
        ]
        joint = joint_stage_distributions(game, profile, x, horizon)
        for k in range(horizon):
            for s in itertools.product(*(range(c) for c in game.state_counts)):
                for a in itertools.product(*(range(c) for c in game.action_counts)):
                    product = 1.0
                    for i in range(game.n):
                        product *= tables[i].probs[k, s[i], a[i]]
                    expected = joint[k].get((s, a), 0.0)
                    worst = max(worst, abs(product - expected))
    elapsed = time.perf_counter() - started
    assert worst <= tolerance
    assert elapsed < budget
    report(9, "marginal factorization", elapsed, budget,
           f"10 games, worst product-vs-joint deviation {worst:.2e}")


def test_six_prosumer_instance_builds_within_budget():
    # the benchmark's prosumer-wide game: 6 * 6**6 payoff entries; filling
    # them one Python call at a time takes several times the budget
    budget = 1.0
    started = time.perf_counter()
    game = pg.build_prosumer_game(six_prosumers(), discount_beta=0.001)
    elapsed = time.perf_counter() - started
    assert game.payoff_table.shape == (6,) + (3,) * 6 + (2,) * 6
    assert elapsed < budget
    report(10, "6-prosumer build", elapsed, budget,
           f"{game.payoff_table.size} payoff entries, bounds {np.round(game.value_bounds, 4)}")
