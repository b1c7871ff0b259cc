"""Shared test utilities: random instance factories and slow independent
oracles (joint-chain enumeration) used to cross-check the vectorized code."""
from __future__ import annotations

import itertools

import numpy as np

import ptgames as pg


def random_kernel(rng, state_count, action_count, stages=1):
    raw = rng.random((stages, state_count, action_count, state_count)) + 0.05
    return pg.TransitionKernel(probs=raw / raw.sum(axis=3, keepdims=True))


def random_weighting(rng):
    pick = int(rng.integers(4))
    if pick == 0:
        return pg.WeightingFunction.identity()
    if pick == 1:
        return pg.WeightingFunction.prelec(float(rng.uniform(0.4, 1.0)))
    if pick == 2:
        return pg.WeightingFunction.power_complement(float(rng.uniform(1.2, 3.0)))
    y1 = float(rng.uniform(0.2, 0.5))
    y2 = float(rng.uniform(y1 + 0.1, 0.9))
    w1 = float(rng.uniform(0.05, 0.6))
    w2 = float(rng.uniform(w1, 0.95))
    return pg.WeightingFunction.from_table([(0, 0), (y1, w1), (y2, w2), (1, 1)])


def random_valuation(rng):
    if int(rng.integers(2)) == 0:
        return pg.ValuationFunction.identity()
    return pg.ValuationFunction.piecewise_power(
        float(rng.uniform(0.3, 1.5)),
        float(rng.uniform(0.5, 2.0)),
        float(rng.uniform(0.3, 1.5)),
    )


def random_game(
    rng,
    n=None,
    max_states=3,
    max_actions=3,
    beta=None,
    identity_pt=False,
    stages=1,
):
    """Random validated game with dense Gaussian payoffs.

    ``identity_pt`` forces identity weighting and valuation for every player
    (the classical-expectation special case); ``stages`` > 1 makes the
    kernels nonstationary.
    """
    if n is None:
        n = int(rng.integers(1, 4))
    players = []
    for _ in range(n):
        S = int(rng.integers(1, max_states + 1))
        A = int(rng.integers(1, max_actions + 1))
        players.append(
            pg.PlayerSpec(
                state_count=S,
                action_count=A,
                kernel=random_kernel(rng, S, A, stages=stages),
                weighting=pg.WeightingFunction.identity()
                if identity_pt
                else random_weighting(rng),
                valuation=pg.ValuationFunction.identity()
                if identity_pt
                else random_valuation(rng),
            )
        )
    state_counts = tuple(p.state_count for p in players)
    action_counts = tuple(p.action_count for p in players)
    payoff = rng.normal(0.0, 1.0, size=(n, *state_counts, *action_counts))
    if beta is None:
        beta = float(rng.uniform(0.2, 0.9))
    return pg.validate_game(
        pg.GameSpec(players=tuple(players), discount_beta=beta, payoff=payoff)
    )


def random_strategy(rng, game, player, horizon):
    spec = game.players[player]
    raw = rng.random((horizon, spec.state_count, spec.action_count)) + 1e-3
    return pg.MarkovStrategy(player=player, dist=raw / raw.sum(axis=2, keepdims=True))


def random_profile(rng, game, horizon):
    return tuple(random_strategy(rng, game, i, horizon) for i in range(game.n))


def random_initial_state(rng, game):
    return tuple(int(rng.integers(p.state_count)) for p in game.players)


def joint_stage_distributions(game, profile, initial_state, horizon):
    """Exact per-stage distribution over joint (states, actions) tuples,
    computed on the *joint* chain with plain dict accumulation.

    Deliberately ignores the per-player factorization the package exploits,
    so it serves as an independent oracle for both the factorization property
    and classical expected values.
    """
    n = game.n
    action_ranges = [range(c) for c in game.action_counts]
    state_ranges = [range(c) for c in game.state_counts]
    state_probs = {tuple(initial_state): 1.0}
    stages = []
    for k in range(horizon):
        joint = {}
        for s, mass in state_probs.items():
            for a in itertools.product(*action_ranges):
                p = mass
                for i in range(n):
                    p *= profile[i].dist[k, s[i], a[i]]
                if p != 0.0:
                    joint[(s, a)] = joint.get((s, a), 0.0) + p
        stages.append(joint)
        nxt = {}
        for (s, a), p in joint.items():
            for y in itertools.product(*state_ranges):
                q = p
                for i in range(n):
                    q *= game.kernel(i, k)[s[i], a[i], y[i]]
                if q != 0.0:
                    nxt[y] = nxt.get(y, 0.0) + q
        state_probs = nxt
    return stages


def classical_joint_value(game, profile, initial_state, horizon, player):
    """Expected discounted payoff of ``player`` via the joint chain (no
    distortions), the textbook value the identity-distortion case must hit."""
    stages = joint_stage_distributions(game, profile, initial_state, horizon)
    beta = game.discount_beta
    total = 0.0
    for k, joint in enumerate(stages):
        for (s, a), p in joint.items():
            total += beta**k * p * game.payoff(player, s, a)
    return total


def per_draw_profile_indices(grid, rng, limit):
    """Reference sampler: one generator call per candidate tuple, with the
    same shuffle and rejection rules as ``sampled_profile_indices``."""
    if grid.total_profiles <= limit:
        everything = list(grid.index_tuples())
        for pos in rng.permutation(len(everything)):
            yield everything[pos]
        return
    highs = np.array(grid.cell_sizes)
    visited = set()
    produced = 0
    attempts = 0
    while produced < limit and attempts < 20 * limit:
        attempts += 1
        candidate = tuple(int(v) for v in rng.integers(0, highs))
        if candidate in visited:
            continue
        visited.add(candidate)
        produced += 1
        yield candidate
