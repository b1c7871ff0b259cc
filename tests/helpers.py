"""Shared test utilities: random instance factories and slow independent
oracles (joint-chain enumeration, brute-force policy search, per-stage
opponent weights, per-entry prosumer payoffs, per-draw sampling) used to
cross-check the vectorized code, and index-tuple views of profile grids."""
from __future__ import annotations

import itertools

import numpy as np

import ptgames as pg
from ptgames import search


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


def six_prosumers():
    """The prosumers of the benchmark's 6-prosumer game (7,776 opponent
    tuples per weight vector), for ``pg.build_prosumer_game`` at beta 0.001."""
    return [
        pg.ProsumerSpec(
            storage_cap=2,
            consumption_cap=1,
            demand_cap=2,
            tau=k % 2,
            generation=pg.discretize_gaussian(0.5 + 0.25 * (k % 3), 1.0 + (k % 2)),
            weighting=pg.WeightingFunction.prelec(0.8),
            valuation=pg.ValuationFunction.piecewise_power(0.5, 1.0, 0.3),
        )
        for k in range(6)
    ]


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


def index_tuples(grid):
    """All per-cell index assignments of a ``ProfileGrid`` in enumeration
    order."""
    return itertools.product(*(range(size) for size in grid.cell_sizes))


def sampled_profile_indices(grid, rng, limit):
    """The sampled search's draws as one index tuple at a time: a flat view
    over blocks of one row."""
    for block in search._sampled_blocks(grid, rng, limit, rows=1):
        yield from map(tuple, block.tolist())


def per_draw_profile_indices(grid, rng, limit):
    """Reference sampler: one generator call per candidate tuple, with the
    same shuffle and rejection rules as the sampled search."""
    if grid.total_profiles <= limit:
        everything = list(index_tuples(grid))
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


def opponent_weight_vector(game, player, marginals, stage_index):
    """Player's weighting applied to the joint probability of every opponent
    (state, action) tuple at one stage, one outer product per opponent, in
    the column order of the valued payoff matrix (players ascending, then
    (state, action) lexicographic).  With no opponents the single empty
    tuple has probability 1."""
    vec = np.ones(1)
    for j in range(game.n):
        if j != player:
            vec = np.multiply.outer(vec, marginals[j].probs[stage_index].ravel()).ravel()
    return game.players[player].weighting(vec)


def policy_value(game, player, rewards, initial_state, choice):
    """Exact forward evaluation of a deterministic policy under the (already
    discounted) stage rewards."""
    m, S = choice.shape
    state_ix = np.arange(S)
    mass = np.zeros(S)
    mass[initial_state] = 1.0
    total = 0.0
    for k in range(m):
        total += float(mass @ rewards[k, state_ix, choice[k]])
        if k < m - 1:
            mass = np.einsum("s,sp->p", mass, game.kernel(player, k)[state_ix, choice[k]])
    return total


def enumerate_dm_policies(game, player, rewards, initial_state, horizon=None, cap=10**6):
    """Brute-force the best deterministic Markov policy by evaluating every
    one of the A**(horizon*S) candidates with exact forward propagation.

    Returns ``(policy, value)``; ties keep the first maximizer in enumeration
    order ((stage, state) cells lexicographic, last cell fastest).  Refuses
    to enumerate more than ``cap`` policies.
    """
    if rewards.player != player:
        raise ValueError(
            f"reward table belongs to player {rewards.player}, expected {player}"
        )
    m = rewards.horizon if horizon is None else horizon
    if m < 1 or rewards.horizon < m:
        raise ValueError(f"horizon {m} not covered by a {rewards.horizon}-stage table")
    spec = game.players[player]
    S, A = spec.state_count, spec.action_count
    if not 0 <= initial_state < S:
        raise ValueError(f"initial state {initial_state} outside 0..{S - 1}")
    total = A ** (m * S)
    if total > cap:
        raise ValueError(
            f"enumeration would visit {total} policies, above the cap {cap}"
        )
    best_choice = None
    best_value = -np.inf
    for flat in itertools.product(range(A), repeat=m * S):
        choice = np.array(flat, dtype=int).reshape(m, S)
        value = policy_value(game, player, rewards.rewards, initial_state, choice)
        if value > best_value:
            best_value = value
            best_choice = choice
    policy = pg.DeterministicMarkovPolicy(player=player, choice=best_choice, action_count=A)
    return policy, best_value


def prosumer_payoff_table(prosumers, induced_demand=True):
    """The prosumer payoff table filled one entry at a time through the
    scalar ``prosumer_payoff``, with demands from the reserve rule
    (``induced_demand``) or decoded from the action as
    consumption * demand_count + demand."""
    n = len(prosumers)

    def payoff(i, states, actions):
        if induced_demand:
            consumptions = actions
            demands = [
                pg.demand_of(p.tau, actions[j], states[j], p.demand_cap)
                for j, p in enumerate(prosumers)
            ]
        else:
            consumptions = [a // p.demand_count for a, p in zip(actions, prosumers)]
            demands = [a % p.demand_count for a, p in zip(actions, prosumers)]
        return pg.prosumer_payoff(prosumers[i], states[i], consumptions[i], demands, i)

    action_counts = [
        p.consumption_count * (1 if induced_demand else p.demand_count)
        for p in prosumers
    ]
    table = np.empty((n, *(p.state_count for p in prosumers), *action_counts))
    for idx in np.ndindex(*table.shape):
        table[idx] = payoff(idx[0], idx[1 : 1 + n], idx[1 + n :])
    return table
