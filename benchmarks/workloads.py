"""Seeded config generators for the ``solve`` benchmark workloads.

Each generator returns a JSON document for ``ptgames solve``; the same seed
gives a byte-identical document.  ``WORKLOADS`` pins, per workload, what a
correct run must report: exit code, candidates examined, horizon and final
lattice step.  The pins hold for every seed (see each generator).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 20250817

_VALUATION = {"kind": "piecewise_power", "c1": 0.5, "c2": 1.0, "c3": 0.3}


def _prosumer(tau: int, mu: float, variance: float) -> dict:
    return {
        "storage_cap": 2,
        "consumption_cap": 1,
        "demand_cap": 2,
        "tau": tau,
        "generation": {"mu": mu, "variance": variance},
        "weighting": {"kind": "prelec", "alpha": 0.8},
        "valuation": _VALUATION,
    }


def ref_sampled(seed: int = DEFAULT_SEED) -> dict:
    """The bundled three-prosumer reference instance at epsilon 1e-4.

    ``seed`` is the sampler seed.  The search stops at the first passing
    draw, so the number of candidates is geometric in the seed; the
    benchmark therefore always runs the headline seed (see ``WORKLOADS``).
    """
    return {
        "smartgrid": {
            "beta": 0.001,
            "prosumers": [
                _prosumer(1, 0.5, 2.0),
                _prosumer(0, 0.5, 1.0),
                _prosumer(1, 1.0, 1.0),
            ],
        },
        "run": {
            "x": [0, 0, 0],
            "epsilon": 1e-4,
            "mode": "sampled",
            "seed": seed,
            "initial_delta": 0.5,
            "max_candidates": 100000,
            "refinement_cap": 6,
        },
    }


def grid_exhaust(seed: int = DEFAULT_SEED) -> dict:
    """Random 2-player, 2-state, 2-action game searched exhaustively.

    Kernels are seeded and strictly positive, so every stage-2 state is
    reachable; the payoff is a matching-pennies cycle (player 0 gets 2 when
    actions match, player 1 when they differ) plus 0.3 N(0,1) noise.  No
    profile of the 0.5-lattice is within the 3.3e-4 allowance of the cycle,
    so all 3**8 = 6561 profiles are certified and the search exits 1.
    """
    rng = np.random.default_rng(seed)
    players = []
    for _ in range(2):
        first = rng.uniform(0.05, 0.95, size=(2, 2))
        probs = np.stack([first, 1.0 - first], axis=-1)
        players.append(
            {
                "state_count": 2,
                "action_count": 2,
                "kernel": {"mode": "stationary", "probs": probs.tolist()},
                "weighting": {"kind": "power_complement", "alpha": 1.5},
                "valuation": _VALUATION,
            }
        )
    match = np.equal.outer(np.arange(2), np.arange(2))  # (a0, a1)
    core = np.stack([2.0 * match, 2.0 * ~match])  # (player, a0, a1)
    core = np.broadcast_to(core[:, None, None], (2, 2, 2, 2, 2))  # (i, s0, s1, a0, a1)
    payoff = core + 0.3 * rng.standard_normal(core.shape)
    return {
        "game": {"beta": 0.5, "players": players, "payoff": payoff.tolist()},
        "run": {
            "x": [0, 0],
            "epsilon": 1e-3,
            "mode": "grid",
            "horizon": 2,
            "initial_delta": 0.5,
            "refinement_cap": 0,
        },
    }


def prosumer_wide(seed: int = DEFAULT_SEED) -> dict:
    """Six prosumers, 7,776 opponent tuples per weight vector.

    ``seed`` is the sampler seed.  400 draws at horizon 4 with a 3.3e-5
    allowance for six players never pass, so every seed certifies exactly
    400 candidates and exits 1.
    """
    prosumers = [
        _prosumer(k % 2, 0.5 + 0.25 * (k % 3), 1.0 + (k % 2)) for k in range(6)
    ]
    return {
        "smartgrid": {"beta": 0.001, "prosumers": prosumers},
        "run": {
            "x": [0] * 6,
            "epsilon": 1e-4,
            "mode": "sampled",
            "seed": seed,
            "initial_delta": 0.5,
            "max_candidates": 400,
            "refinement_cap": 0,
        },
    }


@dataclass(frozen=True)
class Workload:
    """A generator plus what every correct ``solve`` of its config reports."""

    generate: Callable[[int], dict]
    exit_code: int
    candidates_examined: int
    horizon: int
    final_delta: float
    fixed_seed: int | None = None

    def config_text(self, seed: int) -> str:
        """The config document for a benchmark seed, as written to disk."""
        used = seed if self.fixed_seed is None else self.fixed_seed
        return json.dumps(self.generate(used), indent=1) + "\n"


WORKLOADS = {
    # The paper's headline run; the seed is pinned because a different
    # sampler seed changes the candidate count by orders of magnitude.
    "ref-sampled": Workload(ref_sampled, 0, 10583, 3, 0.5, fixed_seed=DEFAULT_SEED),
    "grid-exhaust": Workload(grid_exhaust, 1, 6561, 2, 0.5),
    "prosumer-wide": Workload(prosumer_wide, 1, 400, 4, 0.5),
}
