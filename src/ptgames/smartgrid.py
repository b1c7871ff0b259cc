"""Prosumer storage game on a shared distribution grid.

Each prosumer owns a battery with integer charge levels 0..storage_cap,
decides how much to consume each stage, and draws power from the grid to
keep a target reserve: with target tau, charge x and consumption l, the
induced demand is max(0, tau + l - x) capped at demand_cap.  Renewable
generation is an integer-valued random variable (a discretized Gaussian by
default) and the battery follows

    next = clamp(x + generation + demand - consumption, 0, storage_cap),

independently across prosumers.  They interact only through the bill: the
price per unit is the prosumer's share of total demand (fairness pricing),
so the stage payoff is

    satisfaction(l) - demand * price - storage_cost(x).

``build_prosumer_game`` builds the whole payoff table by numpy broadcasting
over per-player level axes and validates the game, by default with
consumption as the only action and demand induced;
``build_simulation_game`` is the fixed three-prosumer instance used for the
reference run (near-myopic discount 0.001, prelec 0.8 weighting, S-shaped
valuation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .game import (
    GameSpec,
    PlayerSpec,
    TransitionKernel,
    ValidatedGame,
    ValuationFunction,
    WeightingFunction,
    _distribution_problem,
    _is_integer,
    validate_game,
)

__all__ = [
    "GenerationDistribution",
    "ProsumerSpec",
    "demand_of",
    "discretize_gaussian",
    "fairness_price",
    "prosumer_payoff",
    "storage_kernel",
    "build_prosumer_game",
    "build_simulation_game",
]


@dataclass(frozen=True)
class GenerationDistribution:
    """Integer-valued generation: probability mass on start, start+1, ...

    The mass must be a probability vector; ``support`` runs over the carried
    integers (which may be negative — net generation minus local losses).
    It is stored divided by its sum, so a kernel row that groups its masses
    sums to 1 up to rounding however far within the sum tolerance it was.
    """

    start: int
    pmf: np.ndarray

    def __post_init__(self):
        if not _is_integer(self.start):
            raise ValueError(f"start must be an integer, got {self.start!r}")
        arr = np.array(self.pmf, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("generation pmf must be a nonempty vector")
        problem = _distribution_problem(arr)
        if problem is not None:
            raise ValueError(problem[0])
        arr /= arr.sum()
        arr.setflags(write=False)
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "pmf", arr)

    @property
    def support(self) -> range:
        return range(self.start, self.start + self.pmf.size)


def discretize_gaussian(
    mu: float, variance: float, support: tuple | None = None
) -> GenerationDistribution:
    """Project a Gaussian onto the integers: interior bin k gets the mass of
    [k - 1/2, k + 1/2], and the two boundary bins absorb their tails, so the
    masses sum to 1 up to rounding (the distribution divides by their sum).

    ``support`` is an inclusive integer interval; by default four standard
    deviations around the mean, rounded outward.  As the variance shrinks the
    result concentrates on the bin nearest the mean.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mean must be finite, got {mu}")
    if not (math.isfinite(variance) and variance > 0.0):
        raise ValueError(f"variance must be positive and finite, got {variance}")
    sigma = math.sqrt(variance)
    if support is None:
        lo = math.floor(mu - 4.0 * sigma)
        hi = math.ceil(mu + 4.0 * sigma)
    else:
        if not (np.ndim(support) == 1 and len(support) == 2
                and all(map(_is_integer, support))):
            raise ValueError(f"support must be two integers, got {support!r}")
        lo, hi = int(support[0]), int(support[1])
        if hi < lo:
            raise ValueError(f"empty support [{lo}, {hi}]")

    def cdf(z: float) -> float:
        return 0.5 * (1.0 + math.erf((z - mu) / (sigma * math.sqrt(2.0))))

    masses = np.empty(hi - lo + 1)
    for k in range(lo, hi + 1):
        upper = 1.0 if k == hi else cdf(k + 0.5)
        lower = 0.0 if k == lo else cdf(k - 0.5)
        masses[k - lo] = upper - lower
    return GenerationDistribution(start=lo, pmf=masses)


@dataclass(frozen=True)
class ProsumerSpec:
    """One prosumer: battery size, consumption range, demand cap, reserve
    target, generation law, and preferences.

    ``generation`` may be a single distribution (stationary) or one per stage
    (the last repeats afterwards).  ``satisfaction`` holds the utility of
    each consumption level 0..consumption_cap (log(1 + l) by default) and
    ``storage_cost`` the cost of holding each battery level 0..storage_cap
    (free by default); each is stored as a read-only float copy, after the
    length rule and the rule that every entry is finite.
    """

    storage_cap: int
    consumption_cap: int
    demand_cap: int
    tau: int
    generation: Union[GenerationDistribution, tuple]
    satisfaction: Sequence[float] | None = None
    storage_cost: Sequence[float] | None = None
    weighting: WeightingFunction = WeightingFunction.identity()
    valuation: ValuationFunction = ValuationFunction.identity()

    def __post_init__(self):
        caps = (self.storage_cap, self.consumption_cap, self.demand_cap)
        if not all(_is_integer(c) and c >= 0 for c in caps):
            raise ValueError(
                f"storage, consumption and demand caps must be integers >= 0, got {caps}"
            )
        if not (_is_integer(self.tau) and 0 <= self.tau <= self.storage_cap):
            raise ValueError(
                f"reserve target {self.tau} outside battery range 0..{self.storage_cap}"
            )
        if isinstance(self.generation, GenerationDistribution):
            object.__setattr__(self, "generation", (self.generation,))
        else:
            gens = tuple(self.generation)
            if not gens or not all(
                isinstance(g, GenerationDistribution) for g in gens
            ):
                raise ValueError(
                    "generation must be one GenerationDistribution or a nonempty "
                    "sequence of them"
                )
            object.__setattr__(self, "generation", gens)
        log1p = [math.log1p(l) for l in range(self.consumption_count)]
        self._freeze("satisfaction", "consumption level", log1p)
        self._freeze("storage_cost", "battery level", [0.0] * self.state_count)

    def _freeze(self, name: str, level: str, default: list) -> None:
        """Replace the preference table ``name``, one value per ``level`` and
        ``default`` when None, by a read-only float copy."""
        values = getattr(self, name)
        arr = np.array(default if values is None else values, dtype=float)
        if values is not None:  # the default keeps both rules by construction
            if arr.shape != (len(default),):
                raise ValueError(
                    f"{name}: expected one value per {level} 0..{len(default) - 1}, "
                    f"got shape {arr.shape}"
                )
            problem = _distribution_problem(arr[:, np.newaxis], "finite")
            if problem is not None:
                reason, (row,) = problem
                raise ValueError(f"{name}: {reason} at {level} {row}")
        arr.setflags(write=False)
        object.__setattr__(self, name, arr)

    @property
    def state_count(self) -> int:
        return self.storage_cap + 1

    @property
    def consumption_count(self) -> int:
        return self.consumption_cap + 1

    @property
    def demand_count(self) -> int:
        return self.demand_cap + 1

    def generation_at(self, stage_index: int) -> GenerationDistribution:
        return self.generation[min(stage_index, len(self.generation) - 1)]


def demand_of(tau, consumption, storage, demand_cap):
    """Demand induced by the reserve rule: request what is missing to cover
    the target plus consumption, never below 0, never above the cap.
    Elementwise on broadcastable integer arrays."""
    return np.minimum(np.maximum(0, tau + consumption - storage), demand_cap)


def fairness_price(demands) -> np.ndarray:
    """Per-unit price charged to each consumer: own share of total demand.
    All prices are 0 when nobody demands anything.  Consumers run along the
    leading axis; any further axes are independent demand profiles."""
    arr = np.array(demands, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError("demands must be nonnegative")
    total = arr.sum(axis=0)
    # where nobody demands, every entry of arr is already 0
    return np.divide(arr, total, out=arr, where=total > 0.0)


def prosumer_payoff(
    spec: ProsumerSpec, storage: int, consumption: int, demands, player: int
) -> float:
    """Stage payoff of ``player``: satisfaction from consumption minus the
    bill (own demand times fairness price) minus the storage holding cost.
    Other prosumers enter only through their demands."""
    price = fairness_price(demands)[player]
    return (
        spec.satisfaction[consumption]
        - float(demands[player]) * float(price)
        - spec.storage_cost[storage]
    )


def _consumption_and_demand(spec: ProsumerSpec, storage, action, induced_demand: bool):
    """Decode actions at battery levels, elementwise on broadcastable arrays:
    with ``induced_demand`` the action is the consumption and demand follows
    the reserve rule; otherwise it encodes consumption * demand_count + demand."""
    if induced_demand:
        return action, demand_of(spec.tau, action, storage, spec.demand_cap)
    return np.divmod(action, spec.demand_count)


def storage_kernel(spec: ProsumerSpec, stage_index: int = 0, *, induced_demand: bool) -> np.ndarray:
    """(S, A, S) battery transition table for one stage.

    With ``induced_demand`` the action is consumption alone and demand
    follows the reserve rule; otherwise the action is the (consumption,
    demand) pair, encoded as consumption * demand_count + demand.
    """
    storage = np.arange(spec.state_count)[:, None]
    actions = np.arange(spec.consumption_count * (1 if induced_demand else spec.demand_count))
    consumption, demand = _consumption_and_demand(spec, storage, actions, induced_demand)
    base = storage + demand - consumption
    gen = spec.generation_at(stage_index)
    table = np.zeros((*base.shape, spec.state_count))
    for offset, mass in enumerate(gen.pmf):
        level = np.clip(base + gen.start + offset, 0, spec.storage_cap)
        table[storage, actions, level] += mass
    return table


def _player_from_prosumer(spec: ProsumerSpec, induced_demand: bool) -> PlayerSpec:
    stages = [
        storage_kernel(spec, k, induced_demand=induced_demand)
        for k in range(len(spec.generation))
    ]
    kernel = TransitionKernel.nonstationary(np.array(stages))
    return PlayerSpec(
        state_count=kernel.state_count,
        action_count=kernel.action_count,
        kernel=kernel,
        weighting=spec.weighting,
        valuation=spec.valuation,
    )


def _payoff_table(prosumers, players, induced_demand: bool) -> np.ndarray:
    """The read-only (n, S_1..S_n, A_1..A_n) table of :func:`prosumer_payoff`
    values, built by broadcasting: player j's battery level runs along axis j
    and its action along axis n + j.  Each bill is written over its price, so
    the table is the only joint-sized array allocated."""
    n = len(prosumers)
    shape = (*(p.state_count for p in players), *(p.action_count for p in players))

    def axis(size, k):
        return np.arange(size).reshape([-1 if j == k else 1 for j in range(2 * n)])

    storages = [axis(p.state_count, j) for j, p in enumerate(players)]
    actions = [axis(p.action_count, n + j) for j, p in enumerate(players)]
    decoded = [
        _consumption_and_demand(p, x, a, induced_demand)
        for p, x, a in zip(prosumers, storages, actions)
    ]
    table = fairness_price([np.broadcast_to(d, shape) for _, d in decoded])
    for i, (p, (consumption, demand)) in enumerate(zip(prosumers, decoded)):
        # satisfaction - demand * price - cost, in prosumer_payoff's order
        table[i] *= demand
        np.subtract(p.satisfaction[consumption], table[i], out=table[i])
        table[i] -= p.storage_cost[storages[i]]
    table.setflags(write=False)
    return table


def build_prosumer_game(
    prosumers: Sequence[ProsumerSpec],
    discount_beta: float,
    induced_demand: bool = True,
) -> ValidatedGame:
    """Assemble and validate the full game: independent battery chains, joint
    payoff through the shared bill.

    With ``induced_demand`` (default) each prosumer's action is consumption
    only and demands follow the reserve rule, so the payoff may depend on
    other prosumers' battery levels through their induced demands; without
    it, actions are (consumption, demand) pairs and the payoff ignores other
    prosumers' battery levels entirely.  The payoff table is built by numpy
    broadcasting, not entry by entry.
    """
    prosumers = tuple(prosumers)
    players = []
    for i, p in enumerate(prosumers):
        try:
            players.append(_player_from_prosumer(p, induced_demand))
        except ValueError as exc:
            raise ValueError(f"kernel of player {i}: {exc}") from exc
    payoff = _payoff_table(prosumers, players, induced_demand)
    return validate_game(
        GameSpec(players=players, discount_beta=discount_beta, payoff=payoff)
    )


def build_simulation_game() -> ValidatedGame:
    """The fixed three-prosumer reference instance.

    Batteries hold 0..2 units, consumption is 0 or 1, demand is induced with
    cap 2, reserve targets are (1, 0, 1), generation is Gaussian with means
    (0.5, 0.5, 1) and variances (2, 1, 1) discretized over four standard
    deviations, preferences use prelec(0.8) weighting and piecewise-power
    (0.5, 1, 0.3) valuation, and the discount factor is 0.001.
    """
    weighting = WeightingFunction.prelec(0.8)
    valuation = ValuationFunction.piecewise_power(0.5, 1.0, 0.3)
    settings = [(1, 0.5, 2.0), (0, 0.5, 1.0), (1, 1.0, 1.0)]
    prosumers = [
        ProsumerSpec(
            storage_cap=2,
            consumption_cap=1,
            demand_cap=2,
            tau=tau,
            generation=discretize_gaussian(mu, variance),
            weighting=weighting,
            valuation=valuation,
        )
        for (tau, mu, variance) in settings
    ]
    return build_prosumer_game(prosumers, discount_beta=0.001)
