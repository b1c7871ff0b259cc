"""Command-line front end: JSON run configs in, plain-text artifacts out.

Subcommands:

* ``solve``            -- search for a certified profile and write the
                          certificate, per-player strategy tables, a combined
                          plot-data CSV and a run log.
* ``certify``          -- re-certify a profile read back from strategy CSVs.
* ``marginals``        -- stage marginal tables of a supplied strategy.
* ``build-smartgrid``  -- materialize a prosumer config as a generic game
                          description (JSON) for reuse.
* ``bound``            -- print the truncation horizon, the per-player tail
                          bounds and (when available) the Lipschitz grid step.

A config carries exactly one of ``game`` (generic description) or
``smartgrid`` (prosumer description) plus a ``run`` section; command-line
flags override the run section.  All numeric output uses 17 significant
digits, so values survive a write/read round trip exactly, and a fixed seed
reproduces every data artifact byte for byte.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .criterion import lipschitz_delta, truncation_error_bound, truncation_horizon
from .game import (
    GameSpec,
    GameValidationError,
    PlayerSpec,
    TransitionKernel,
    ValidatedGame,
    ValuationFunction,
    WeightingFunction,
    validate_game,
)
from .marginals import MarkovStrategy, forward_marginals
from .search import (
    EquilibriumNotFoundError,
    GridTooLargeError,
    SearchConfig,
    certify,
    search_equilibrium,
)
from .smartgrid import (
    GenerationDistribution,
    ProsumerSpec,
    build_prosumer_game,
    discretize_gaussian,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]

_CSV_COLUMNS = ("player", "stage", "state", "action", "probability")


class ConfigError(ValueError):
    """A run config failed to parse or validate; the message names the file
    position or the offending key path."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs: the validated game plus run settings."""

    game: ValidatedGame
    initial_state: tuple
    search: SearchConfig
    source: dict


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# ---------- config parsing ----------


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    return value


def _require(mapping: dict, key: str, path: str):
    if key not in _as_object(mapping, path):
        raise ConfigError(f"{path}.{key}: required key is missing")
    return mapping[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _weighting_from_config(cfg, path: str) -> WeightingFunction:
    if cfg is None:
        return WeightingFunction.identity()
    kind = _require(cfg, "kind", path)
    try:
        if kind == "identity":
            return WeightingFunction.identity()
        if kind == "prelec":
            return WeightingFunction.prelec(_as_number(_require(cfg, "alpha", path), f"{path}.alpha"))
        if kind == "power_complement":
            return WeightingFunction.power_complement(
                _as_number(_require(cfg, "alpha", path), f"{path}.alpha")
            )
        if kind == "table":
            return WeightingFunction.from_table(_require(cfg, "points", path))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown weighting kind {kind!r}")


def _valuation_from_config(cfg, path: str) -> ValuationFunction:
    if cfg is None:
        return ValuationFunction.identity()
    kind = _require(cfg, "kind", path)
    try:
        if kind == "identity":
            return ValuationFunction.identity()
        if kind == "piecewise_power":
            return ValuationFunction.piecewise_power(
                _as_number(_require(cfg, "c1", path), f"{path}.c1"),
                _as_number(_require(cfg, "c2", path), f"{path}.c2"),
                _as_number(_require(cfg, "c3", path), f"{path}.c3"),
            )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown valuation kind {kind!r}")


def _kernel_from_config(cfg, state_count: int, action_count: int, path: str) -> TransitionKernel:
    mode = _require(cfg, "mode", path)
    probs = _require(cfg, "probs", path)
    try:
        arr = np.array(probs, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}.probs: not a numeric table ({exc})") from exc
    expected = (state_count, action_count, state_count)
    if mode == "stationary":
        if arr.shape != expected:
            raise ConfigError(
                f"{path}.probs: shape {arr.shape} does not match {expected}"
            )
        return TransitionKernel.stationary(arr)
    if mode == "nonstationary":
        if arr.ndim != 4 or arr.shape[1:] != expected:
            raise ConfigError(
                f"{path}.probs: shape {arr.shape} does not match (stages, "
                f"{state_count}, {action_count}, {state_count})"
            )
        return TransitionKernel.nonstationary(arr)
    raise ConfigError(f"{path}.mode: expected 'stationary' or 'nonstationary', got {mode!r}")


def _game_from_config(cfg: dict) -> ValidatedGame:
    beta = _as_number(_require(cfg, "beta", "game"), "game.beta")
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"game.beta: discount factor must lie in (0,1), got {beta}")
    players_cfg = _require(cfg, "players", "game")
    if not isinstance(players_cfg, list) or not players_cfg:
        raise ConfigError("game.players: expected a nonempty list")
    players = []
    for idx, entry in enumerate(players_cfg):
        path = f"game.players[{idx}]"
        state_count = _as_int(_require(entry, "state_count", path), f"{path}.state_count")
        action_count = _as_int(_require(entry, "action_count", path), f"{path}.action_count")
        if state_count < 1 or action_count < 1:
            raise ConfigError(f"{path}: state_count and action_count must be >= 1")
        kernel = _kernel_from_config(
            _require(entry, "kernel", path), state_count, action_count, f"{path}.kernel"
        )
        players.append(
            PlayerSpec(
                state_count=state_count,
                action_count=action_count,
                kernel=kernel,
                weighting=_weighting_from_config(entry.get("weighting"), f"{path}.weighting"),
                valuation=_valuation_from_config(entry.get("valuation"), f"{path}.valuation"),
            )
        )
    payoff_cfg = _require(cfg, "payoff", "game")
    try:
        payoff = np.array(payoff_cfg, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"game.payoff: not a numeric table ({exc})") from exc
    try:
        return validate_game(
            GameSpec(players=tuple(players), discount_beta=beta, payoff=payoff)
        )
    except GameValidationError as exc:
        raise ConfigError("game: " + "; ".join(exc.violations)) from exc


def _generation_from_config(cfg, path: str) -> GenerationDistribution:
    if "pmf" in _as_object(cfg, path):
        start = _as_int(_require(cfg, "support_min", path), f"{path}.support_min")
        try:
            return GenerationDistribution(start=start, pmf=np.array(cfg["pmf"], dtype=float))
        except ValueError as exc:
            raise ConfigError(f"{path}.pmf: {exc}") from exc
    mu = _as_number(_require(cfg, "mu", path), f"{path}.mu")
    variance = _as_number(_require(cfg, "variance", path), f"{path}.variance")
    support = cfg.get("support")
    try:
        return discretize_gaussian(mu, variance, support=support)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _table_fn(values, path: str, size: int, argname: str):
    if not isinstance(values, list) or len(values) != size:
        raise ConfigError(f"{path}: expected {size} values (one per {argname})")
    arr = [_as_number(v, f"{path}[{k}]") for k, v in enumerate(values)]
    for k, v in enumerate(arr):
        if not math.isfinite(v):
            raise ConfigError(f"{path}[{k}]: expected a finite number, got {v}")
    return lambda k: arr[k]


def _prosumer_from_config(entry: dict, path: str) -> ProsumerSpec:
    storage_cap = _as_int(_require(entry, "storage_cap", path), f"{path}.storage_cap")
    consumption_cap = _as_int(
        _require(entry, "consumption_cap", path), f"{path}.consumption_cap"
    )
    tau = _as_int(_require(entry, "tau", path), f"{path}.tau")
    demand_cap = entry.get("demand_cap", tau + consumption_cap)
    demand_cap = _as_int(demand_cap, f"{path}.demand_cap")
    generation_cfg = _require(entry, "generation", path)
    if isinstance(generation_cfg, list):
        generation = tuple(
            _generation_from_config(g, f"{path}.generation[{k}]")
            for k, g in enumerate(generation_cfg)
        )
    else:
        generation = _generation_from_config(generation_cfg, f"{path}.generation")
    kwargs = {}
    sat = entry.get("satisfaction")
    if sat is not None and _as_object(sat, f"{path}.satisfaction").get("kind") != "log1p":
        if sat.get("kind") != "table":
            raise ConfigError(f"{path}.satisfaction.kind: expected 'log1p' or 'table'")
        kwargs["satisfaction"] = _table_fn(
            _require(sat, "values", f"{path}.satisfaction"),
            f"{path}.satisfaction.values",
            consumption_cap + 1,
            "consumption level",
        )
    cost = entry.get("storage_cost")
    if cost is not None and _as_object(cost, f"{path}.storage_cost").get("kind") != "zero":
        if cost.get("kind") != "table":
            raise ConfigError(f"{path}.storage_cost.kind: expected 'zero' or 'table'")
        kwargs["storage_cost"] = _table_fn(
            _require(cost, "values", f"{path}.storage_cost"),
            f"{path}.storage_cost.values",
            storage_cap + 1,
            "battery level",
        )
    kwargs["weighting"] = _weighting_from_config(entry.get("weighting"), f"{path}.weighting")
    kwargs["valuation"] = _valuation_from_config(entry.get("valuation"), f"{path}.valuation")
    try:
        return ProsumerSpec(
            storage_cap=storage_cap,
            consumption_cap=consumption_cap,
            demand_cap=demand_cap,
            tau=tau,
            generation=generation,
            **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _smartgrid_from_config(cfg: dict) -> ValidatedGame:
    beta = _as_number(_require(cfg, "beta", "smartgrid"), "smartgrid.beta")
    if not 0.0 < beta < 1.0:
        raise ConfigError(
            f"smartgrid.beta: discount factor must lie in (0,1), got {beta}"
        )
    prosumers_cfg = _require(cfg, "prosumers", "smartgrid")
    if not isinstance(prosumers_cfg, list) or not prosumers_cfg:
        raise ConfigError("smartgrid.prosumers: expected a nonempty list")
    prosumers = [
        _prosumer_from_config(entry, f"smartgrid.prosumers[{idx}]")
        for idx, entry in enumerate(prosumers_cfg)
    ]
    induced = cfg.get("induced_demand", True)
    if not isinstance(induced, bool):
        raise ConfigError("smartgrid.induced_demand: expected true or false")
    try:
        return build_prosumer_game(prosumers, discount_beta=beta, induced_demand=induced)
    except GameValidationError as exc:
        raise ConfigError("smartgrid: " + "; ".join(exc.violations)) from exc


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run config.

    Raises :class:`ConfigError` with the file position on parse errors and
    the offending key path on semantic errors.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    has_game = "game" in doc
    has_grid = "smartgrid" in doc
    if has_game == has_grid:
        raise ConfigError(f"{path}: exactly one of 'game' or 'smartgrid' is required")
    game = _game_from_config(doc["game"]) if has_game else _smartgrid_from_config(doc["smartgrid"])

    run = doc.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("run: expected an object")
    x_cfg = _require(run, "x", "run")
    if not isinstance(x_cfg, list) or len(x_cfg) != game.n:
        raise ConfigError(
            f"run.x: expected a list of {game.n} initial states (one per player)"
        )
    x = tuple(_as_int(v, f"run.x[{k}]") for k, v in enumerate(x_cfg))
    for k, (v, p) in enumerate(zip(x, game.players)):
        if not 0 <= v < p.state_count:
            raise ConfigError(
                f"run.x[{k}]: state {v} outside 0..{p.state_count - 1}"
            )
    horizon = run.get("horizon")
    try:
        search = SearchConfig(
            epsilon=_as_number(_require(run, "epsilon", "run"), "run.epsilon"),
            initial_delta=_as_number(run.get("initial_delta", 0.5), "run.initial_delta"),
            mode=run.get("mode", "grid"),
            max_candidates=_as_int(run.get("max_candidates", 100_000), "run.max_candidates"),
            seed=_as_int(run.get("seed", 0), "run.seed"),
            horizon=None if horizon is None else _as_int(horizon, "run.horizon"),
            refinement_cap=_as_int(run.get("refinement_cap", 6), "run.refinement_cap"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"run.{exc}") from exc
    return RunConfig(game=game, initial_state=x, search=search, source=doc)


# ---------- table CSV round trip ----------


def write_probability_csv(path, tables) -> None:
    """Write (player, stage, state, action, probability) rows for a sequence
    of per-player arrays of shape (horizon, S, A); stages are 1-based."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for player, probs in tables:
            m, S, A = probs.shape
            for t in range(m):
                for s in range(S):
                    for a in range(A):
                        writer.writerow([player, t + 1, s, a, _fmt(probs[t, s, a])])


def read_probability_csv(path):
    """Read rows written by :func:`write_probability_csv` back into a dict
    player -> array (horizon, S, A).  Every (stage, state, action) cell up to
    the observed maxima must be present exactly once."""
    cells = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != _CSV_COLUMNS:
            raise ConfigError(f"{path}: expected header {','.join(_CSV_COLUMNS)}")
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise ConfigError(f"{path}: line {row_no}: expected 5 columns")
            try:
                player, stage, state, action = (int(v) for v in row[:4])
                prob = float(row[4])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {row_no}: {exc}") from exc
            key = (player, stage - 1, state, action)
            if key in cells:
                raise ConfigError(f"{path}: line {row_no}: duplicate cell {key}")
            cells[key] = prob
    if not cells:
        raise ConfigError(f"{path}: no data rows")
    tables = {}
    for player in sorted({k[0] for k in cells}):
        own = {k[1:]: v for k, v in cells.items() if k[0] == player}
        m = max(k[0] for k in own) + 1
        S = max(k[1] for k in own) + 1
        A = max(k[2] for k in own) + 1
        probs = np.empty((m, S, A))
        for t in range(m):
            for s in range(S):
                for a in range(A):
                    if (t, s, a) not in own:
                        raise ConfigError(
                            f"{path}: missing row for player {player}, stage "
                            f"{t + 1}, state {s}, action {a}"
                        )
                    probs[t, s, a] = own[(t, s, a)]
        tables[player] = probs
    return tables


def _profile_from_csv(path, game: ValidatedGame):
    tables = read_probability_csv(path)
    if sorted(tables) != list(range(game.n)):
        raise ConfigError(
            f"{path}: expected strategies for players 0..{game.n - 1}, got "
            f"{sorted(tables)}"
        )
    profile = []
    for i, p in enumerate(game.players):
        sizes = tables[i].shape[1:]
        if sizes != (p.state_count, p.action_count):
            raise ConfigError(
                f"{path}: player {i}: strategy has sizes {sizes}, game declares "
                f"({p.state_count}, {p.action_count})"
            )
        try:
            profile.append(MarkovStrategy(player=i, dist=tables[i]))
        except ValueError as exc:
            raise ConfigError(f"{path}: player {i}: {exc}") from exc
    return tuple(profile)


# ---------- artifact writers ----------


def _certificate_lines(cert, mode: str) -> list:
    lines = [
        f"passed: {'true' if cert.passed else 'false'}",
        f"mode: {mode}",
        f"epsilon: {_fmt(cert.epsilon)}",
        f"deviation_allowance: {_fmt(cert.epsilon / 3.0)}",
        f"horizon: {cert.horizon}",
        f"candidates_examined: {cert.candidates_examined}",
        f"final_delta: {_fmt(cert.final_delta) if cert.final_delta is not None else 'n/a'}",
    ]
    for i in range(len(cert.profile)):
        lines.append(f"player: {i}")
        lines.append(f"  value: {_fmt(cert.values[i])}")
        lines.append(f"  best_response: {_fmt(cert.best_values[i])}")
        lines.append(f"  gap: {_fmt(cert.gaps[i])}")
    for strategy in cert.profile:
        m, S, _ = strategy.dist.shape
        for t in range(m):
            for s in range(S):
                row = " ".join(_fmt(v) for v in strategy.dist[t, s])
                lines.append(
                    f"strategy player={strategy.player} stage={t + 1} state={s}: {row}"
                )
    lines.append("note: stages beyond the horizon are played uniformly")
    return lines


def write_certificate(path, cert, mode: str) -> None:
    Path(path).write_text("\n".join(_certificate_lines(cert, mode)) + "\n")


def _write_solve_artifacts(outdir: Path, cert, mode: str) -> None:
    write_certificate(outdir / "certificate.txt", cert, mode)
    for strategy in cert.profile:
        write_probability_csv(
            outdir / f"strategy_player{strategy.player}.csv",
            [(strategy.player, strategy.dist)],
        )
    write_probability_csv(
        outdir / "plot_data.csv",
        [(s.player, s.dist) for s in cert.profile],
    )


def _write_run_log(outdir: Path, mode, cert, status, wall_time) -> None:
    lines = [
        f"mode: {mode}",
        f"status: {'passed' if status == 0 else 'not-found'}",
        f"candidates_examined: {cert.candidates_examined if cert else 0}",
        f"final_delta: {_fmt(cert.final_delta) if cert and cert.final_delta is not None else 'n/a'}",
        f"wall_time_s: {wall_time:.3f}",
    ]
    (outdir / "run.log").write_text("\n".join(lines) + "\n")


# ---------- subcommands ----------


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _search_settings(cfg: RunConfig, args) -> SearchConfig:
    """The run section's search settings with the command-line overrides."""
    flags = {k: getattr(args, k) for k in ("epsilon", "mode", "seed")}
    try:
        return replace(cfg.search, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(f"--{exc}") from exc


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    search = _search_settings(cfg, args)
    outdir = _outdir(args)
    started = time.perf_counter()
    status = 0
    try:
        cert = search_equilibrium(cfg.game, cfg.initial_state, search)
    except EquilibriumNotFoundError as exc:
        cert = exc.best_certificate
        status = 1
        print(f"solve: {exc}", file=sys.stderr)
    except GridTooLargeError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - started
    if cert is not None:
        _write_solve_artifacts(outdir, cert, search.mode)
        print(
            f"solve: {'passed' if status == 0 else 'best candidate only'}; "
            f"worst gap {np.max(cert.gaps):.6g} (allowance {search.epsilon / 3.0:.6g}); "
            f"artifacts in {outdir}"
        )
    _write_run_log(outdir, search.mode, cert, status, wall)
    return status


def _cmd_certify(args) -> int:
    cfg = load_config(args.config)
    search = _search_settings(cfg, args)
    outdir = _outdir(args)
    profile = _profile_from_csv(args.profile, cfg.game)
    horizon = search.resolve_horizon(cfg.game)
    for strategy in profile:
        if strategy.horizon < horizon:
            raise ConfigError(
                f"{args.profile}: player {strategy.player} covers "
                f"{strategy.horizon} stages, horizon {horizon} required"
            )
    cert = certify(cfg.game, profile, cfg.initial_state, horizon, search.epsilon)
    write_certificate(outdir / "certificate.txt", cert, mode="certify")
    print(
        f"certify: {'passed' if cert.passed else 'failed'}; worst gap "
        f"{np.max(cert.gaps):.6g} (allowance {search.epsilon / 3.0:.6g})"
    )
    return 0 if cert.passed else 1


def _cmd_marginals(args) -> int:
    cfg = load_config(args.config)
    outdir = _outdir(args)
    profile = _profile_from_csv(args.strategy, cfg.game)
    tables = []
    for strategy in profile:
        table = forward_marginals(
            cfg.game, strategy, cfg.initial_state[strategy.player], strategy.horizon
        )
        tables.append((strategy.player, table.probs))
    write_probability_csv(outdir / "marginals.csv", tables)
    print(f"marginals: wrote {outdir / 'marginals.csv'}")
    return 0


def _game_to_document(game: ValidatedGame) -> dict:
    players = []
    for p in game.players:
        weighting = {"kind": p.weighting.kind}
        if p.weighting.kind in ("prelec", "power_complement"):
            weighting["alpha"] = p.weighting.alpha
        elif p.weighting.kind == "table":
            weighting["points"] = [
                [y, w] for y, w in zip(p.weighting.knots_y, p.weighting.knots_w)
            ]
        valuation = {"kind": p.valuation.kind}
        if p.valuation.kind == "piecewise_power":
            valuation.update(
                c1=p.valuation.gain_exponent,
                c2=p.valuation.loss_scale,
                c3=p.valuation.loss_exponent,
            )
        kernel = p.kernel
        players.append(
            {
                "state_count": p.state_count,
                "action_count": p.action_count,
                "kernel": {
                    "mode": "stationary" if kernel.is_stationary else "nonstationary",
                    "probs": (
                        kernel.probs[0] if kernel.is_stationary else kernel.probs
                    ).tolist(),
                },
                "weighting": weighting,
                "valuation": valuation,
            }
        )
    return {
        "game": {
            "beta": game.discount_beta,
            "players": players,
            "payoff": game.payoff_table.tolist(),
        }
    }


def _cmd_build_smartgrid(args) -> int:
    cfg = load_config(args.config)
    if "smartgrid" not in cfg.source:
        raise ConfigError(f"{args.config}: build-smartgrid needs a 'smartgrid' section")
    outdir = _outdir(args)
    document = _game_to_document(cfg.game)
    if "run" in cfg.source:
        document["run"] = cfg.source["run"]
    target = outdir / "game.json"
    target.write_text(json.dumps(document, indent=2) + "\n")
    sizes = "x".join(str(c) for c in cfg.game.state_counts)
    print(
        f"build-smartgrid: wrote {target} ({cfg.game.n} players, joint states "
        f"{sizes}, joint actions {cfg.game.joint_action_count})"
    )
    return 0


def _cmd_bound(args) -> int:
    cfg = load_config(args.config)
    epsilon = _search_settings(cfg, args).epsilon
    params = truncation_horizon(epsilon, cfg.game)
    tail = truncation_error_bound(cfg.game, params.horizon)
    print(f"epsilon: {_fmt(epsilon)}")
    print(f"horizon: {params.horizon}")
    for i in range(cfg.game.n):
        print(
            f"player {i}: value_bound {_fmt(params.value_bounds[i])}, "
            f"tail_bound {_fmt(tail[i])}"
        )
    try:
        delta, grid_horizon = lipschitz_delta(epsilon, cfg.game)
        print(f"grid_step: {_fmt(delta)} (horizon {grid_horizon})")
    except ValueError as exc:
        print(f"grid_step: unavailable ({exc})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptgames",
        description="Certified Markov epsilon-equilibria for decentralized "
        "discounted stochastic games with distorted preferences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default="out", help="artifact directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument(
            "--epsilon", type=float, default=None, help="override run.epsilon"
        )
        p.add_argument(
            "--mode", choices=("grid", "sampled"), default=None, help="override run.mode"
        )

    solve = sub.add_parser("solve", help="search for a certified profile")
    common(solve)
    solve.set_defaults(handler=_cmd_solve)

    cert = sub.add_parser("certify", help="re-certify a profile from strategy CSV")
    common(cert)
    cert.add_argument("--profile", required=True, help="strategy CSV to certify")
    cert.set_defaults(handler=_cmd_certify)

    marg = sub.add_parser("marginals", help="stage marginals of a supplied strategy")
    common(marg)
    marg.add_argument("--strategy", required=True, help="strategy CSV to propagate")
    marg.set_defaults(handler=_cmd_marginals)

    build = sub.add_parser(
        "build-smartgrid", help="export a prosumer config as a generic game"
    )
    common(build)
    build.set_defaults(handler=_cmd_build_smartgrid)

    bound = sub.add_parser("bound", help="print horizon and error bounds")
    common(bound)
    bound.set_defaults(handler=_cmd_bound)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
