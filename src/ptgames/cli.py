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
    _is_integer,
    validate_game,
)
from .marginals import MarkovStrategy, _check_tables, forward_marginals
from .search import GridTooLargeError, SearchConfig, certify, search_equilibrium
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
    if not _is_integer(value):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    return value


# every distortion kind's constructor and JSON keys, the keys in the order
# of the constructor's arguments with each key's type check; the one schema
# behind reading a config and writing one
_DISTORTIONS = {
    "weighting": {
        "identity": (WeightingFunction.identity, {}),
        "prelec": (WeightingFunction.prelec, {"alpha": _as_number}),
        "power_complement": (WeightingFunction.power_complement, {"alpha": _as_number}),
        "table": (WeightingFunction.from_table, {"points": _as_list}),
    },
    "valuation": {
        "identity": (ValuationFunction.identity, {}),
        "piecewise_power": (
            ValuationFunction.piecewise_power,
            {"c1": _as_number, "c2": _as_number, "c3": _as_number},
        ),
    },
}


def _distortion_from_config(entry: dict, section: str, path: str):
    """The ``section`` distortion ("weighting" or "valuation") of a player
    or prosumer ``entry`` at ``path``; identity when the key is absent."""
    kinds = _DISTORTIONS[section]
    cfg = {"kind": "identity"} if entry.get(section) is None else entry[section]
    path = f"{path}.{section}"
    kind = _require(cfg, "kind", path)
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"{path}.kind: unknown {section} kind {kind!r}")
    constructor, keys = kinds[kind]
    args = [convert(_require(cfg, key, path), f"{path}.{key}") for key, convert in keys.items()]
    try:
        return constructor(*args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _distortion_document(distortion, section: str) -> dict:
    """The JSON object that :func:`_distortion_from_config` reads back as
    ``distortion``."""
    keys = _DISTORTIONS[section][distortion.kind][1]
    return {"kind": distortion.kind, **dict(zip(keys, distortion.arguments))}


def _kernel_from_config(cfg, path: str) -> TransitionKernel:
    mode = _require(cfg, "mode", path)
    probs = _require(cfg, "probs", path)
    if mode not in ("stationary", "nonstationary"):
        raise ConfigError(f"{path}.mode: expected 'stationary' or 'nonstationary', got {mode!r}")
    try:
        return getattr(TransitionKernel, mode)(probs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}.probs: {exc}") from exc


def _game_from_config(cfg: dict) -> ValidatedGame:
    beta = _as_number(_require(cfg, "beta", "game"), "game.beta")
    players = []
    for idx, entry in enumerate(_as_list(_require(cfg, "players", "game"), "game.players")):
        path = f"game.players[{idx}]"
        players.append(
            PlayerSpec(
                state_count=_as_int(_require(entry, "state_count", path), f"{path}.state_count"),
                action_count=_as_int(_require(entry, "action_count", path), f"{path}.action_count"),
                kernel=_kernel_from_config(_require(entry, "kernel", path), f"{path}.kernel"),
                **{key: _distortion_from_config(entry, key, path) for key in _DISTORTIONS},
            )
        )
    payoff = _require(cfg, "payoff", "game")
    try:
        return validate_game(GameSpec(players=players, discount_beta=beta, payoff=payoff))
    except GameValidationError as exc:
        raise ConfigError("game: " + "; ".join(exc.violations)) from exc


def _generation_from_config(cfg, path: str) -> GenerationDistribution:
    if "pmf" in _as_object(cfg, path):
        start = _as_int(_require(cfg, "support_min", path), f"{path}.support_min")
        try:
            return GenerationDistribution(start=start, pmf=cfg["pmf"])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}.pmf: {exc}") from exc
    mu = _as_number(_require(cfg, "mu", path), f"{path}.mu")
    variance = _as_number(_require(cfg, "variance", path), f"{path}.variance")
    support = cfg.get("support")
    try:
        return discretize_gaussian(mu, variance, support=support)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
    # a preference is its default kind or a table of one value per level
    for key, default in (("satisfaction", "log1p"), ("storage_cost", "zero")):
        pref = entry.get(key)
        if pref is None or _as_object(pref, f"{path}.{key}").get("kind") == default:
            continue
        if pref.get("kind") != "table":
            raise ConfigError(f"{path}.{key}.kind: expected {default!r} or 'table'")
        values = _as_list(_require(pref, "values", f"{path}.{key}"), f"{path}.{key}.values")
        kwargs[key] = [_as_number(v, f"{path}.{key}.values[{k}]") for k, v in enumerate(values)]
    for key in _DISTORTIONS:
        kwargs[key] = _distortion_from_config(entry, key, path)
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
    prosumers_cfg = _as_list(_require(cfg, "prosumers", "smartgrid"), "smartgrid.prosumers")
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
    except ValueError as exc:
        raise ConfigError(f"smartgrid: {exc}") from exc


# the run section's keys, in the order their errors are reported, with each
# key's type check; SearchConfig checks the ranges
_RUN_SETTINGS = {
    "epsilon": _as_number,
    "initial_delta": _as_number,
    "max_candidates": _as_int,
    "seed": _as_int,
    "horizon": lambda value, path: None if value is None else _as_int(value, path),
    "refinement_cap": _as_int,
}


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
    x_cfg = _as_list(_require(run, "x", "run"), "run.x")
    x = tuple(_as_int(v, f"run.x[{k}]") for k, v in enumerate(x_cfg))
    try:
        _check_tables(game, initial_state=x)
    except ValueError as exc:
        raise ConfigError(f"run.x: {exc}") from exc
    _require(run, "epsilon", "run")
    # only the keys present are passed on: SearchConfig holds the defaults
    settings = {
        key: convert(run[key], f"run.{key}") for key, convert in _RUN_SETTINGS.items() if key in run
    }
    try:
        search = SearchConfig(**settings)
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
    player -> array (horizon, S, A).  Stages count from 1 and indices from
    0; every (stage, state, action) cell up to the observed maxima must be
    present exactly once."""
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
            if stage < 1 or min(player, state, action) < 0:
                raise ConfigError(
                    f"{path}: line {row_no}: stage must be >= 1 and player, state, action >= 0"
                )
            key = (player, stage - 1, state, action)
            if key in cells:
                raise ConfigError(f"{path}: line {row_no}: duplicate cell {key}")
            cells[key] = prob
    if not cells:
        raise ConfigError(f"{path}: no data rows")
    tables = {}
    for player in sorted({k[0] for k in cells}):
        own = {k[1:]: v for k, v in cells.items() if k[0] == player}
        m, S, A = (max(k[axis] for k in own) + 1 for axis in range(3))
        # in order and lazily: a product of ranges would build them whole
        order = ((t, s, a) for t in range(m) for s in range(S) for a in range(A))
        # the cells are distinct and inside the shape, so they cover it
        # exactly when they are as many; else the scan meets the first
        # missing one within len(own) + 1 steps
        if len(own) != m * S * A:
            t, s, a = next(key for key in order if key not in own)
            raise ConfigError(
                f"{path}: missing row for player {player}, stage {t + 1}, state {s}, action {a}"
            )
        tables[player] = np.array([own[key] for key in order]).reshape(m, S, A)
    return tables


def _profile_from_csv(path, game: ValidatedGame, horizon: int | None = None):
    """The strategies of a strategy CSV, one per player of ``game``, each
    covering ``horizon`` stages when it is given."""
    profile = []
    for i, dist in sorted(read_probability_csv(path).items()):
        try:
            profile.append(MarkovStrategy(player=i, dist=dist))
        except ValueError as exc:
            raise ConfigError(f"{path}: player {i}: {exc}") from exc
    try:
        _check_tables(game, profile, horizon)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return tuple(profile)


# ---------- artifact writers ----------


def _certificate_lines(cert) -> list:
    lines = [
        f"passed: {'true' if cert.passed else 'false'}",
        f"mode: {cert.mode}",
        f"epsilon: {_fmt(cert.epsilon)}",
        f"deviation_allowance: {_fmt(cert.allowance)}",
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


def write_certificate(path, cert) -> None:
    Path(path).write_text("\n".join(_certificate_lines(cert)) + "\n")


def _write_solve_artifacts(outdir: Path, cert) -> None:
    write_certificate(outdir / "certificate.txt", cert)
    for strategy in cert.profile:
        write_probability_csv(
            outdir / f"strategy_player{strategy.player}.csv",
            [(strategy.player, strategy.dist)],
        )
    write_probability_csv(
        outdir / "plot_data.csv",
        [(s.player, s.dist) for s in cert.profile],
    )


def _write_run_log(outdir: Path, cert, wall_time) -> None:
    lines = [
        f"mode: {cert.mode}",
        f"status: {'passed' if cert.passed else 'not-found'}",
        f"candidates_examined: {cert.candidates_examined}",
        f"final_delta: {_fmt(cert.final_delta)}",
        f"wall_time_s: {wall_time:.3f}",
    ]
    (outdir / "run.log").write_text("\n".join(lines) + "\n")


# ---------- subcommands ----------


def _outdir(args) -> Path:
    """The artifact directory, made on the first write: every check that can
    exit 2 runs before it, so a rejected run leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _search_settings(cfg: RunConfig, args) -> SearchConfig:
    """The run section's search settings with the command-line overrides."""
    flags = {k: getattr(args, k, None) for k in ("epsilon", "seed")}
    try:
        return replace(cfg.search, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(f"--{exc}") from exc


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    search = _search_settings(cfg, args)
    started = time.perf_counter()
    try:
        cert = search_equilibrium(cfg.game, cfg.initial_state, search)
    except GridTooLargeError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - started
    if not cert.passed:
        print(
            f"solve: no profile passed certification within {cert.levels} grid level(s); "
            f"best worst-case gap {cert.worst_gap:.6g} against allowance {cert.allowance:.6g}"
            + ("" if cert.stop is None else f"; refinement stopped: {cert.stop}"),
            file=sys.stderr,
        )
    outdir = _outdir(args)
    _write_solve_artifacts(outdir, cert)
    print(
        f"solve: {'passed' if cert.passed else 'best candidate only'}; "
        f"worst gap {cert.worst_gap:.6g} (allowance {cert.allowance:.6g}); "
        f"artifacts in {outdir}"
    )
    _write_run_log(outdir, cert, wall)
    return 0 if cert.passed else 1


def _cmd_certify(args) -> int:
    cfg = load_config(args.config)
    search = _search_settings(cfg, args)
    horizon = search.resolve_horizon(cfg.game)
    profile = _profile_from_csv(args.profile, cfg.game, horizon)
    cert = certify(cfg.game, profile, cfg.initial_state, horizon, search.epsilon)
    write_certificate(_outdir(args) / "certificate.txt", replace(cert, mode="certify"))
    print(
        f"certify: {'passed' if cert.passed else 'failed'}; worst gap "
        f"{cert.worst_gap:.6g} (allowance {cert.allowance:.6g})"
    )
    return 0 if cert.passed else 1


def _cmd_marginals(args) -> int:
    cfg = load_config(args.config)
    profile = _profile_from_csv(args.strategy, cfg.game)
    tables = []
    for strategy in profile:
        table = forward_marginals(
            cfg.game, strategy, cfg.initial_state[strategy.player], strategy.horizon
        )
        tables.append((strategy.player, table.probs))
    outdir = _outdir(args)
    write_probability_csv(outdir / "marginals.csv", tables)
    print(f"marginals: wrote {outdir / 'marginals.csv'}")
    return 0


def _game_to_document(game: ValidatedGame) -> dict:
    players = []
    for p in game.players:
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
                **{key: _distortion_document(getattr(p, key), key) for key in _DISTORTIONS},
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
    horizon = truncation_horizon(epsilon, cfg.game)
    tail = truncation_error_bound(cfg.game, horizon)
    print(f"epsilon: {_fmt(epsilon)}")
    print(f"horizon: {horizon}")
    for i in range(cfg.game.n):
        print(
            f"player {i}: value_bound {_fmt(cfg.game.value_bounds[i])}, "
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
    flags = {
        "--config": dict(required=True, help="JSON run config"),
        "--profile": dict(required=True, help="strategy CSV to certify"),
        "--strategy": dict(required=True, help="strategy CSV to propagate"),
        "--out": dict(default="out", help="artifact directory (default: out)"),
        "--epsilon": dict(type=float, help="override run.epsilon"),
        "--seed": dict(type=int, help="override run.seed"),
    }
    # each subcommand takes only the flags it reads
    for name, handler, names, help_text in (
        ("solve", _cmd_solve, ("--out", "--epsilon", "--seed"),
         "search for a certified profile"),
        ("certify", _cmd_certify, ("--profile", "--out", "--epsilon"),
         "re-certify a profile from strategy CSV"),
        ("marginals", _cmd_marginals, ("--strategy", "--out"),
         "stage marginals of a supplied strategy"),
        ("build-smartgrid", _cmd_build_smartgrid, ("--out",),
         "export a prosumer config as a generic game"),
        ("bound", _cmd_bound, ("--epsilon",), "print horizon and error bounds"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        for flag in ("--config",) + names:
            command.add_argument(flag, **flags[flag])
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
