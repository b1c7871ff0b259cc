"""Config loading, CSV round trips, and the command-line entry points."""
import json
import math
import os
import re
import resource
import runpy
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ptgames as pg
from ptgames import cli, criterion, search
from ptgames.marginals import _check_tables

BUNDLED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "smartgrid.json"
SRC = Path(__file__).resolve().parent.parent / "src"
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

STAY_KERNEL = {"mode": "stationary", "probs": [[[1.0], [1.0]]]}


def dominant_config(**run_overrides):
    """Two players, one state, dominant action 0; unique lattice pass."""
    run = {"x": [0, 0], "epsilon": 0.1, "horizon": 2}
    run.update(run_overrides)
    return {
        "game": {
            "beta": 0.1,
            "players": [
                {"state_count": 1, "action_count": 2, "kernel": STAY_KERNEL},
                {"state_count": 1, "action_count": 2, "kernel": STAY_KERNEL},
            ],
            "payoff": [
                [[[[1.0, 1.0], [0.0, 0.0]]]],
                [[[[1.0, 0.0], [1.0, 0.0]]]],
            ],
        },
        "run": run,
    }


def pennies_config(**run_overrides):
    """Zero-sum game whose equilibrium sits off the coarse lattice."""
    run = {
        "x": [0, 0],
        "epsilon": 0.01,
        "horizon": 1,
        "refinement_cap": 0,
        "initial_delta": 0.9,
    }
    run.update(run_overrides)
    M = [[[[2.0, -1.0], [-1.0, 1.0]]]]
    negM = [[[[-2.0, 1.0], [1.0, -1.0]]]]
    return {
        "game": {
            "beta": 0.5,
            "players": [
                {"state_count": 1, "action_count": 2, "kernel": STAY_KERNEL},
                {"state_count": 1, "action_count": 2, "kernel": STAY_KERNEL},
            ],
            "payoff": [M, negM],
        },
        "run": run,
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ------------------------------------------------------------ config loading


def test_load_config_minimal(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, dominant_config()))
    assert cfg.game.n == 2
    assert cfg.initial_state == (0, 0)
    assert cfg.search.epsilon == 0.1
    assert cfg.search.seed == 0
    assert cfg.search.initial_delta == 0.5
    assert cfg.search.max_candidates == 100_000
    assert cfg.search.refinement_cap == 6
    assert cfg.search.horizon == 2


def test_load_config_reports_key_path_for_bad_beta(tmp_path):
    doc = dominant_config()
    doc["game"]["beta"] = 1.2
    with pytest.raises(cli.ConfigError, match=r"game: discount factor must lie in \(0,1\), got 1.2"):
        cli.load_config(write_config(tmp_path, doc))


def test_load_config_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"game": \n !}')
    with pytest.raises(cli.ConfigError, match="line 2"):
        cli.load_config(path)


def test_load_config_requires_exactly_one_game_section(tmp_path):
    doc = dominant_config()
    doc["smartgrid"] = {"beta": 0.5, "prosumers": []}
    with pytest.raises(cli.ConfigError, match="exactly one"):
        cli.load_config(write_config(tmp_path, doc))
    with pytest.raises(cli.ConfigError, match="exactly one"):
        cli.load_config(write_config(tmp_path, {"run": {}}, name="empty.json"))


def test_load_config_validates_run_section(tmp_path):
    doc = dominant_config()
    doc["run"]["x"] = [0]
    with pytest.raises(cli.ConfigError, match="run.x"):
        cli.load_config(write_config(tmp_path, doc))
    doc = dominant_config()
    doc["run"]["x"] = [0, 5]
    with pytest.raises(cli.ConfigError, match=r"run.x: initial state 5 of player 1 outside 0..0"):
        cli.load_config(write_config(tmp_path, doc))
    doc = dominant_config()
    doc["run"]["epsilon"] = -1.0
    with pytest.raises(cli.ConfigError, match="run.epsilon"):
        cli.load_config(write_config(tmp_path, doc))
    doc = dominant_config()
    # each level's size picks enumeration or sampling; a run.mode key is
    # ignored like any other key the loader does not read
    doc["run"]["mode"] = "exhaustive"
    assert cli.load_config(write_config(tmp_path, doc)).search == cli.load_config(
        write_config(tmp_path, dominant_config(), name="plain.json")
    ).search
    doc = dominant_config()
    doc["run"]["initial_delta"] = 1.0
    with pytest.raises(cli.ConfigError, match="run.initial_delta"):
        cli.load_config(write_config(tmp_path, doc))


def test_load_config_surfaces_game_violations(tmp_path):
    doc = dominant_config()
    doc["game"]["players"][0]["kernel"] = {
        "mode": "stationary",
        "probs": [[[0.5], [1.0]]],
    }
    with pytest.raises(
        cli.ConfigError,
        match=re.escape("game.players[0].kernel.probs: distribution sums to 0.5 at (t=1, s=0, a=0)"),
    ):
        cli.load_config(write_config(tmp_path, doc))
    doc = dominant_config()
    doc["game"]["beta"] = 1.5
    with pytest.raises(cli.ConfigError, match=re.escape("game: discount factor must lie in (0,1)")):
        cli.load_config(write_config(tmp_path, doc))


def test_solve_names_the_key_path_of_a_bad_kernel_row(tmp_path, capsys):
    doc = dominant_config()
    doc["game"]["players"][0]["kernel"] = {
        "mode": "nonstationary",
        "probs": [[[[1.0], [1.0]]], [[[1.5], [-0.5]]]],
    }
    cfg = write_config(tmp_path, doc)
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: game.players[0].kernel.probs: ")
    assert "negative probability -0.5 at (t=2, s=0, a=1)" in err
    assert not (tmp_path / "out").exists()


def test_bundled_config_matches_builtin_instance():
    cfg = cli.load_config(BUNDLED_CONFIG)
    reference = pg.build_simulation_game()
    assert np.array_equal(cfg.game.payoff_table, reference.payoff_table)
    for i in range(3):
        assert np.array_equal(
            cfg.game.players[i].kernel.probs, reference.players[i].kernel.probs
        )
        assert cfg.game.players[i].weighting.kind == "prelec"
        assert cfg.game.players[i].weighting.alpha == 0.8
    assert cfg.game.discount_beta == reference.discount_beta
    assert cfg.search.epsilon == 0.01
    # the first level (step 1/2) outgrows the budget, so it is sampled
    first = pg.ProfileGrid(cfg.game, cfg.search.resolve_horizon(cfg.game), 2)
    assert first.total_profiles > cfg.search.max_candidates == 100_000
    assert cfg.initial_state == (0, 0, 0)


# -------------------------------------------------------------- CSV handling


def test_probability_csv_round_trips_floats_exactly(tmp_path):
    rng = np.random.default_rng(60)
    raw = rng.random((2, 2, 3))
    probs = raw / raw.sum(axis=2, keepdims=True)
    probs[0, 0] = [1 / 3, 1 / 3, 1 - 2 / 3]
    path = tmp_path / "table.csv"
    cli.write_probability_csv(path, [(0, probs)])
    back = cli.read_probability_csv(path)
    assert list(back) == [0]
    assert np.array_equal(back[0], probs)


def test_probability_csv_layout(tmp_path):
    path = tmp_path / "table.csv"
    cli.write_probability_csv(path, [(1, np.array([[[0.25, 0.75]]]))])
    lines = path.read_text().splitlines()
    assert lines[0] == "player,stage,state,action,probability"
    assert lines[1] == "1,1,0,0,0.25"
    assert lines[2] == "1,1,0,1,0.75"


def test_read_probability_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("who,knows\n")
    with pytest.raises(cli.ConfigError, match="header"):
        cli.read_probability_csv(path)
    path.write_text("player,stage,state,action,probability\n")
    with pytest.raises(cli.ConfigError, match="no data rows"):
        cli.read_probability_csv(path)
    path.write_text(
        "player,stage,state,action,probability\n"
        "0,1,0,0,0.5\n0,1,0,0,0.5\n"
    )
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.read_probability_csv(path)
    path.write_text(
        "player,stage,state,action,probability\n"
        "0,1,0,0,0.5\n0,2,0,1,0.5\n"
    )
    with pytest.raises(cli.ConfigError, match="missing row for player 0, stage 1, state 0, action 1$"):
        cli.read_probability_csv(path)


@pytest.mark.parametrize("command, flag", [("certify", "--profile"), ("marginals", "--strategy")])
def test_sparse_strategy_csv_is_refused_before_allocation(tmp_path, capsys, command, flag):
    # one row at stage 10**12 spans a table of 10**12 cells (7.28 TiB of
    # floats); the reader counts the cells present before it allocates
    path = tmp_path / "sparse.csv"
    path.write_text("player,stage,state,action,probability\n0,1000000000000,0,0,1\n")
    assert run_cli(command, "--config", BUNDLED_CONFIG, "--out", tmp_path / "out", flag, path) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {path}: missing row for player 0, stage 1, state 0, action 0\n"
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------- commands


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def test_solve_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, dominant_config())
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg, "--out", out) == 0
    for name in (
        "certificate.txt",
        "strategy_player0.csv",
        "strategy_player1.csv",
        "plot_data.csv",
        "run.log",
    ):
        assert (out / name).exists()
    text = (out / "certificate.txt").read_text()
    assert text.startswith("passed: true\n")
    assert "candidates_examined: 81" in text
    assert "final_delta: 0.5" in text
    assert "strategy player=0 stage=1 state=0: 1 0" in text
    log = (out / "run.log").read_text()
    assert "status: passed" in log
    assert "mode: grid" in log
    assert "mode: grid" in text
    assert "solve: passed" in capsys.readouterr().out


def test_solve_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, dominant_config())
    first, second = tmp_path / "a", tmp_path / "b"
    assert run_cli("solve", "--config", cfg, "--out", first) == 0
    assert run_cli("solve", "--config", cfg, "--out", second) == 0
    # run.log carries wall time, everything else must match exactly
    for name in (
        "certificate.txt",
        "strategy_player0.csv",
        "strategy_player1.csv",
        "plot_data.csv",
    ):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize(
    "doc",
    [
        dominant_config(),
        dominant_config(max_candidates=40, seed=4),
        pennies_config(epsilon=0.5, refinement_cap=6),
        pennies_config(epsilon=0.5, refinement_cap=6, max_candidates=10, seed=1),
    ],
    ids=["grid", "sampled-rejection", "grid-refining", "sampled-refining"],
)
def test_solve_artifacts_do_not_depend_on_block_size(tmp_path, monkeypatch, doc):
    cfg = write_config(tmp_path, doc)
    artifacts = []
    for rows in (1, 7, None):  # None keeps the default block size
        if rows is not None:
            # both players face 2 opponent tuples
            monkeypatch.setattr(search, "_BLOCK_ELEMENTS", rows * 2)
        out = tmp_path / f"rows{rows}"
        assert run_cli("solve", "--config", cfg, "--out", out) == 0
        monkeypatch.undo()
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.log"}
        log = (out / "run.log").read_text().splitlines()
        files["run.log"] = [line for line in log if not line.startswith("wall_time")]
        artifacts.append(files)
    assert artifacts[1] == artifacts[0]
    assert artifacts[2] == artifacts[0]


@pytest.mark.parametrize(
    "flag, doc_epsilon, where",
    [
        ("nan", 0.1, "--epsilon"),
        ("inf", 0.1, "--epsilon"),
        (None, math.nan, "run.epsilon"),  # written as the JSON token NaN
        (None, math.inf, "run.epsilon"),  # written as the JSON token Infinity
    ],
)
def test_solve_rejects_non_finite_epsilon(tmp_path, capsys, flag, doc_epsilon, where):
    cfg = write_config(tmp_path, dominant_config(epsilon=doc_epsilon))
    argv = ["solve", "--config", cfg, "--out", tmp_path / "out"]
    if flag is not None:
        argv += ["--epsilon", flag]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {where}: must be positive and finite" in err
    assert "Traceback" not in err


def one_player_config(kernel_probs=((1.0,), (1.0,)), weighting=None):
    """One player, one state, two actions."""
    player = {
        "state_count": 1,
        "action_count": 2,
        "kernel": {"mode": "stationary", "probs": [[list(row) for row in kernel_probs]]},
    }
    if weighting is not None:
        player["weighting"] = weighting
    return {
        "game": {"beta": 0.5, "players": [player], "payoff": [[[1.0, 0.0]]]},
        "run": {"x": [0], "epsilon": 0.1, "horizon": 1},
    }


def smartgrid_variant(**prosumer0):
    """The bundled config with keys of its first prosumer replaced."""
    doc = json.loads(BUNDLED_CONFIG.read_text())
    doc["smartgrid"]["prosumers"][0].update(prosumer0)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (one_player_config(kernel_probs=((math.nan,), (1.0,))),
         "game.players[0].kernel.probs: non-finite probability nan at (t=1, s=0, a=0)"),
        (one_player_config(weighting={"kind": "power_complement", "alpha": math.inf}),
         "game.players[0].weighting: "),
        (smartgrid_variant(generation={"support_min": 0, "pmf": [0.5, math.nan, 0.5]}),
         "smartgrid.prosumers[0].generation.pmf: "),
        (smartgrid_variant(generation={"mu": 0.5, "variance": math.inf}),
         "smartgrid.prosumers[0].generation: "),
        (smartgrid_variant(generation={"mu": 0.5, "variance": 1.0, "support": [0, math.inf]}),
         "smartgrid.prosumers[0].generation: "),
        (smartgrid_variant(weighting={"kind": "table", "points": [[0, 0], [math.nan, 0.5], [1, 1]]}),
         "smartgrid.prosumers[0].weighting: "),
        (smartgrid_variant(valuation={"kind": "piecewise_power", "c1": 0.5, "c2": math.inf, "c3": 0.3}),
         "smartgrid.prosumers[0].valuation: "),
        (smartgrid_variant(valuation={"kind": "piecewise_power", "c1": math.nan, "c2": 1.0, "c3": 0.3}),
         "smartgrid.prosumers[0].valuation: "),
        (smartgrid_variant(valuation={"kind": "piecewise_power", "c1": 0.5, "c2": 1e308, "c3": 3}),
         "smartgrid: valuation of player 0 is non-finite at "),
        (smartgrid_variant(satisfaction={"kind": "table", "values": ["a", 1]}),
         "smartgrid.prosumers[0].satisfaction.values[0]: expected a number"),
        (smartgrid_variant(satisfaction=[1, 2]),
         "smartgrid.prosumers[0].satisfaction: expected an object"),
        (smartgrid_variant(generation=5),
         "smartgrid.prosumers[0].generation: expected an object"),
        (smartgrid_variant(satisfaction={"kind": "table", "values": [0.0, math.nan]}),
         "smartgrid.prosumers[0]: satisfaction: non-finite value nan at consumption level 1"),
        (smartgrid_variant(storage_cost={"kind": "table", "values": [0.0, -math.inf, 0.0]}),
         "smartgrid.prosumers[0]: storage_cost: non-finite value -inf at battery level 1"),
        ({"smartgrid": {"beta": 0.5, "prosumers": [5]}, "run": {"x": [0], "epsilon": 0.1}},
         "smartgrid.prosumers[0]: expected an object"),
        (smartgrid_variant(generation={"mu": 0.5, "variance": 1.0, "support": [0, 1.5]}),
         "smartgrid.prosumers[0].generation: support must be two integers, got [0, 1.5]"),
        (smartgrid_variant(generation={"mu": 0.5, "variance": 1.0, "support": [0, 1, 7]}),
         "smartgrid.prosumers[0].generation: support must be two integers, got [0, 1, 7]"),
        (smartgrid_variant(generation={"support_min": 0, "pmf": [0.5, 0.5 + 5e-10]}),
         "smartgrid.prosumers[0].generation.pmf: distribution sums to 1.0000000005"),
        (smartgrid_variant(generation={"support_min": 0, "pmf": [{}]}),
         "smartgrid.prosumers[0].generation.pmf: "),
        (smartgrid_variant(weighting={"kind": "table", "points": [[0, 0], [1]]}),
         "smartgrid.prosumers[0].weighting: table weighting point [1] is not a (y, w) pair"),
        (one_player_config(weighting={"kind": "cubic"}),
         "game.players[0].weighting.kind: unknown weighting kind 'cubic'"),
        (smartgrid_variant(valuation={"kind": "prelec", "alpha": 0.5}),
         "smartgrid.prosumers[0].valuation.kind: unknown valuation kind 'prelec'"),
        (smartgrid_variant(weighting={"kind": ["prelec"]}),
         "smartgrid.prosumers[0].weighting.kind: unknown weighting kind ['prelec']"),
        (smartgrid_variant(weighting={"kind": "table", "points": 5}),
         "smartgrid.prosumers[0].weighting.points: expected a list, got 5"),
    ],
    ids=[
        "kernel-nan", "alpha-inf", "pmf-nan", "variance-inf", "support-inf", "knot-nan", "c2-inf",
        "c1-nan", "valuation-overflow", "values-string", "satisfaction-list", "generation-number",
        "satisfaction-nan", "storage-cost-inf", "prosumer-number", "support-fractional",
        "support-three", "pmf-sum", "pmf-object", "knot-not-pair", "weighting-kind",
        "valuation-kind", "kind-list", "points-number",
    ],
)
def test_solve_rejects_non_finite_game_inputs(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, doc)  # NaN/inf become the JSON tokens NaN/Infinity
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err


def test_solve_accepts_a_pmf_at_the_edge_of_the_sum_tolerance(tmp_path, capsys):
    # the pmf sums to 1 - 1e-12 within rounding, and the kernel row that
    # groups its masses at the battery bounds must keep the rule too
    doc = smartgrid_variant(generation={"support_min": -1, "pmf": [0.1, 0.1, 0.1, 0.699999999999]})
    cfg = write_config(tmp_path, doc)
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "out") in (0, 1)
    assert "error" not in capsys.readouterr().err


STAY = pg.TransitionKernel.stationary(STAY_KERNEL["probs"])
TWO_STATES = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]]


def player(state_count=1, kernel=STAY):
    return pg.PlayerSpec(state_count=state_count, action_count=2, kernel=kernel)


def dominant_spec(**changes):
    """The game of ``dominant_config``, described through the library."""
    spec = dict(
        players=[player(), player()],
        discount_beta=dominant_config()["game"]["beta"],
        payoff=dominant_config()["game"]["payoff"],
    )
    spec.update(changes)
    return pg.GameSpec(**spec)


DOMINANT = pg.validate_game(dominant_spec())


def dominant_variant(player0=None, **game):
    """``dominant_config`` with keys of its game section, or of its first
    player, replaced."""
    doc = dominant_config()
    doc["game"].update(game)
    if player0 is not None:
        doc["game"]["players"][0] = {**doc["game"]["players"][0], **player0}
    return doc


def smartgrid_section(**changes):
    doc = json.loads(BUNDLED_CONFIG.read_text())
    doc["smartgrid"].update(changes)
    return doc


def bundled_prosumer(**changes):
    """The first prosumer of the bundled config, described through the library."""
    return pg.ProsumerSpec(
        storage_cap=2, consumption_cap=1, demand_cap=2, tau=1,
        generation=pg.discretize_gaussian(0.5, 2.0), **changes,
    )


def library_message(call) -> str:
    """The message of ``call``; a game's violations joined as the CLI joins them."""
    with pytest.raises(ValueError) as info:
        call()
    exc = info.value
    return "; ".join(exc.violations) if isinstance(exc, pg.GameValidationError) else str(exc)


# each rule on a game or run, a config (and flags) that breaks it, the
# section or key path the CLI puts in front, and the library call that owns
# the rule
GAME_RULES = {
    "game-beta": (dominant_variant(beta=1.2), (), "game: ",
                  lambda: pg.validate_game(dominant_spec(discount_beta=1.2))),
    "smartgrid-beta": (smartgrid_section(beta=1.2), (), "smartgrid: ",
                       lambda: pg.build_prosumer_game([bundled_prosumer()], 1.2)),
    "players-empty": (dominant_variant(players=[]), (), "game: ",
                      lambda: pg.validate_game(dominant_spec(players=[]))),
    "prosumers-empty": (smartgrid_section(prosumers=[]), (), "smartgrid: ",
                        lambda: pg.build_prosumer_game([], 0.001)),
    "state-count": (dominant_variant({"state_count": 0}), (), "game: ",
                    lambda: pg.validate_game(dominant_spec(players=[player(0), player()]))),
    "stationary-4d": (dominant_variant({"kernel": {"mode": "stationary", "probs": [[[[1.0], [1.0]]]]}}),
                      (), "game.players[0].kernel.probs: ",
                      lambda: pg.TransitionKernel.stationary([[[[1.0], [1.0]]]])),
    "nonstationary-3d": (dominant_variant({"kernel": {"mode": "nonstationary", "probs": [[[1.0], [1.0]]]}}),
                         (), "game.players[0].kernel.probs: ",
                         lambda: pg.TransitionKernel.nonstationary([[[1.0], [1.0]]])),
    "kernel-ragged": (dominant_variant({"kernel": {"mode": "stationary", "probs": [[[1.0], [1.0, 0.0]]]}}),
                      (), "game.players[0].kernel.probs: ",
                      lambda: pg.TransitionKernel.stationary([[[1.0], [1.0, 0.0]]])),
    "kernel-states": (dominant_variant({"kernel": {"mode": "stationary", "probs": TWO_STATES}}),
                      (), "game: ",
                      lambda: pg.validate_game(dominant_spec(
                          players=[player(kernel=pg.TransitionKernel.stationary(TWO_STATES)), player()]
                      ))),
    "payoff-ragged": (dominant_variant(payoff=[[1.0], [1.0, 2.0]]), (), "game: ",
                      lambda: pg.validate_game(dominant_spec(payoff=[[1.0], [1.0, 2.0]]))),
    "x-length": (dominant_config(x=[0]), (), "run.x: ",
                 lambda: _check_tables(DOMINANT, initial_state=(0,))),
    "x-range": (dominant_config(x=[0, 5]), (), "run.x: ",
                lambda: _check_tables(DOMINANT, initial_state=(0, 5))),
    "seed-flag": (dominant_config(), ("--seed", "-1"), "--",
                  lambda: pg.SearchConfig(epsilon=0.1, seed=-1)),
    "initial-delta-subnormal": (dominant_config(initial_delta=1e-320), (), "run.",
                                lambda: pg.SearchConfig(epsilon=0.1, initial_delta=1e-320)),
    "satisfaction-length": (smartgrid_variant(satisfaction={"kind": "table", "values": [0.0]}),
                            (), "smartgrid.prosumers[0]: ",
                            lambda: bundled_prosumer(satisfaction=[0.0])),
    "satisfaction-nan": (smartgrid_variant(satisfaction={"kind": "table", "values": [0.0, math.nan]}),
                         (), "smartgrid.prosumers[0]: ",
                         lambda: bundled_prosumer(satisfaction=[0.0, math.nan])),
    "storage-cost-length": (smartgrid_variant(storage_cost={"kind": "table", "values": [0.0, 0.0]}),
                            (), "smartgrid.prosumers[0]: ",
                            lambda: bundled_prosumer(storage_cost=[0.0, 0.0])),
    "storage-cost-nan": (smartgrid_variant(storage_cost={"kind": "table", "values": [0.0, math.nan, 0.0]}),
                         (), "smartgrid.prosumers[0]: ",
                         lambda: bundled_prosumer(storage_cost=[0.0, math.nan, 0.0])),
}


@pytest.mark.parametrize("rule", list(GAME_RULES))
def test_each_game_rule_is_reported_from_its_library_home(tmp_path, capsys, rule):
    doc, flags, prefix, owner = GAME_RULES[rule]
    cfg = write_config(tmp_path, doc)
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "out", *flags) == 2
    assert capsys.readouterr().err == f"config error: {prefix}{library_message(owner)}\n"


@pytest.mark.parametrize("flag, doc_seed, where", [("-1", 0, "--seed"), (None, -1, "run.seed")])
def test_solve_rejects_negative_seed(tmp_path, capsys, flag, doc_seed, where):
    cfg = write_config(tmp_path, dominant_config(max_candidates=40, seed=doc_seed))
    argv = ["solve", "--config", cfg, "--out", tmp_path / "out"]
    if flag is not None:
        argv += ["--seed", flag]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {where}: must be an integer >= 0, got -1" in err
    assert "Traceback" not in err


def test_solve_not_found_keeps_best_candidate(tmp_path, capsys):
    cfg = write_config(tmp_path, pennies_config())
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg, "--out", out) == 1
    text = (out / "certificate.txt").read_text()
    assert text.startswith("passed: false\n")
    assert "status: not-found" in (out / "run.log").read_text()
    captured = capsys.readouterr()
    assert "no profile passed certification" in captured.err


def test_the_epsilon_split_has_one_home(tmp_path, capsys, monkeypatch):
    # the pennies lattice at step 1/2 has best worst gap 0.25: within a
    # third of epsilon 0.9 (0.3) but not within a quarter (0.225).  Four
    # shares in criterion's one home move every verdict, every printed
    # allowance and the truncation horizon together.
    epsilon = 0.9
    cfg = write_config(tmp_path, pennies_config(epsilon=epsilon))
    game = cli.load_config(cfg).game
    three_shares = pg.truncation_horizon(epsilon, game)
    monkeypatch.setattr(criterion, "_EPSILON_SHARES", 4.0)
    allowance = epsilon / 4.0

    solved = tmp_path / "solve"
    assert run_cli("solve", "--config", cfg, "--out", solved) == 1
    text = (solved / "certificate.txt").read_text()
    assert text.startswith("passed: false\n")
    assert f"deviation_allowance: {format(allowance, '.17g')}\n" in text
    captured = capsys.readouterr()
    assert captured.err == (
        "solve: no profile passed certification within 1 grid level(s); "
        f"best worst-case gap 0.25 against allowance {allowance:.6g}\n"
    )
    assert f"worst gap 0.25 (allowance {allowance:.6g}); " in captured.out

    profile = solved / "plot_data.csv"
    checked = tmp_path / "certify"
    assert run_cli("certify", "--config", cfg, "--out", checked, "--profile", profile) == 1
    assert f"deviation_allowance: {format(allowance, '.17g')}\n" in (
        checked / "certificate.txt").read_text()
    assert capsys.readouterr().out == f"certify: failed; worst gap 0.25 (allowance {allowance:.6g})\n"

    # the tail takes one share too: the horizon is the first whose tail
    # bound is within a quarter of epsilon
    horizon = pg.truncation_horizon(epsilon, game)
    tail = lambda m: np.max(pg.truncation_error_bound(game, m))
    assert tail(horizon) <= allowance < tail(horizon - 1)
    assert horizon > three_shares
    assert run_cli("bound", "--config", cfg) == 0
    assert f"horizon: {horizon}\n" in capsys.readouterr().out

    # at three shares the same profile passes
    monkeypatch.undo()
    assert run_cli("certify", "--config", cfg, "--out", checked, "--profile", profile) == 0
    assert capsys.readouterr().out == f"certify: passed; worst gap 0.25 (allowance {epsilon / 3.0:.6g})\n"


def test_solve_samples_an_oversized_grid(tmp_path, capsys):
    # 81 profiles against a budget of 5: five distinct draws, none passing
    cfg = write_config(tmp_path, dominant_config(max_candidates=5, refinement_cap=0))
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg, "--out", out) == 1
    text = (out / "certificate.txt").read_text()
    assert text.startswith("passed: false\nmode: sampled\n")
    assert "candidates_examined: 5\n" in text
    assert "mode: sampled" in (out / "run.log").read_text()
    assert "no profile passed certification within 1 grid level(s)" in capsys.readouterr().err


def test_solve_names_an_astronomical_grid_in_scientific_notation(tmp_path, capsys):
    # step 1e-300 over two actions is a lattice of 10**300 rows, too many
    # digits for a plain count
    doc = json.loads(BUNDLED_CONFIG.read_text())
    doc["run"]["initial_delta"] = 1e-300
    assert run_cli("solve", "--config", write_config(tmp_path, doc), "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "lattice at step 1e-300 over 2 actions holds 1.000000e+300 rows" in err
    assert len(err) < 200


def test_solve_keeps_the_levels_below_the_grid_cap(tmp_path, capsys):
    # the first two levels (9 and 25 profiles) fit the budget of 30 and are
    # enumerated; the third (81 at step 1/8) samples 30, and the best
    # candidate is written
    cfg = write_config(tmp_path, pennies_config(refinement_cap=2, max_candidates=30))
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg, "--out", out) == 1
    text = (out / "certificate.txt").read_text()
    assert text.startswith("passed: false\nmode: sampled\n")
    assert "candidates_examined: 64\n" in text
    assert "status: not-found" in (out / "run.log").read_text()
    err = capsys.readouterr().err
    assert "within 3 grid level(s)" in err
    assert "refinement stopped" not in err


def test_solve_cli_overrides(tmp_path):
    cfg = write_config(tmp_path, dominant_config(max_candidates=40))
    out = tmp_path / "out"
    assert run_cli(
        "solve", "--config", cfg, "--out", out, "--epsilon", "1000000", "--seed", "9",
    ) == 0
    text = (out / "certificate.txt").read_text()
    assert "mode: sampled" in text
    assert "epsilon: 1000000" in text


def test_certify_reproduces_solve_gaps(tmp_path):
    cfg = write_config(tmp_path, dominant_config())
    solve_out = tmp_path / "solve"
    assert run_cli("solve", "--config", cfg, "--out", solve_out) == 0
    certify_out = tmp_path / "certify"
    assert run_cli(
        "certify",
        "--config", cfg,
        "--out", certify_out,
        "--profile", solve_out / "plot_data.csv",
    ) == 0
    solve_lines = (solve_out / "certificate.txt").read_text().splitlines()
    certify_lines = (certify_out / "certificate.txt").read_text().splitlines()
    pick = lambda lines, tag: [l for l in lines if l.lstrip().startswith(tag)]
    for tag in ("value:", "best_response:", "gap:"):
        assert pick(solve_lines, tag) == pick(certify_lines, tag)
    assert certify_lines[:2] == ["passed: true", "mode: certify"]
    assert "final_delta: n/a" in certify_lines


def test_certify_rejects_short_profile(tmp_path, capsys):
    cfg = write_config(tmp_path, dominant_config())  # horizon 2 in config
    short = tmp_path / "short.csv"
    cli.write_probability_csv(
        short,
        [(0, np.array([[[1.0, 0.0]]])), (1, np.array([[[1.0, 0.0]]]))],
    )
    assert run_cli(
        "certify", "--config", cfg, "--out", tmp_path / "out", "--profile", short
    ) == 2
    err = capsys.readouterr().err
    assert f"{short}: player 0: strategy covers 1 stages, horizon 2 requested" in err


def test_certify_rejects_non_finite_probability(tmp_path, capsys):
    cfg = write_config(tmp_path, dominant_config())
    bad = tmp_path / "nan.csv"
    dist = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
    cli.write_probability_csv(bad, [(0, dist), (1, dist)])
    text = bad.read_text().splitlines()
    text[-1] = text[-1].rsplit(",", 1)[0] + ",nan"  # player 1, stage 2, action 1
    bad.write_text("\n".join(text) + "\n")
    assert run_cli(
        "certify", "--config", cfg, "--out", tmp_path / "out", "--profile", bad
    ) == 2
    err = capsys.readouterr().err
    assert f"{bad}: player 1: non-finite probability nan at (t=2, s=0)" in err


def test_certify_flags_failing_profile(tmp_path, capsys):
    cfg = write_config(tmp_path, dominant_config())
    bad = tmp_path / "bad.csv"
    dist = np.array([[[0.0, 1.0]], [[0.0, 1.0]]])
    cli.write_probability_csv(bad, [(0, dist), (1, dist)])
    assert run_cli(
        "certify", "--config", cfg, "--out", tmp_path / "out", "--profile", bad
    ) == 1
    assert "failed" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag", [("certify", "--profile"), ("marginals", "--strategy")])
def test_strategy_csv_with_wrong_sizes_is_a_config_error(tmp_path, capsys, command, flag):
    # the bundled instance gives every prosumer 3 battery levels and 2 actions;
    # dropping player 1's state-2 rows leaves a (2, 2) table
    uniform = np.full((3, 3, 2), 0.5)
    full = tmp_path / "full.csv"
    cli.write_probability_csv(full, [(i, uniform) for i in range(3)])
    lines = full.read_text().splitlines()
    cut = tmp_path / "cut.csv"
    cut.write_text("\n".join(l for l in lines if not l.startswith("1,") or l.split(",")[2] != "2") + "\n")
    assert run_cli(command, "--config", BUNDLED_CONFIG, "--out", tmp_path / "out", flag, cut) == 2
    err = capsys.readouterr().err
    assert f"{cut}: player 1: strategy has sizes (2, 2), game declares (3, 2)" in err


@pytest.mark.parametrize("command, flag", [("certify", "--profile"), ("marginals", "--strategy")])
@pytest.mark.parametrize(
    "row", ["0,0,0,0,0.75", "1,1,-1,0,0.3", "-1,1,0,0,0.5", "0,1,0,-1,0.5"],
    ids=["stage-0", "state-negative", "player-negative", "action-negative"],
)
def test_strategy_csv_rejects_out_of_range_indices(tmp_path, capsys, command, flag, row):
    # such a row used to be dropped, so a solved profile still passed
    cfg = write_config(tmp_path, dominant_config())
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg, "--out", out) == 0
    plot = out / "plot_data.csv"
    lines = plot.read_text().splitlines()
    plot.write_text("\n".join(lines + [row]) + "\n")
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "check", flag, plot) == 2
    err = capsys.readouterr().err
    assert f"config error: {plot}: line {len(lines) + 1}: stage must be >= 1" in err


def test_solve_refused_grid_leaves_no_artifact_directory(tmp_path, capsys):
    # a subnormal step has no lattice: its reciprocal overflows
    doc = json.loads(BUNDLED_CONFIG.read_text())
    doc["run"]["initial_delta"] = 1e-320
    out = tmp_path / "out"
    assert run_cli("solve", "--config", write_config(tmp_path, doc), "--out", out) == 2
    err = capsys.readouterr().err
    assert err == "config error: run.initial_delta: must have a finite reciprocal, got 1e-320\n"
    assert not out.exists()


def test_solve_refuses_a_lattice_too_fine_to_build(tmp_path, capsys):
    # step 1e-12 over two actions is a lattice of 10**12 rows: refused
    # before it is allocated, and as no level was searched, exit 2
    doc = json.loads(BUNDLED_CONFIG.read_text())
    doc["run"].update(initial_delta=1e-12, max_candidates=10, refinement_cap=0)
    out = tmp_path / "out"
    assert run_cli("solve", "--config", write_config(tmp_path, doc), "--out", out) == 2
    err = capsys.readouterr().err
    assert "solve: lattice at step 1e-12 over 2 actions holds" in err
    assert "use a coarser initial_delta" in err
    assert not out.exists()


@pytest.mark.parametrize("horizon", [10**30, 10**7])
def test_solve_refuses_a_horizon_too_long_to_index(tmp_path, horizon):
    # one index row of the bundled game holds horizon x 9 cells, above the
    # lattice bound: refused before the reach table is built, with exit 2,
    # no traceback, and in seconds under a 3 GB address-space limit
    doc = json.loads(BUNDLED_CONFIG.read_text())
    doc["run"]["horizon"] = horizon
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "ptgames.cli", "solve", "--config", write_config(tmp_path, doc), "--out", out]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    started = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60)
    assert time.perf_counter() - started < 10
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert f"solve: horizon {horizon} gives each profile" in done.stderr
    assert "use a shorter horizon" in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("config, budget", [("prosumer-wide", 10**40), ("bundled", 10**20)])
def test_solve_refuses_a_budget_beyond_numpy_indices(tmp_path, config, budget):
    # a budget above the largest numpy index would count a level of 2.3e34
    # (six prosumers) or 7.6e12 (bundled) profiles as within it and
    # enumerate it: refused with exit 2, no traceback, and in seconds
    if config == "bundled":
        doc = json.loads(BUNDLED_CONFIG.read_text())
    else:
        workloads = runpy.run_path(str(BENCHMARKS / "workloads.py"))
        doc = json.loads(workloads["WORKLOADS"][config].config_text(workloads["DEFAULT_SEED"]))
    doc["run"].update(max_candidates=budget, refinement_cap=6)
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "ptgames.cli", "solve", "--config", write_config(tmp_path, doc), "--out", out]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    started = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - started < 10
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert f"run.max_candidates: must be at most {np.iinfo(np.intp).max}, got {budget}" in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("certify", "--profile"), ("marginals", "--strategy")])
def test_rejected_strategy_csv_leaves_no_artifact_directory(tmp_path, capsys, command, flag):
    uniform = np.full((3, 3, 2), 0.5)
    bad = tmp_path / "bad.csv"
    cli.write_probability_csv(bad, [(i, uniform) for i in range(3)])
    bad.write_text(bad.read_text() + "0,0,0,0,0.5\n")  # a stage-0 row
    out = tmp_path / "out"
    assert run_cli(command, "--config", BUNDLED_CONFIG, "--out", out, flag, bad) == 2
    assert "stage must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_marginals_command(tmp_path):
    cfg_doc = dominant_config()
    cfg = write_config(tmp_path, cfg_doc)
    strategies = tmp_path / "strategies.csv"
    dist0 = np.array([[[0.25, 0.75]], [[0.5, 0.5]]])
    dist1 = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    cli.write_probability_csv(strategies, [(0, dist0), (1, dist1)])
    out = tmp_path / "out"
    assert run_cli("marginals", "--config", cfg, "--out", out, "--strategy", strategies) == 0
    tables = cli.read_probability_csv(out / "marginals.csv")
    runcfg = cli.load_config(cfg)
    expected0 = pg.forward_marginals(
        runcfg.game, pg.MarkovStrategy(player=0, dist=dist0), 0, 2
    )
    assert np.array_equal(tables[0], expected0.probs)
    assert np.array_equal(tables[1], dist1)  # single state chain: dist is marginal


def test_build_smartgrid_round_trip(tmp_path):
    out = tmp_path / "export"
    assert run_cli("build-smartgrid", "--config", BUNDLED_CONFIG, "--out", out) == 0
    document = json.loads((out / "game.json").read_text())
    assert document["run"]["epsilon"] == 0.01
    rebuilt = cli.load_config(out / "game.json")
    reference = pg.build_simulation_game()
    assert np.array_equal(rebuilt.game.payoff_table, reference.payoff_table)
    for i in range(3):
        assert np.array_equal(
            rebuilt.game.players[i].kernel.probs, reference.players[i].kernel.probs
        )


def test_build_smartgrid_round_trips_every_distortion_kind(tmp_path):
    doc = json.loads(BUNDLED_CONFIG.read_text())
    prosumer = doc["smartgrid"]["prosumers"][0]
    distortions = [
        ({"kind": "identity"}, None),
        ({"kind": "prelec", "alpha": 0.65}, {"kind": "identity"}),
        ({"kind": "power_complement", "alpha": 1.75},
         {"kind": "piecewise_power", "c1": 0.5, "c2": 2.25, "c3": 0.3}),
        ({"kind": "table", "points": [[0, 0], [0.25, 0.4], [1, 1]]},
         {"kind": "piecewise_power", "c1": 1.5, "c2": 1.0, "c3": 0.7}),
    ]
    doc["smartgrid"]["prosumers"] = []
    for weighting, valuation in distortions:
        entry = {k: v for k, v in prosumer.items() if k not in ("weighting", "valuation")}
        entry["weighting"] = weighting
        if valuation is not None:  # an absent valuation is the identity
            entry["valuation"] = valuation
        doc["smartgrid"]["prosumers"].append(entry)
    doc["run"]["x"] = [0] * len(distortions)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "export"
    assert run_cli("build-smartgrid", "--config", cfg, "--out", out) == 0
    exported = json.loads((out / "game.json").read_text())["game"]["players"]
    assert [p["weighting"]["kind"] for p in exported] == [
        "identity", "prelec", "power_complement", "table"
    ]
    assert [p["valuation"]["kind"] for p in exported] == [
        "identity", "identity", "piecewise_power", "piecewise_power"
    ]
    original = cli.load_config(cfg).game
    rebuilt = cli.load_config(out / "game.json").game
    assert np.array_equal(rebuilt.payoff_table, original.payoff_table)
    for before, after in zip(original.players, rebuilt.players):
        assert after.weighting == before.weighting
        assert after.valuation == before.valuation
        assert np.array_equal(after.kernel.probs, before.kernel.probs)


def test_build_smartgrid_requires_smartgrid_section(tmp_path):
    cfg = write_config(tmp_path, dominant_config())
    assert run_cli("build-smartgrid", "--config", cfg, "--out", tmp_path / "o") == 2


def test_bound_command_reports_horizon_and_grid_step(tmp_path, capsys):
    cfg = write_config(tmp_path, dominant_config())
    assert run_cli("bound", "--config", cfg) == 0
    out = capsys.readouterr().out
    assert "epsilon: 0.1" in out
    # K = 1, |S||A| = 4: ceil(ln(0.9*0.1/12)/ln 0.1) = 3
    assert "horizon: 3" in out
    assert "player 0: value_bound 1," in out
    assert "grid_step: " in out and "unavailable" not in out


def test_bound_command_flags_non_lipschitz_weighting(capsys):
    assert run_cli("bound", "--config", BUNDLED_CONFIG) == 0
    out = capsys.readouterr().out
    assert "horizon: 2" in out
    assert "grid_step: unavailable" in out
    assert "not Lipschitz" in out


def test_bound_command_reports_unrepresentable_grid_step(tmp_path, capsys):
    # horizon 1393, where (S*A)**horizon has no float value
    doc = one_player_config(kernel_probs=((1.0, 0.0), (0.0, 1.0)))
    doc["game"]["players"][0]["state_count"] = 2
    doc["game"]["players"][0]["kernel"]["probs"] = [[[1.0, 0.0], [0.0, 1.0]]] * 2
    doc["game"]["payoff"] = [[[1.0, 0.0], [0.0, 1.0]]]
    doc["game"]["beta"] = 0.99
    doc["run"]["epsilon"] = 1e-3
    cfg = write_config(tmp_path, doc)
    assert run_cli("bound", "--config", cfg) == 0
    captured = capsys.readouterr()
    assert "horizon: 1393" in captured.out
    assert "grid_step: unavailable (grid step is not representable" in captured.out
    assert "Traceback" not in captured.err


def test_smallest_positive_epsilon_runs_without_a_traceback(tmp_path, capsys):
    # 5e-324 underflows the tail allowance (1 - beta) * epsilon / 3 to 0
    assert run_cli("bound", "--config", BUNDLED_CONFIG, "--epsilon", "5e-324") == 0
    assert re.search(r"^horizon: \d+$", capsys.readouterr().out, re.MULTILINE)
    profile = tmp_path / "uniform.csv"
    cli.write_probability_csv(profile, [(i, np.full((3, 3, 2), 0.5)) for i in range(3)])
    status = run_cli(
        "certify", "--config", BUNDLED_CONFIG, "--epsilon", "5e-324",
        "--out", tmp_path / "out", "--profile", profile,
    )
    assert status in (0, 1, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--profile", "p.csv", "--seed", "1"],
        ["certify", "--profile", "p.csv", "--mode", "grid"],
        ["marginals", "--strategy", "s.csv", "--seed", "1"],
        ["marginals", "--strategy", "s.csv", "--epsilon", "0.1"],
        ["marginals", "--strategy", "s.csv", "--mode", "grid"],
        ["build-smartgrid", "--seed", "1"],
        ["build-smartgrid", "--epsilon", "0.1"],
        ["build-smartgrid", "--mode", "grid"],
        ["bound", "--seed", "3"],
        ["bound", "--mode", "grid"],
        ["bound", "--out", "nowhere"],
        ["solve", "--mode", "grid"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv, "--config", BUNDLED_CONFIG)
    assert info.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli("solve", "--config", missing, "--out", tmp_path / "o") == 2
    assert "config error:" in capsys.readouterr().err


def test_certificate_text_is_self_describing(tmp_path):
    cfg = write_config(tmp_path, dominant_config())
    out = tmp_path / "out"
    run_cli("solve", "--config", cfg, "--out", out)
    text = (out / "certificate.txt").read_text()
    # allowance = epsilon / 3 at .17g
    assert f"deviation_allowance: {format(0.1 / 3.0, '.17g')}" in text
    assert text.rstrip().endswith("note: stages beyond the horizon are played uniformly")
    # values for the dominant game: 1 + beta at both players
    expected = format(1.0 + 0.1, ".17g")
    assert text.count(f"value: {expected}") == 2
