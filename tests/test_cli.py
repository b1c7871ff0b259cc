"""Config loading, CSV round trips, and the command-line entry points."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import ptgames as pg
from ptgames import cli, search

BUNDLED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "smartgrid.json"

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
    assert cfg.search.mode == "grid"
    assert cfg.search.seed == 0
    assert cfg.search.initial_delta == 0.5
    assert cfg.search.max_candidates == 100_000
    assert cfg.search.refinement_cap == 6
    assert cfg.search.horizon == 2


def test_load_config_reports_key_path_for_bad_beta(tmp_path):
    doc = dominant_config()
    doc["game"]["beta"] = 1.2
    with pytest.raises(cli.ConfigError, match="game.beta"):
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
    with pytest.raises(cli.ConfigError, match=r"run.x\[1\]"):
        cli.load_config(write_config(tmp_path, doc))
    doc = dominant_config()
    doc["run"]["epsilon"] = -1.0
    with pytest.raises(cli.ConfigError, match="run.epsilon"):
        cli.load_config(write_config(tmp_path, doc))
    doc = dominant_config()
    doc["run"]["mode"] = "exhaustive"
    with pytest.raises(cli.ConfigError, match="run.mode"):
        cli.load_config(write_config(tmp_path, doc))
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
    with pytest.raises(cli.ConfigError, match="row sum"):
        cli.load_config(write_config(tmp_path, doc))


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
    assert cfg.search.mode == "sampled"
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
    with pytest.raises(cli.ConfigError, match="missing row"):
        cli.read_probability_csv(path)


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
        dominant_config(mode="sampled", max_candidates=40, seed=4),
        pennies_config(epsilon=0.5, refinement_cap=6),
        pennies_config(epsilon=0.5, refinement_cap=6, mode="sampled", seed=1),
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
         "game: non-finite probability nan at (player 0, t=1, s=0, a=0, next=0)"),
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
         "smartgrid.prosumers[0].satisfaction.values[1]: expected a finite number"),
        (smartgrid_variant(storage_cost={"kind": "table", "values": [0.0, -math.inf, 0.0]}),
         "smartgrid.prosumers[0].storage_cost.values[1]: expected a finite number"),
        ({"smartgrid": {"beta": 0.5, "prosumers": [5]}, "run": {"x": [0], "epsilon": 0.1}},
         "smartgrid.prosumers[0]: expected an object"),
    ],
    ids=[
        "kernel-nan", "alpha-inf", "pmf-nan", "variance-inf", "support-inf", "knot-nan", "c2-inf",
        "c1-nan", "valuation-overflow", "values-string", "satisfaction-list", "generation-number",
        "satisfaction-nan", "storage-cost-inf", "prosumer-number",
    ],
)
def test_solve_rejects_non_finite_game_inputs(tmp_path, capsys, doc, message):
    cfg = write_config(tmp_path, doc)  # NaN/inf become the JSON tokens NaN/Infinity
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, doc_seed, where", [("-1", 0, "--seed"), (None, -1, "run.seed")])
def test_solve_rejects_negative_seed(tmp_path, capsys, flag, doc_seed, where):
    cfg = write_config(tmp_path, dominant_config(mode="sampled", seed=doc_seed))
    argv = ["solve", "--config", cfg, "--out", tmp_path / "out"]
    if flag is not None:
        argv += ["--seed", flag]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {where}: must be >= 0, got -1" in err
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


def test_solve_oversized_grid_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, dominant_config(max_candidates=5))
    assert run_cli("solve", "--config", cfg, "--out", tmp_path / "out") == 2
    assert "use sampled mode" in capsys.readouterr().err


def test_solve_keeps_the_levels_below_the_grid_cap(tmp_path, capsys):
    # the third level (81 profiles at step 1/8) is above the cap of 30: the
    # first two are searched and the best candidate is still written
    cfg = write_config(tmp_path, pennies_config(refinement_cap=2, max_candidates=30))
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg, "--out", out) == 1
    assert (out / "certificate.txt").read_text().startswith("passed: false\n")
    assert "status: not-found" in (out / "run.log").read_text()
    err = capsys.readouterr().err
    assert "within 2 grid level(s)" in err
    assert "refinement stopped: profile grid at step 0.125 holds 81 candidates" in err


def test_solve_cli_overrides(tmp_path):
    cfg = write_config(tmp_path, dominant_config())
    out = tmp_path / "out"
    assert run_cli(
        "solve", "--config", cfg, "--out", out, "--epsilon", "1000000", "--mode", "sampled",
        "--seed", "9",
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
    assert certify_lines[0] == "passed: true"


def test_certify_rejects_short_profile(tmp_path):
    cfg = write_config(tmp_path, dominant_config())  # horizon 2 in config
    short = tmp_path / "short.csv"
    cli.write_probability_csv(
        short,
        [(0, np.array([[[1.0, 0.0]]])), (1, np.array([[[1.0, 0.0]]]))],
    )
    assert run_cli(
        "certify", "--config", cfg, "--out", tmp_path / "out", "--profile", short
    ) == 2


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
