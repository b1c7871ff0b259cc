"""Checks on the artifacts of one ``ptgames solve`` run.

A solve is correct when its exit code and certificate header match the
workload's pins, when re-certifying the emitted ``plot_data.csv`` with the
scalar ``certify`` reproduces the certificate's values to 1e-12, and when its
data artifacts are byte-identical to a reference solve of the same config
(the wall-time line of ``run.log`` aside).
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

TOLERANCE = 1e-12
PLAYER_FIELDS = ("value", "best_response", "gap")


def parse_certificate(text: str) -> dict:
    """Header fields as strings plus per-player float lists under
    ``value``, ``best_response`` and ``gap``."""
    fields = {name: [] for name in PLAYER_FIELDS}
    for line in text.splitlines():
        key, sep, value = line.strip().partition(": ")
        if not sep:
            continue
        if key in PLAYER_FIELDS:
            fields[key].append(float(value))
        elif not key.startswith("strategy "):
            fields[key] = value
    return fields


def read_plot_data(path) -> list:
    """Per-player arrays (stage, state, action) from a probability CSV."""
    cells = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            key = tuple(int(row[c]) for c in ("player", "stage", "state", "action"))
            cells[key] = float(row["probability"])
    tables = []
    for player in sorted({k[0] for k in cells}):
        own = {k[1:]: v for k, v in cells.items() if k[0] == player}
        shape = tuple(max(k[d] for k in own) + 1 for d in range(3))
        dist = np.zeros((shape[0] - 1, shape[1], shape[2]))  # stages are 1-based
        for (t, s, a), p in own.items():
            dist[t - 1, s, a] = p
        tables.append(dist)
    return tables


def data_artifacts(outdir: Path) -> dict:
    """File name -> bytes for every artifact, ``run.log`` without its wall time."""
    out = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "run.log":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.startswith(b"wall_time")
            )
        out[path.name] = data
    return out


def check_solve(workload, exit_code: int, outdir: Path, game, initial_state, reference=None) -> list:
    """Every way the solve in ``outdir`` misses its workload's pins, its own
    certificate, or the ``reference`` artifacts; empty when correct."""
    import ptgames

    problems = []
    if exit_code != workload.exit_code:
        problems.append(f"exit code {exit_code}, expected {workload.exit_code}")
    cert_path = outdir / "certificate.txt"
    if not cert_path.is_file():
        return problems + ["certificate.txt was not written"]
    cert = parse_certificate(cert_path.read_text())
    pins = {
        "candidates_examined": str(workload.candidates_examined),
        "horizon": str(workload.horizon),
        "final_delta": format(workload.final_delta, ".17g"),
        "passed": "true" if workload.exit_code == 0 else "false",
    }
    for key, expected in pins.items():
        if cert.get(key) != expected:
            problems.append(f"certificate {key} is {cert.get(key)!r}, expected {expected!r}")
    if problems:
        return problems

    try:
        dists = read_plot_data(outdir / "plot_data.csv")
        profile = [ptgames.MarkovStrategy(player=i, dist=d) for i, d in enumerate(dists)]
        check = ptgames.certify(
            game, profile, initial_state, workload.horizon, float(cert["epsilon"])
        )
    except (OSError, KeyError, ValueError) as exc:
        return problems + [f"re-certifying plot_data.csv failed: {exc}"]
    recomputed = {
        "value": check.values, "best_response": check.best_values, "gap": check.gaps
    }
    for name in PLAYER_FIELDS:
        written = np.array(cert[name])
        if written.shape != recomputed[name].shape:
            problems.append(f"certificate lists {written.size} {name} entries, game has {game.n}")
        elif np.max(np.abs(written - recomputed[name])) > TOLERANCE:
            diff = np.max(np.abs(written - recomputed[name]))
            problems.append(f"certificate {name} differs from re-certification by {diff:.3g}")
    if check.passed != (cert["passed"] == "true"):
        problems.append("re-certification disagrees on pass/fail")

    if reference is not None:
        mine = data_artifacts(outdir)
        if sorted(mine) != sorted(reference):
            problems.append(f"artifact set {sorted(mine)} differs from {sorted(reference)}")
        for name in sorted(set(mine) & set(reference)):
            if mine[name] != reference[name]:
                problems.append(f"{name} is not byte-identical to the first solve")
    return problems
