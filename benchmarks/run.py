"""The ``solve`` benchmark of ptgames.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The workload's config is generated from the
seed (``workloads.py``) into ``benchmarks/out/``, and ``ptgames.cli.main``
runs ``solve`` on it in this process, sequentially, single-threaded.  Every
solve is verified (``verify.py``); a miss counts as a failed attempt.

``--trace 0`` repeats, for about ``--seconds``, a few standalone loads of the
config followed by one solve (at least two solves and three loads), and
prints the end-to-end metrics: medians over the loads and the solves.
``--trace 1`` runs one untraced and one traced solve, writes the traced
solve's spans to ``trace.csv.gz`` and prints the per-layer metrics.
``--workload all`` runs every workload in its own fresh process.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit, the names
and units listed in ``BENCHMARK.json``).  The exit code is 0 only when every
solve verified; 2 when the ptgames sources are missing.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_SOLVES = 2  # artifacts of one seed are compared across solves
# setup_s is the median of standalone load_config calls, made in a batch
# before each solve so that they sample the whole run: at least one per
# batch, then more until the batch takes SETUP_BATCH_S or has SETUP_BATCH
# calls, and at least SETUP_MIN in all.  The load inside each solve runs with
# caches cooled by the previous search and is not mixed in, so the number of
# solves cannot shift the median.
SETUP_MIN = 3
SETUP_BATCH = 20
SETUP_BATCH_S = 0.1


@dataclass
class Solve:
    """One solve and its check results; the timings stay None if it raised."""

    problems: list
    exit_code: int | None = None
    solve_s: float | None = None
    search_s: float | None = None
    candidates: int = 0
    tracer: object = None
    outdir: Path | None = None
    notes: list = field(default_factory=list)


def _single_thread() -> None:
    """One BLAS thread, and no ptgames settings from the environment."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("PTGAMES")]:
        del os.environ[var]


def _solve(workload, config: Path, outdir: Path, targets, game, initial_state, reference) -> Solve:
    """One in-process ``ptgames solve`` under a tracer, then its checks."""
    from ptgames import cli
    from spans import SEARCH, Tracer
    from verify import check_solve, parse_certificate

    tracer = Tracer(targets)
    sink = io.StringIO()
    try:
        with tracer, redirect_stdout(sink), redirect_stderr(sink):
            start = time.perf_counter()
            code = cli.main(["solve", "--config", str(config), "--out", str(outdir)])
            solve_s = time.perf_counter() - start
        problems = check_solve(workload, code, outdir, game, initial_state, reference)
    except Exception as exc:  # a crashing solve is a failed attempt, not an abort
        return Solve(problems=[f"solve raised {exc!r}; output: {sink.getvalue()[-500:]}"])
    stats = tracer.stats()
    setup_s = stats["cli.load_config"].outer_s
    notes = [f"not found: {name}" for name in tracer.missing]
    if stats[SEARCH].calls:
        search_s = stats[SEARCH].outer_s
    else:
        search_s = solve_s - setup_s
        notes.append("no search function was called; search_s is solve_s - setup_s")
    cert_path = outdir / "certificate.txt"
    cert = parse_certificate(cert_path.read_text()) if cert_path.is_file() else {}
    return Solve(
        problems=problems,
        exit_code=code,
        solve_s=solve_s,
        search_s=search_s,
        candidates=int(cert.get("candidates_examined", 0)),
        tracer=tracer,
        outdir=outdir,
        notes=notes,
    )


def _load_batch(config: Path, times: list):
    """One batch of standalone ``load_config`` calls, timed into ``times``;
    returns the config loaded."""
    from ptgames import cli

    began = time.perf_counter()
    for _ in range(SETUP_BATCH):
        start = time.perf_counter()
        cfg = cli.load_config(config)
        times.append(time.perf_counter() - start)
        if time.perf_counter() - began >= SETUP_BATCH_S:
            break
    return cfg


def _timed_run(workload, config, workdir, initial_state, seconds):
    from spans import TIMER_TARGETS
    from verify import data_artifacts

    setups = []
    solves = []
    reference = None
    start = time.perf_counter()
    last = 0.0
    # start another batch and solve only while they are expected to end
    # within the window
    while (
        len(solves) < MIN_SOLVES
        or len(setups) < SETUP_MIN
        or time.perf_counter() - start + last <= seconds
    ):
        began = time.perf_counter()
        cfg = _load_batch(config, setups)
        outdir = workdir / f"solve{len(solves)}"
        solve = _solve(workload, config, outdir, TIMER_TARGETS, cfg.game, initial_state, reference)
        solves.append(solve)
        last = time.perf_counter() - began
        if reference is None and solve.outdir is not None:
            reference = data_artifacts(solve.outdir)
    timed = [s for s in solves if s.solve_s is not None]
    if not timed:
        return solves, {}
    metrics = {
        "setup_s": statistics.median(setups),
        "search_s": statistics.median(s.search_s for s in timed),
        "solve_s": statistics.median(s.solve_s for s in timed),
        "candidates_per_s": statistics.median(s.candidates / s.search_s for s in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return solves, metrics


def _traced_run(workload, config, workdir, initial_state):
    from ptgames import cli
    from spans import LAYER_TARGETS, SAMPLER, SEARCH, TIMER_TARGETS
    from verify import data_artifacts

    cfg = cli.load_config(config)
    plain = _solve(workload, config, workdir / "untraced", TIMER_TARGETS, cfg.game, initial_state, None)
    if plain.outdir is None:
        return [plain], {}
    reference = data_artifacts(plain.outdir)
    traced = _solve(workload, config, workdir / "traced", LAYER_TARGETS, cfg.game, initial_state, reference)
    if traced.tracer is None:
        return [plain, traced], {}
    tracer = traced.tracer
    tracer.write(workdir / "trace.csv.gz")
    layers = tracer.stats()
    metrics = {}
    for name, stats in layers.items():
        metrics[f"{name}.calls"] = stats.calls
        metrics[f"{name}.self_s"] = stats.self_s
    metrics[f"{SAMPLER}.draws"] = tracer.sampler_draws
    metrics["game.weighting.elements"] = tracer.weighting_elements
    metrics["search.distinct_marginals_ratio"] = (
        len(tracer.marginal_profiles) / tracer.certified if tracer.certified else 0.0
    )
    metrics["criterion.weight_reuse"] = (
        len(tracer.weight_keys) / tracer.weight_calls if tracer.weight_calls else 0.0
    )
    metrics["unattributed_s"] = metrics[f"{SEARCH}.self_s"]
    metrics["trace_overhead_s"] = traced.search_s - plain.search_s
    traced.notes += [f"absent (never called): {name}" for name, stats in layers.items() if not stats.calls]
    return [plain, traced], metrics


def _declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _report(declared, solves, metrics) -> int:
    failed = sum(1 for s in solves if s.problems)
    for k, solve in enumerate(solves):
        for line in solve.notes:
            print(f"note: solve {k}: {line}")
        for line in solve.problems:
            print(f"FAILED: solve {k}: {line}")
    out = {}
    for spec in declared:
        value = metrics.get(spec["name"])
        if value is None:
            print(f"FAILED: metric {spec['name']} was not measured")
            continue
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:<44} {value:>14.6g} {spec['unit']}")
    print(f"{'failure_rate':<44} {failed / max(1, len(solves)):>14.6g} ({failed}/{len(solves)} solves)")
    correct = failed == 0 and len(out) == len(declared)
    print(json.dumps({
        "correct": correct,
        "attempted": len(solves),
        "failed": failed,
        "metrics": out,
    }))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        print(f"== {name}", flush=True)
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAILED: {name} printed no result; stderr: {done.stderr[-2000:]}")
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: 20250817)")
    parser.add_argument("--seconds", type=float, default=35.0, help="how long to repeat solves")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ptgames" / "__init__.py").is_file():
        print(f"run.py: no ptgames sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    _single_thread()
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    import ptgames

    if Path(ptgames.__file__).resolve().parent != SRC / "ptgames":
        print(f"run.py: imported ptgames from {ptgames.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workdir = BENCH / "out" / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    text = workload.config_text(seed)
    config = workdir / "config.json"
    config.write_text(text)
    initial_state = tuple(json.loads(text)["run"]["x"])
    print(f"workload {args.workload}, seed {seed}, trace {args.trace}, artifacts in {workdir.relative_to(ROOT)}")

    if args.trace:
        solves, metrics = _traced_run(workload, config, workdir, initial_state)
    else:
        solves, metrics = _timed_run(workload, config, workdir, initial_state, args.seconds)
    return _report(_declared_metrics(bool(args.trace)), solves, metrics)


if __name__ == "__main__":
    sys.exit(main())
