"""Self-tests of the benchmark harness.

    python3 benchmarks/selftest.py

Checks that the generators are deterministic, that verification catches a
certificate value off by 1e-6, that a traced solve reports the same counts
and artifacts as an untraced one, and that the benchmark refuses to run
without the ptgames sources.  Uses the grid-exhaust workload; takes about
15 seconds.  Exits 1 on the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run


def _check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main() -> int:
    run._single_thread()
    sys.path.insert(0, str(run.SRC))
    from spans import LAYER_TARGETS, TIMER_TARGETS
    from verify import check_solve, data_artifacts
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        _check(workload.config_text(7) == workload.config_text(7), f"{name}: same seed, same config bytes")
        if workload.fixed_seed is None:
            _check(workload.config_text(7) != workload.config_text(8), f"{name}: seeds 7 and 8 differ")

    workload = WORKLOADS["grid-exhaust"]
    workdir = run.BENCH / "out" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    text = workload.config_text(7)
    config = workdir / "config.json"
    config.write_text(text)
    x = tuple(json.loads(text)["run"]["x"])
    cfg = run._load_batch(config, [])

    plain = run._solve(workload, config, workdir / "untraced", TIMER_TARGETS, cfg.game, x, None)
    _check(plain.problems == [], f"untraced solve verifies ({plain.problems})")

    tampered = workdir / "tampered"
    shutil.copytree(plain.outdir, tampered)
    cert = tampered / "certificate.txt"
    lines = cert.read_text().splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("  value: "))
    lines[at] = "  value: " + format(float(lines[at].split(": ")[1]) + 1e-6, ".17g")
    cert.write_text("\n".join(lines) + "\n")
    problems = check_solve(workload, plain.exit_code, tampered, cfg.game, x, None)
    _check(any("value" in p for p in problems), f"a value off by 1e-6 fails ({problems})")

    reference = data_artifacts(plain.outdir)
    traced = run._solve(workload, config, workdir / "traced", LAYER_TARGETS, cfg.game, x, reference)
    _check(traced.problems == [], f"traced artifacts equal untraced ones ({traced.problems})")
    _check(
        (traced.exit_code, traced.candidates) == (plain.exit_code, plain.candidates),
        f"traced and untraced counts agree ({traced.candidates} candidates)",
    )
    stats = traced.tracer.stats()
    _check(
        stats["search.certify"].calls == traced.tracer.sampler_draws == traced.candidates,
        "certify calls and enumerated draws equal candidates examined",
    )

    bare = workdir / "bare"
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "grid-exhaust", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    _check(done.returncode != 0 and not done.stdout.strip(), "without the sources it exits nonzero, printing no result")
    shutil.rmtree(workdir)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
