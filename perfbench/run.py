"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_fit --seed 1 --seconds 20 --trace 0

Workloads are listed in ``BENCHMARK.json``. With ``--trace 0`` the last
stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run (see ``perfbench/README.md``).
Every earlier line is a human-readable report. The program under test is
imported from ``src/`` of the checkout this file sits in; without it the
run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

PROCESS_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Environment the program under test sees: no REPRO_* defaults leak in
#: from the caller, and BLAS stays single-threaded on the small solves.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Set-ups measured per run; setup_s is their median.
SETUP_REPEATS = 3
#: CPU-bound times are reported at this reference speed: scaled by
#: PROBE_REFERENCE_S / speed_probe(), measured next to the timed work.
#: The shared machines this runs on drift by up to 2x over minutes, and
#: the probe tracks that drift (correlation ~0.9 with Table III passes).
PROBE_REFERENCE_S = 0.1


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now (best of 3)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def pin_environment(env: dict[str, str]) -> dict[str, str]:
    """*env* without ``REPRO_*`` variables and with :data:`PINNED_ENV`."""
    clean = {k: v for k, v in env.items() if not k.startswith("REPRO_")}
    clean.update(PINNED_ENV)
    return clean


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: missing {spec_path}", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(spec_path.read_text())


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def repeat_setup(argv: list[str], first: float) -> tuple[float, list[float]]:
    """Median scaled set-up time over this run and SETUP_REPEATS - 1
    fresh processes that only set up (run after the timed phase)."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return median(times), times


def emit(spec: dict, trace: bool, outcome: dict) -> int:
    """Print the report, then the result line last."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    values = outcome["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    for line in outcome.get("report", []):
        print(line)
    for name, payload in metrics.items():
        print(f"  {name:<48} {payload['value']:>14.6g} {payload['unit']}")
    correct = bool(outcome["correct"])
    result = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    pinned = pin_environment(dict(os.environ))
    os.environ.clear()
    os.environ.update(pinned)
    import_program()
    OUT_DIR.mkdir(exist_ok=True)

    if args.workload == "serve_mixed":
        import serve

        if args.setup_only:
            setup = serve.setup_only(args.seed, args.seconds)
            print(setup * PROBE_REFERENCE_S / speed_probe())
            return 0
        outcome = serve.run_serve_mixed(args.seed, args.seconds, bool(args.trace))
    else:
        import batch

        if args.setup_only:
            setup = batch.setup_only(args.workload, args.seed)
            print(setup * PROBE_REFERENCE_S / speed_probe())
            return 0
        outcome = batch.run_batch(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        own = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        scaled = outcome["end_to_end"]["setup_s"] * PROBE_REFERENCE_S / outcome["setup_probe_s"]
        setup_s, times = repeat_setup(own, scaled)
        outcome["end_to_end"]["setup_s"] = setup_s
        outcome["report"].append(
            "set-ups at reference speed: " + ", ".join(f"{t:.3f}s" for t in times)
        )
    return emit(spec, bool(args.trace), outcome)


if __name__ == "__main__":
    raise SystemExit(main())
