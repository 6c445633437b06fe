"""Repeat the benchmark and report how steady each end-to-end metric is.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 [--output perfbench/STEADINESS.md]

Runs ``perfbench/run.py --trace 0`` once per seed (1, 2, ...) and
workload of ``BENCHMARK.json``, one run at a time, and prints (or writes
as Markdown) the median, first and third quartile of every end-to-end
metric, and the spread (Q3 - Q1) / median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n{done.stdout}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--output", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    lines = [
        f"{args.runs} runs per workload, seeds {seeds[0]}-{seeds[-1]}, "
        f"{spec['run_seconds']} s each, --trace 0.",
        "",
    ]
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        lines += [
            f"### {workload}",
            "",
            "| metric | median | Q1 | Q3 | spread | bound |",
            "|---|---:|---:|---:|---:|---:|",
        ]
        for name, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            lines.append(
                f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {(q3 - q1) / med:.4f} | "
                f"{bounds[name]} |"
            )
        lines.append("")
    text = "\n".join(lines)
    print(text)
    if args.output:
        args.output.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
