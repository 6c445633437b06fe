"""Orchestrated benchmark matrix with a manifest-driven perf gate.

The repo's speed claims (batched-engine speedup, warm-refit latency,
kernel throughput, fleet episodes/sec) are measured by registered
workloads, so every number is a *gateable* run:

:mod:`repro.bench.registry`
    Suite registry of :class:`~repro.bench.registry.Workload` objects:
    fast ``smoke.*`` workloads re-measure the headline metrics at CI
    size with deterministic counters, their ``full.*`` twins measure
    them at snapshot size and write the committed ``BENCH_*.json``
    files, and ``scripts.*`` adapters wrap the paper-artifact
    ``benchmarks/bench_*.py`` scripts.
:mod:`repro.bench.runner`
    ``repro bench run`` — executes a suite × workload × engine/executor
    matrix and writes a per-run manifest directory (``config.json``,
    ``env.json``, ``metrics.jsonl``, ``summary.json``, provenance).
:mod:`repro.bench.compare`
    ``repro bench compare`` — diffs a run against the committed
    ``benchmarks/baseline.json`` under per-metric tolerance policies
    (counted metrics exact, wall-clock metrics ratio-tolerant) and
    exits nonzero on regression.
:mod:`repro.bench.artifact`
    Schema validation + canonical writer for every ``BENCH_*.json``
    artifact the ``full.*`` workloads emit.

See ``docs/benchmarks.md`` for the matrix layout, the manifest schema,
and the baseline update workflow.
"""

from __future__ import annotations

from repro.bench.artifact import (
    check_bench_payload,
    validate_artifact_file,
    validate_bench_payload,
    write_bench_artifact,
)
from repro.bench.compare import (
    ComparisonResult,
    MetricDiff,
    compare_run,
    load_baseline,
    update_baseline,
)
from repro.bench.provenance import provenance_block
from repro.bench.registry import (
    BenchContext,
    MetricSpec,
    Workload,
    get_workload,
    iter_workloads,
    load_builtin_workloads,
    register_workload,
    registered_scripts,
    suite_names,
    workload_names,
)
from repro.bench.runner import RunResult, WorkloadRecord, run_matrix

__all__ = [
    "BenchContext",
    "ComparisonResult",
    "MetricDiff",
    "MetricSpec",
    "RunResult",
    "Workload",
    "WorkloadRecord",
    "check_bench_payload",
    "compare_run",
    "get_workload",
    "iter_workloads",
    "load_baseline",
    "load_builtin_workloads",
    "provenance_block",
    "register_workload",
    "registered_scripts",
    "run_matrix",
    "suite_names",
    "update_baseline",
    "validate_artifact_file",
    "validate_bench_payload",
    "workload_names",
    "write_bench_artifact",
]
