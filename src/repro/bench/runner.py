"""Matrix runner: execute workloads and write a per-run manifest.

:func:`run_matrix` executes a selection of registered workloads under
one :class:`~repro.bench.registry.BenchContext` and writes a manifest
directory:

``config.json``
    The matrix cell: suite, workload names, engine/executor/seed axes.
``env.json``
    Every registered environment variable's value at run time
    (``null`` when unset) — the knobs that could have changed the run.
``metrics.jsonl``
    One JSON record per workload, appended as each finishes, so a
    crashed run still leaves the completed measurements on disk.
``summary.json``
    The whole run in one document: config, provenance, per-workload
    metrics grouped by kind (counted / wall / info), failures.

A workload that raises is recorded (``status: "error"``) and the run
continues; the CLI maps any failure to a nonzero exit. For a fixed
configuration and an injected ``clock``/``timestamp``, the manifest is
byte-deterministic — the property the hypothesis test in
``tests/bench/test_runner.py`` pins down.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro._env import REGISTERED_ENV_VARS, read_env
from repro.bench.provenance import provenance_block
from repro.bench.registry import (
    BenchContext,
    Workload,
    get_workload,
    iter_workloads,
)
from repro.exceptions import BenchError
from repro.fitting.options import EngineOptions

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunResult",
    "WorkloadRecord",
    "run_matrix",
]

#: Manifest schema version; bump on incompatible layout changes.
MANIFEST_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class WorkloadRecord:
    """Outcome of one workload execution."""

    name: str
    script: str | None
    status: str
    seconds: float
    metrics: dict[str, float] = field(default_factory=dict)
    error: str | None = None

    def grouped(self, workload: Workload) -> dict[str, dict[str, float]]:
        """Metrics split by declared kind: counted / wall / info."""
        groups: dict[str, dict[str, float]] = {
            "counted": {},
            "wall": {},
            "info": {},
        }
        for name, value in self.metrics.items():
            groups[workload.metric(name).kind][name] = value
        return groups


@dataclass(frozen=True)
class RunResult:
    """A completed matrix run: manifest location + in-memory summary."""

    out_dir: Path
    records: tuple[WorkloadRecord, ...]
    summary: dict[str, Any]

    @property
    def failed(self) -> tuple[str, ...]:
        """Names of the workloads that errored."""
        return tuple(r.name for r in self.records if r.status != "ok")

    @property
    def ok(self) -> bool:
        """True when every workload completed and reported its metrics."""
        return not self.failed


def _options_snapshot(options: EngineOptions) -> dict[str, Any]:
    """The JSON-serializable axes of an options bundle."""
    return {
        key: value
        for key, value in dataclasses.asdict(options).items()
        if value is None or isinstance(value, (bool, int, float, str))
    }


def _check_metrics(workload: Workload, metrics: Mapping[str, Any]) -> dict[str, float]:
    """Validate a runner's returned metrics against the declaration."""
    declared = {spec.name for spec in workload.metrics}
    returned = set(metrics)
    if returned != declared:
        missing = sorted(declared - returned)
        extra = sorted(returned - declared)
        raise BenchError(
            f"workload {workload.name!r} metrics mismatch: "
            f"missing {missing or '[]'}, undeclared {extra or '[]'}"
        )
    checked: dict[str, float] = {}
    for name in sorted(returned):
        value = metrics[name]
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            raise BenchError(
                f"workload {workload.name!r} metric {name!r} is not "
                f"numeric: {value!r}"
            )
        if not math.isfinite(value):
            raise BenchError(
                f"workload {workload.name!r} metric {name!r} is "
                f"non-finite: {value!r}"
            )
        checked[name] = value
    return checked


def _dump(path: Path, payload: Mapping[str, Any]) -> None:
    path.write_text(
        json.dumps(dict(payload), indent=2, sort_keys=True, allow_nan=False)
        + "\n",
        encoding="utf-8",
    )


def run_matrix(
    workloads: Iterable[str | Workload] | None = None,
    *,
    suite: str | None = None,
    options: EngineOptions | None = None,
    out_dir: str | Path,
    clock: Callable[[], float] = time.perf_counter,
    timestamp: str = "",
) -> RunResult:
    """Execute a workload selection and write the run manifest.

    Parameters
    ----------
    workloads:
        Explicit workload names/objects, or ``None`` to select by
        *suite* (which then must be given).
    options:
        The matrix cell's engine axes; defaults to
        ``EngineOptions()`` (environment defaults apply downstream).
    out_dir:
        Manifest directory; created (parents included) if missing.
    clock:
        Monotonic clock used for per-workload timing — injectable so
        tests can make the manifest fully deterministic.
    timestamp:
        Run timestamp recorded verbatim in the manifest. Empty string
        means "caller did not stamp" and is preserved as such; the CLI
        always stamps real runs.
    """
    if workloads is None:
        if suite is None:
            raise BenchError("run_matrix needs either workloads or a suite")
        selected = list(iter_workloads(suite))
        if not selected:
            raise BenchError(f"suite {suite!r} matched no workloads")
    else:
        selected = [
            w if isinstance(w, Workload) else get_workload(w)
            for w in workloads
        ]
        if not selected:
            raise BenchError("empty workload selection")

    resolved_options = options if options is not None else EngineOptions()
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    workdir = target / "work"
    workdir.mkdir(exist_ok=True)
    context = BenchContext(options=resolved_options, workdir=workdir)

    config: dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "suite": suite,
        "timestamp": timestamp,
        "options": _options_snapshot(resolved_options),
        "workloads": [w.name for w in selected],
    }
    _dump(target / "config.json", config)
    _dump(
        target / "env.json",
        {name: read_env(name) for name in sorted(REGISTERED_ENV_VARS)},
    )

    records: list[WorkloadRecord] = []
    metrics_path = target / "metrics.jsonl"
    with metrics_path.open("w", encoding="utf-8") as stream:
        for workload in selected:
            start = clock()
            try:
                raw = workload.runner(context)
                metrics = _check_metrics(workload, raw)
                record = WorkloadRecord(
                    name=workload.name,
                    script=workload.script,
                    status="ok",
                    seconds=clock() - start,
                    metrics=metrics,
                )
            except Exception as exc:  # recorded, run continues
                record = WorkloadRecord(
                    name=workload.name,
                    script=workload.script,
                    status="error",
                    seconds=clock() - start,
                    error=f"{type(exc).__name__}: {exc}",
                )
            records.append(record)
            stream.write(
                json.dumps(
                    {
                        "name": record.name,
                        "script": record.script,
                        "status": record.status,
                        "seconds": record.seconds,
                        "metrics": record.metrics,
                        "error": record.error,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            stream.flush()

    by_name = {w.name: w for w in selected}
    summary: dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "timestamp": timestamp,
        "suite": suite,
        "config": {k: v for k, v in config.items() if k != "timestamp"},
        "provenance": provenance_block(),
        "workloads": {
            record.name: {
                "script": record.script,
                "status": record.status,
                "seconds": record.seconds,
                "error": record.error,
                **record.grouped(by_name[record.name]),
            }
            for record in records
        },
        "failed": [record.name for record in records if record.status != "ok"],
    }
    _dump(target / "summary.json", summary)
    return RunResult(
        out_dir=target, records=tuple(records), summary=summary
    )
