"""Workload/suite registry for the benchmark matrix.

A :class:`Workload` is a named, registered measurement: a callable that
receives a :class:`BenchContext` (resolved engine options and a scratch
directory) and returns a flat mapping of metric values.
Each metric is declared up front with a :class:`MetricSpec` so the
runner and the baseline gate know how to treat it:

``counted``
    Deterministic for a fixed seed and configuration (nfev, njev,
    iteration counts, CRC of a rendered table). Gated **exactly** by
    ``repro bench compare``.
``wall``
    Machine- and load-dependent (seconds, speedups, episodes/sec).
    Gated by a ratio tolerance, and only strictly when
    ``REPRO_PERF_STRICT`` is set.
``info``
    Recorded in the manifest, never gated.

Workloads belong to one or more *suites* (``smoke``, ``full``,
``scripts``); ``repro bench run --suite`` selects by suite and the CI
gate runs the cheap ``smoke`` tier. Script-adapter workloads
additionally record the ``benchmarks/bench_*.py`` file they wrap so a
registry test can prove every benchmark script is covered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping

from repro.exceptions import BenchError
from repro.fitting.options import EngineOptions

__all__ = [
    "BenchContext",
    "MetricSpec",
    "Workload",
    "get_workload",
    "iter_workloads",
    "load_builtin_workloads",
    "register_workload",
    "registered_scripts",
    "suite_names",
    "workload_names",
]

_METRIC_KINDS = ("counted", "wall", "info")
_DIRECTIONS = ("lower", "higher")


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric a workload reports.

    ``direction`` states which way is *better* for wall metrics
    ("lower" for seconds, "higher" for speedups); ``tolerance``
    optionally overrides the comparator's default wall ratio for this
    metric. Both are ignored for counted metrics, which compare exact.
    """

    name: str
    kind: str = "wall"
    direction: str = "lower"
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _METRIC_KINDS:
            raise BenchError(
                f"metric {self.name!r}: kind must be one of {_METRIC_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.direction not in _DIRECTIONS:
            raise BenchError(
                f"metric {self.name!r}: direction must be one of "
                f"{_DIRECTIONS}, got {self.direction!r}"
            )
        if self.tolerance is not None and not self.tolerance > 1.0:
            raise BenchError(
                f"metric {self.name!r}: tolerance must be a ratio > 1.0, "
                f"got {self.tolerance!r}"
            )


@dataclass(frozen=True)
class BenchContext:
    """Everything a workload runner receives.

    ``options`` carries the engine/executor/seed axes of the matrix
    cell being measured; ``workdir`` is a per-run scratch directory
    workloads may write stores or traces into.
    """

    options: EngineOptions
    workdir: Path = field(default_factory=Path)


@dataclass(frozen=True)
class Workload:
    """A registered benchmark workload.

    ``runner`` does the measurement and returns ``{metric_name: value}``
    covering exactly the declared ``metrics``; ``script`` names the
    ``benchmarks/`` file a script-adapter workload wraps (``None`` for
    native workloads).
    """

    name: str
    runner: Callable[[BenchContext], Mapping[str, float]]
    metrics: tuple[MetricSpec, ...]
    suites: tuple[str, ...] = ("full",)
    script: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise BenchError("workload name must be non-empty")
        if not self.suites:
            raise BenchError(f"workload {self.name!r} must belong to a suite")
        seen: set[str] = set()
        for spec in self.metrics:
            if spec.name in seen:
                raise BenchError(
                    f"workload {self.name!r} declares metric "
                    f"{spec.name!r} twice"
                )
            seen.add(spec.name)

    def metric(self, name: str) -> MetricSpec:
        """The declared spec for metric *name*."""
        for spec in self.metrics:
            if spec.name == name:
                return spec
        raise BenchError(
            f"workload {self.name!r} does not declare metric {name!r}"
        )


_REGISTRY: dict[str, Workload] = {}
_BUILTINS_LOADED = False


def register_workload(workload: Workload) -> Workload:
    """Add *workload* to the registry; duplicate names are an error."""
    if workload.name in _REGISTRY:
        raise BenchError(
            f"workload {workload.name!r} is already registered"
        )
    _REGISTRY[workload.name] = workload
    return workload


def load_builtin_workloads() -> None:
    """Import :mod:`repro.bench.workloads`, registering the built-ins.

    Idempotent; the registry query functions call this lazily so that
    ``import repro.bench`` stays cheap and the workload module's heavier
    imports (numpy fixtures, subprocess plumbing) only load on use.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.bench.workloads  # noqa: F401  (registers on import)


def get_workload(name: str) -> Workload:
    """The registered workload called *name*."""
    load_builtin_workloads()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise BenchError(
            f"unknown workload {name!r}; registered workloads: {known}"
        ) from None


def iter_workloads(suite: str | None = None) -> Iterator[Workload]:
    """All registered workloads, optionally restricted to one suite."""
    load_builtin_workloads()
    for name in sorted(_REGISTRY):
        workload = _REGISTRY[name]
        if suite is None or suite in workload.suites:
            yield workload


def workload_names(suite: str | None = None) -> list[str]:
    """Sorted names of the registered workloads (optionally per suite)."""
    return [workload.name for workload in iter_workloads(suite)]


def suite_names() -> list[str]:
    """Sorted names of every suite any workload belongs to."""
    load_builtin_workloads()
    suites: set[str] = set()
    for workload in _REGISTRY.values():
        suites.update(workload.suites)
    return sorted(suites)


def registered_scripts() -> dict[str, str]:
    """Mapping of ``benchmarks/`` script file name → wrapping workload."""
    load_builtin_workloads()
    scripts: dict[str, str] = {}
    for workload in _REGISTRY.values():
        if workload.script is not None:
            scripts[workload.script] = workload.name
    return scripts
