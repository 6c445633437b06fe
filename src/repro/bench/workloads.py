"""Built-in benchmark workloads: smoke tier, full tier, script adapters.

Three suites register here on import (via
:func:`repro.bench.registry.load_builtin_workloads`):

``smoke.*``
    Re-measurements of the repo's headline performance claims at CI
    size: each runs in seconds, reports deterministic counters
    (nfev/njev, span counts, CRCs, bit-identity flags) alongside its
    wall numbers, and honors the engine/executor axes carried by the
    :class:`~repro.bench.registry.BenchContext`.

``full.*``
    The same measurements at the size behind the committed
    ``benchmarks/output/BENCH_*.json`` snapshots, built from the same
    helpers as their smoke twins. ``full.<suffix>`` writes
    ``BENCH_<suffix>.json`` through
    :func:`~repro.bench.artifact.write_bench_artifact` and raises
    :class:`~repro.exceptions.BenchError` when a claim the snapshot
    backs (a speedup floor, a bit-identity) does not hold.

``scripts.*``
    Subprocess adapters that run each paper-artifact
    ``benchmarks/bench_*.py`` file (tables, figures, ablations) under
    pytest with the matrix axes exported through
    :func:`repro._env.spawn_env`.

The ``smoke`` tier is the CI gate (``repro bench run --suite smoke``);
``repro bench run --suite full`` regenerates every snapshot.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro._env import spawn_env
from repro.bench.artifact import write_bench_artifact
from repro.bench.provenance import provenance_block
from repro.bench.registry import (
    BenchContext,
    MetricSpec,
    Workload,
    register_workload,
)
from repro.exceptions import BenchError
from repro.fitting.options import EngineOptions

__all__ = [
    "BENCH_SCRIPTS",
    "SMOKE_SEED",
]

#: Seed shared by every native workload (the fleet paper seed).
SMOKE_SEED = 20220926

#: Every benchmark script under ``benchmarks/``; the registry coverage
#: test asserts this list matches the files on disk exactly.
BENCH_SCRIPTS: tuple[str, ...] = (
    "bench_ablation_multistart.py",
    "bench_ablation_shapes.py",
    "bench_ablation_train_fraction.py",
    "bench_ablation_trends.py",
    "bench_extension_failure_shapes.py",
    "bench_fig1_concept.py",
    "bench_fig2_recessions.py",
    "bench_fig3_quadratic_fit.py",
    "bench_fig4_competing_risks_fit.py",
    "bench_fig5_weiexp_fit.py",
    "bench_fig6_mixture_fits.py",
    "bench_robustness_reconstruction.py",
    "bench_table1_bathtub.py",
    "bench_table2_bathtub_metrics.py",
    "bench_table3_mixtures.py",
    "bench_table4_mixture_metrics.py",
)

#: Random starts per fit in the full Table III workloads.
FULL_STARTS = 4
#: Worker count for the pooled executor backends of ``full.fit_engine``.
FULL_WORKERS = 2
#: Table III grid size: 7 recessions x 4 mixture models.
TABLE3_CELLS = 28

#: Model grid of the fleet workloads.
FLEET_FAMILIES = ("quadratic", "competing_risks")
#: ``full.fleet`` sizes: the whole store for the streaming-memory
#: proof, a slice for the engine race (the scipy loop sets its wall
#: clock; timing it on all 100k episodes would take hours), and the
#: head of that slice for the bit-identity check.
FLEET_EPISODES = 100_000
FLEET_TIMING = 512
FLEET_IDENTITY = 96
FLEET_CHUNK = 2048

#: The recession and mixture the serving replays stream.
SERVING_DATASET = "1990-93"
SERVING_MODEL = "wei-exp"

#: Load shapes of the asyncio-server workloads.
SMOKE_LOAD: dict[str, Any] = {
    "refit_interval": 0.05,
    "refit_every_k": 4,
    "n_streams": 200,
    "observations": 8,
    "obs_batch": 4,
    "connections": 4,
    "forecast_streams": 8,
    "reject_probes": 8,
    "settle_seconds": 0.2,
}
SERVICE_LOAD: dict[str, Any] = {
    "refit_interval": 0.25,
    "refit_every_k": 8,
    "n_streams": 10_000,
    "observations": 10,
    "obs_batch": 5,
    "connections": 8,
    "forecast_streams": 64,
    "reject_probes": 32,
    "settle_seconds": 1.0,
}

#: Null-path micro-timing iterations (smoke, full).
SMOKE_NULL_OPS = 20_000
FULL_NULL_OPS = 200_000
#: Budget for the modeled cost of disabled tracing, as a wall fraction.
TRACE_OVERHEAD_BUDGET = 0.02


def _capped_options(ctx: BenchContext, **overrides: object) -> EngineOptions:
    """The context's axes with the cheap-solver caps applied."""
    settings: dict[str, object] = {
        "cache": False,
        "trace": False,
        "n_random_starts": 2,
        "seed": SMOKE_SEED,
        "executor": "serial",
    }
    settings.update(overrides)
    return ctx.options.override(**settings)


def _check(condition: bool, message: str) -> None:
    """Fail the running workload when a benchmarked claim does not hold."""
    if not condition:
        raise BenchError(message)


def _best_of(repeats: int, func: Callable[[], Any]) -> tuple[float, Any]:
    """Best wall time of *repeats* calls of *func*, and its last value."""
    best = float("inf")
    value: Any = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = func()
        best = min(best, time.perf_counter() - start)
    return best, value


def _repo_root() -> Path:
    """The repository root, located from this installed module."""
    root = Path(__file__).resolve().parents[3]
    if not (root / "benchmarks").is_dir():
        raise BenchError(
            "this workload needs the repository checkout; "
            f"no benchmarks/ directory above {Path(__file__).resolve()}"
        )
    return root


def _write_artifact(name: str, payload: Mapping[str, Any]) -> None:
    """Write ``benchmarks/output/<name>`` with a provenance block."""
    write_bench_artifact(
        _repo_root() / "benchmarks" / "output" / name,
        {"provenance": provenance_block(), **payload},
    )


# ----------------------------------------------------------------------
# Scalar reference kernels — the pre-vectorization implementations of
# the ResilienceModel numeric fallbacks, kept as the speedup baseline.
# ----------------------------------------------------------------------
def _scalar_predict(model: Any) -> Callable[[float], float]:
    return lambda t: float(model.predict(np.array([t]))[0])


def _scalar_area(model: Any, lower: float, upper: float) -> float:
    from repro.utils.integrate import adaptive_quad

    return adaptive_quad(_scalar_predict(model), lower, upper)


def _scalar_minimum(model: Any, horizon: float) -> tuple[float, float]:
    from scipy import optimize

    grid = np.linspace(0.0, horizon, 2001)
    values = model.predict(grid)
    arg = int(np.argmin(values))
    lo = float(grid[max(arg - 1, 0)])
    hi = float(grid[min(arg + 1, grid.size - 1)])
    if lo == hi:
        return float(grid[arg]), float(values[arg])
    result = optimize.minimize_scalar(
        _scalar_predict(model), bounds=(lo, hi), method="bounded"
    )
    return float(result.x), float(result.fun)


def _scalar_recovery(model: Any, level: float, horizon: float = 1e4) -> float:
    from scipy import optimize

    trough_time, trough_value = _scalar_minimum(model, horizon)
    if trough_value >= level:
        return trough_time
    grid = np.linspace(trough_time, horizon, 4001)
    above = np.nonzero(model.predict(grid) - level >= 0.0)[0]
    if not above.size:
        raise BenchError("scalar recovery reference never recovers")
    hit = int(above[0])
    if hit == 0:
        return float(grid[0])
    func = _scalar_predict(model)
    return float(
        optimize.brentq(lambda t: func(t) - level, grid[hit - 1], grid[hit])
    )


def _kernel_race(
    model: Any, repeats: int, horizon: float = 60.0
) -> dict[str, dict[str, float]]:
    """Scalar reference vs vectorized kernel, per derived quantity."""
    from repro.models.base import ResilienceModel

    level = 0.995 * float(model.predict(np.array([horizon]))[0])
    cases: dict[str, tuple[Callable[[], Any], Callable[[], Any]]] = {
        "area_under_curve": (
            lambda: _scalar_area(model, 0.0, horizon),
            lambda: ResilienceModel.area_under_curve(model, 0.0, horizon),
        ),
        "minimum": (
            lambda: _scalar_minimum(model, horizon)[1],
            lambda: ResilienceModel.minimum(model, horizon)[1],
        ),
        "recovery_time": (
            lambda: _scalar_recovery(model, level),
            lambda: ResilienceModel.recovery_time(model, level),
        ),
    }
    race: dict[str, dict[str, float]] = {}
    for name, (scalar, vectorized) in cases.items():
        scalar_s, scalar_value = _best_of(repeats, scalar)
        vector_s, vector_value = _best_of(repeats, vectorized)
        race[name] = {
            "scalar_seconds": scalar_s,
            "vectorized_seconds": vector_s,
            "speedup": scalar_s / vector_s,
            "abs_diff": abs(vector_value - scalar_value),
        }
    return race


def _table_counters(result: Any) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
    """Summed and per-fit residual/Jacobian evaluation counts of a
    table result (the objective's own counters, so finite-difference
    Jacobian columns are included)."""
    totals = {"nfev": 0, "njev": 0}
    per_fit: dict[str, dict[str, int]] = {}
    for dataset, cells in result.cells.items():
        for model, evaluation in cells.items():
            details = evaluation.fit.details
            counts = {"nfev": details["nfev"], "njev": details["njev"]}
            per_fit[f"{dataset}/{model}"] = counts
            totals["nfev"] += counts["nfev"]
            totals["njev"] += counts["njev"]
    return totals, per_fit


def _generate(ctx: BenchContext, name: str, n_episodes: int, chunk_size: int) -> Any:
    """The seeded synthetic outage fleet stored at ``workdir/name``."""
    from repro.datasets.outage import generate_fleet

    return generate_fleet(
        n_episodes,
        ctx.workdir / name,
        seed=SMOKE_SEED,
        chunk_size=chunk_size,
        overwrite=True,
    )


def _replay_refits(curve: Any, options: EngineOptions, key: str) -> dict[str, Any]:
    """Stream *curve* through a forecaster that refits on every point.

    Times each warm (incremental) refit, then checks that
    :meth:`~repro.serving.OnlineForecaster.finalize` reproduces the
    one-shot fit of the whole curve bit-for-bit.
    """
    from repro.datasets.stream import iter_curve
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.registry import make_model
    from repro.serving import OnlineForecaster, RefitPolicy

    forecaster = OnlineForecaster(
        SERVING_MODEL, options=options, policy=RefitPolicy(every_k=1), key=key
    )
    warm_seconds: list[float] = []
    prefix_lengths: list[int] = []
    for event in iter_curve(curve):
        forecaster.observe(event.time, event.performance)
        if not forecaster.ready:
            continue
        had_fit = forecaster.fit is not None
        start = time.perf_counter()
        forecaster.refit()
        if had_fit:  # only incremental refits count; the first is cold
            warm_seconds.append(time.perf_counter() - start)
            prefix_lengths.append(forecaster.n_observations)
    final = forecaster.finalize()
    oneshot = fit_least_squares(
        make_model(SERVING_MODEL),
        curve,
        options=options.override(cache=False, trace=False),
    )
    return {
        "forecaster": forecaster,
        "warm_seconds": warm_seconds,
        "prefix_lengths": prefix_lengths,
        "final": final,
        "identical": final.model.params == oneshot.model.params
        and final.sse == oneshot.sse,
    }


def _percentiles(samples: list[float]) -> dict[str, float]:
    array = np.asarray(samples, dtype=np.float64)
    return {
        "n": int(array.size),
        "p50_ms": float(np.percentile(array, 50) * 1e3),
        "p95_ms": float(np.percentile(array, 95) * 1e3),
        "mean_ms": float(array.mean() * 1e3),
    }


def _serve_load(
    ctx: BenchContext,
    name: str,
    *,
    refit_interval: float,
    refit_every_k: int,
    **load: Any,
) -> dict[str, Any]:
    """Self-host the JSONL server and drive it with the outage-fleet load."""
    from repro.serving.loadgen import run_load_sync
    from repro.serving.server import ServerConfig

    config = ServerConfig(
        options=_capped_options(ctx),
        family="quadratic",
        refit_interval=refit_interval,
        refit_every_k=refit_every_k,
    )
    return run_load_sync(
        config=config, seed=SMOKE_SEED, workdir=ctx.workdir / name, **load
    )


def _null_path_seconds_per_op(n_ops: int) -> float:
    """Best-of-3 per-op cost of disabled instrumentation: one
    ``resolve_tracer(None)`` + ``enabled`` guard + ``current_tracer()``
    — a superset of what any single instrumentation point does."""
    from repro.observability.tracer import current_tracer, resolve_tracer

    def null_path() -> None:
        for _ in range(n_ops):
            if resolve_tracer(None).enabled:
                raise BenchError("tracing unexpectedly enabled during bench")
            current_tracer()

    best, _ = _best_of(3, null_path)
    return best / n_ops


# ----------------------------------------------------------------------
# Smoke workloads
# ----------------------------------------------------------------------
def _run_fit_engine(ctx: BenchContext) -> Mapping[str, float]:
    from repro.datasets.recessions import load_recession
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.registry import make_model

    curve = load_recession("1990-93")
    family = make_model("wei-exp")
    fits = {}
    seconds = {}
    for engine in ("scipy", "batched"):
        options = _capped_options(ctx, engine=engine)
        start = time.perf_counter()
        fits[engine] = fit_least_squares(family, curve, options=options)
        seconds[engine] = time.perf_counter() - start
    scipy_fit, batched_fit = fits["scipy"], fits["batched"]
    identical = (
        scipy_fit.model.params == batched_fit.model.params
        and scipy_fit.sse == batched_fit.sse
    )
    return {
        "scipy_nfev": scipy_fit.details["nfev"],
        "scipy_njev": scipy_fit.details["njev"],
        "batched_nfev": batched_fit.details["nfev"],
        "batched_njev": batched_fit.details["njev"],
        "params_bit_identical": int(identical),
        "scipy_seconds": seconds["scipy"],
        "batched_seconds": seconds["batched"],
        "engine_speedup": seconds["scipy"] / seconds["batched"],
    }


def _run_kernels(ctx: BenchContext) -> Mapping[str, float]:
    from repro.datasets.recessions import load_recession
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.registry import make_model

    fit = fit_least_squares(
        make_model("wei-exp"),
        load_recession("1990-93"),
        options=_capped_options(ctx),
    )
    race = _kernel_race(fit.model, repeats=3)
    return {
        "auc_match": int(race["area_under_curve"]["abs_diff"] < 1e-6),
        "minimum_match": int(race["minimum"]["abs_diff"] < 1e-8),
        "auc_speedup": race["area_under_curve"]["speedup"],
        "minimum_speedup": race["minimum"]["speedup"],
    }


def _run_fleet(ctx: BenchContext) -> Mapping[str, float]:
    from repro.fitting.fleet import fit_fleet

    store = _generate(ctx, "smoke_fleet", 64, chunk_size=32)
    result = fit_fleet(
        store,
        FLEET_FAMILIES,
        options=_capped_options(ctx),
        chunk_size=32,
        length_bucket=8,
    )
    return {
        "n_episodes": result.n_episodes,
        "failed_cells": sum(
            int(result.failed[family].sum()) for family in result.families
        ),
        "total_nfev": sum(
            int(result.nfev[family].sum()) for family in result.families
        ),
        "fit_seconds": result.seconds,
        "episodes_per_sec": result.episodes_per_sec,
    }


def _run_serving(ctx: BenchContext) -> Mapping[str, float]:
    from repro.datasets.recessions import load_recession
    from repro.fitting.cache import FitCache

    replay = _replay_refits(
        load_recession(SERVING_DATASET),
        _capped_options(ctx, cache=FitCache()),
        key="bench-smoke",
    )
    forecaster = replay["forecaster"]
    return {
        "refits_warm": forecaster.stats["refits_warm"],
        "finalize_bit_identical": int(replay["identical"]),
        "n_observations": forecaster.n_observations,
        "warm_p50_ms": _percentiles(replay["warm_seconds"])["p50_ms"],
    }


def _run_serving_load(ctx: BenchContext) -> Mapping[str, float]:
    report = _serve_load(ctx, "smoke_serving_load", **SMOKE_LOAD)
    return {
        "streams_registered": report["streams"]["registered"],
        "rejected_register": report["admission"]["rejected_register"],
        "protocol_errors": report["protocol_errors"],
        "forecasts_succeeded": report["forecasts"]["succeeded"],
        "requests_per_sec": report["workload"]["requests_per_sec"],
        "request_p99_ms": report["latency_ms"]["p99"],
    }


def _run_trace(ctx: BenchContext) -> Mapping[str, float]:
    from repro.datasets.recessions import load_recession
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.registry import make_model
    from repro.observability.tracer import Tracer

    tracer = Tracer()
    fit_least_squares(
        make_model("wei-exp"),
        load_recession("1990-93"),
        options=_capped_options(ctx, trace=tracer),
    )
    return {
        "n_fit_spans": len(tracer.spans_named("fit")),
        "n_spans": len(tracer.spans),
        "null_path_us_per_op": _null_path_seconds_per_op(SMOKE_NULL_OPS) * 1e6,
    }


def _run_table3(ctx: BenchContext) -> Mapping[str, float]:
    from repro.analysis.experiments import table3

    start = time.perf_counter()
    result = table3(options=_capped_options(ctx))
    seconds = time.perf_counter() - start
    totals, _ = _table_counters(result)
    return {
        "table_crc32": zlib.crc32(result.to_table().encode("utf-8")),
        "total_nfev": totals["nfev"],
        "total_njev": totals["njev"],
        "table3_seconds": seconds,
    }


# ----------------------------------------------------------------------
# Full workloads: one BENCH_<suffix>.json snapshot each
# ----------------------------------------------------------------------
def _fit_params(result: Any) -> dict[tuple[str, str], Any]:
    """Every fitted parameter vector of a table, keyed by cell."""
    return {
        (dataset, model): evaluation.fit.model.params
        for dataset, cells in result.cells.items()
        for model, evaluation in cells.items()
    }


def _run_full_fit_engine(ctx: BenchContext) -> Mapping[str, float]:
    """Table III on both solver engines and all three executor backends,
    plus the derived-quantity kernel race.

    Executor-backend speedups are recorded, not checked: on one CPU the
    pooled backends lose to serial, and the snapshot exists to show it.
    """
    from repro.analysis.experiments import table3

    no_cache = ctx.options.override(cache=False)
    backend_seconds: dict[str, float] = {}
    params: dict[str, Any] = {}
    for backend in ("serial", "thread", "process"):
        backend_seconds[backend], result = _best_of(
            1,
            lambda: table3(
                n_random_starts=FULL_STARTS,
                options=no_cache.override(
                    executor=backend, n_workers=FULL_WORKERS
                ),
            ),
        )
        params[backend] = _fit_params(result)
        _check(
            params[backend] == params["serial"],
            f"{backend} backend did not reproduce the serial fits bit-for-bit",
        )

    engine_seconds: dict[str, float] = {}
    tables: dict[str, Any] = {}
    for engine in ("scipy", "batched"):
        engine_seconds[engine], tables[engine] = _best_of(
            2,
            lambda: table3(
                n_random_starts=FULL_STARTS, options=no_cache, engine=engine
            ),
        )
    _check(
        tables["batched"].to_table() == tables["scipy"].to_table(),
        "batched engine did not render the scipy Table III bit-for-bit",
    )
    engine_speedup = engine_seconds["scipy"] / engine_seconds["batched"]
    counters = {name: _table_counters(tables[name])[0] for name in tables}
    kernels = _kernel_race(
        tables["scipy"].cells["1990-93"]["wei-exp"].fit.model, repeats=5
    )
    _check(
        kernels["area_under_curve"]["abs_diff"] < 1e-6
        and kernels["minimum"]["abs_diff"] < 1e-8
        and kernels["recovery_time"]["abs_diff"] < 1e-6,
        f"vectorized kernels disagree with the scalar references: {kernels}",
    )
    _write_artifact(
        "BENCH_fit_engine.json",
        {
            "generated_by": "repro bench run --workload full.fit_engine",
            "workload": f"table3(n_random_starts={FULL_STARTS}): "
            "7 recessions x 4 mixtures",
            "workers": FULL_WORKERS,
            "engines": {
                **{
                    name: {"wall_seconds": engine_seconds[name], **counters[name]}
                    for name in tables
                },
                "speedup_batched_vs_scipy": engine_speedup,
                "tables_bit_identical": True,
            },
            "backend_wall_seconds": backend_seconds,
            "speedup_vs_serial": {
                name: backend_seconds["serial"] / seconds
                for name, seconds in backend_seconds.items()
                if name != "serial"
            },
            "bit_identical_across_backends": True,
            "kernels": kernels,
        },
    )
    # The vectorized AUC kernel replaces hundreds of scalar predict
    # calls with one batched one; short of a large win it regressed to
    # scalar evaluation.
    _check(
        kernels["area_under_curve"]["speedup"] > 5.0,
        "AUC kernel only "
        f"{kernels['area_under_curve']['speedup']:.2f}x faster than scalar",
    )
    # One vectorized LM sweep must decisively beat the per-start scipy
    # solves on one CPU — the batched engine's reason to exist.
    _check(
        engine_speedup >= 5.0,
        f"batched engine only {engine_speedup:.2f}x faster than scipy on "
        "the Table III grid",
    )
    return {
        "scipy_nfev": counters["scipy"]["nfev"],
        "scipy_njev": counters["scipy"]["njev"],
        "batched_nfev": counters["batched"]["nfev"],
        "batched_njev": counters["batched"]["njev"],
        "engine_speedup": engine_speedup,
        "auc_kernel_speedup": kernels["area_under_curve"]["speedup"],
    }


def _run_full_jacobian(ctx: BenchContext) -> Mapping[str, float]:
    """Analytic Jacobians, the fit cache and warm-start chains on Table III.

    Wall numbers are recorded, not checked: the analytic path trades
    residual calls for Jacobian calls, so its wall win depends on how
    expensive a model evaluation is next to its closed-form derivative.
    """
    from repro.analysis.experiments import table3, truncation_grid
    from repro.fitting.cache import FitCache

    no_cache = ctx.options.override(cache=False)
    runs: dict[str, dict[str, Any]] = {}
    tables: dict[str, str] = {}
    for label, jac in (("2-point", "2-point"), ("analytic", "auto")):
        seconds, result = _best_of(
            1,
            lambda: table3(n_random_starts=FULL_STARTS, jac=jac, options=no_cache),
        )
        totals, per_fit = _table_counters(result)
        runs[label] = {"wall_seconds": seconds, **totals, "per_fit": per_fit}
        tables[label] = result.to_table()
    numeric, analytic = runs["2-point"], runs["analytic"]
    # 2-point mode only evaluates the closed form while polishing the
    # winning start; the analytic engine uses it on every iteration.
    _check(
        analytic["njev"] > numeric["njev"],
        "analytic engine evaluated no more Jacobians than 2-point",
    )
    nfev_ratio = numeric["nfev"] / analytic["nfev"]
    _check(
        nfev_ratio >= 3.0,
        f"analytic Jacobians only cut residual evaluations by {nfev_ratio:.2f}x",
    )
    _check(
        tables["analytic"] == tables["2-point"],
        "analytic and finite-difference engines rendered different tables",
    )

    cache = FitCache()
    cached = ctx.options.override(cache=cache)
    cold_seconds, cold = _best_of(
        1, lambda: table3(n_random_starts=FULL_STARTS, options=cached)
    )
    warm_seconds, warm = _best_of(
        1, lambda: table3(n_random_starts=FULL_STARTS, options=cached)
    )
    stats = cache.stats()
    _check(
        stats["hits"] >= TABLE3_CELLS,
        f"warm run should hit for all {TABLE3_CELLS} fits, "
        f"saw {stats['hits']} hits",
    )
    _check(
        warm.to_table() == cold.to_table(),
        "warm cache run did not reproduce the cold table",
    )

    grid_nfev: dict[bool, int] = {}
    for warm_start in (True, False):
        grid = truncation_grid(
            ("wei-exp", "exp-wei"),
            datasets=("1990-93", "2007-09"),
            fractions=(0.7, 0.8, 0.9),
            warm_start=warm_start,
            options=no_cache,
        )
        grid_nfev[warm_start] = sum(
            evaluation.fit.details["nfev"]
            for by_model in grid.cells.values()
            for evaluations in by_model.values()
            for evaluation in evaluations.values()
        )
    _check(
        grid_nfev[True] < grid_nfev[False],
        "warm-start chains should spend fewer residual evaluations than "
        f"cold refits ({grid_nfev[True]} vs {grid_nfev[False]})",
    )
    _write_artifact(
        "BENCH_jacobian.json",
        {
            "generated_by": "repro bench run --workload full.jacobian",
            "workload": f"table3(n_random_starts={FULL_STARTS}): "
            "7 recessions x 4 mixtures",
            "jacobian": {
                **runs,
                "nfev_ratio": nfev_ratio,
                "wall_speedup": numeric["wall_seconds"] / analytic["wall_seconds"],
                "tables_bit_identical": True,
            },
            "cache": {
                "cold_wall_seconds": cold_seconds,
                "warm_wall_seconds": warm_seconds,
                "warm_speedup": cold_seconds / warm_seconds,
                "stats": stats,
                "tables_bit_identical": True,
            },
            "warm_start": {
                "workload": "truncation_grid: 2 recessions x 2 mixtures x "
                "3 fractions",
                "warm_nfev": grid_nfev[True],
                "cold_nfev": grid_nfev[False],
                "nfev_saved_fraction": 1.0 - grid_nfev[True] / grid_nfev[False],
            },
        },
    )
    return {
        "numeric_nfev": numeric["nfev"],
        "analytic_nfev": analytic["nfev"],
        "nfev_ratio": nfev_ratio,
        "cache_hits": stats["hits"],
        "warm_grid_nfev": grid_nfev[True],
        "cold_grid_nfev": grid_nfev[False],
    }


#: Child-process fit for the streaming-memory proof: screen-only,
#: single family — cheap enough to stream the whole store twice while
#: still running the chunked fleet path.
_RSS_SNIPPET = """\
import json, resource, sys
from repro.datasets.store import EpisodeStore
from repro.fitting.fleet import fit_fleet

result = fit_fleet(
    EpisodeStore(sys.argv[1]), ("quadratic",), engine="batched",
    confirm=False, n_random_starts=2, chunk_size=int(sys.argv[2]),
    length_bucket=8,
)
print(json.dumps({
    "n_episodes": result.n_episodes,
    "seconds": result.seconds,
    "episodes_per_sec": result.episodes_per_sec,
    "failed": int(result.failed["quadratic"].sum()),
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def _rss_run(root: Path) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_SNIPPET, str(root), str(FLEET_CHUNK)],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"fleet RSS subprocess failed:\n{proc.stderr[-2000:]}")
    return dict(json.loads(proc.stdout))


def _run_full_fleet(ctx: BenchContext) -> Mapping[str, float]:
    """Per-episode scipy loop vs per-episode batched loop vs
    cross-episode ``fit_fleet``, plus the streaming-memory proof."""
    from repro.datasets.outage import iter_fleet_curves
    from repro.fitting.fleet import fit_fleet
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.registry import make_model

    generate_seconds, store = _best_of(
        1, lambda: _generate(ctx, "full_fleet", FLEET_EPISODES, 8192)
    )
    small = _generate(ctx, "full_fleet_small", FLEET_EPISODES // 5, 8192)
    _check(
        len(store) == FLEET_EPISODES and len(small) == FLEET_EPISODES // 5,
        "fleet generator wrote the wrong number of episodes",
    )
    curves = []
    for curve in iter_fleet_curves(store, FLEET_CHUNK):
        curves.append(curve)
        if len(curves) == FLEET_TIMING:
            break

    options = ctx.options.override(cache=False, executor="serial")
    families = [make_model(name) for name in FLEET_FAMILIES]

    def loop(engine: str) -> list[Any]:
        engine_options = options.override(engine=engine)
        return [
            fit_least_squares(family, curve, options=engine_options)
            for curve in curves
            for family in families
        ]

    fleet_seconds, fleet = _best_of(
        2,
        lambda: fit_fleet(
            curves,
            FLEET_FAMILIES,
            options=options.override(engine="batched"),
            chunk_size=FLEET_TIMING,
            length_bucket=8,
        ),
    )
    batched_seconds, looped = _best_of(2, lambda: loop("batched"))
    # One pass of the slow reference keeps the total wall clock sane.
    scipy_seconds, _ = _best_of(1, lambda: loop("scipy"))
    rates = {
        "scipy_loop": FLEET_TIMING / scipy_seconds,
        "per_episode_batched": FLEET_TIMING / batched_seconds,
        "cross_episode_batched": FLEET_TIMING / fleet_seconds,
    }
    speedup = rates["cross_episode_batched"] / rates["scipy_loop"]

    # Batching across episodes is a performance knob, never a
    # correctness knob: fleet winners equal the looped fits.
    mismatches = 0
    for i in range(FLEET_IDENTITY):
        for j, name in enumerate(FLEET_FAMILIES):
            cell = fleet.fit(i, name)
            loop_fit = looped[i * len(FLEET_FAMILIES) + j]
            if tuple(cell.params) != tuple(loop_fit.params) or cell.sse != loop_fit.sse:
                mismatches += 1
    _check(mismatches == 0, f"{mismatches} fleet cells differ from the loop")

    # Peak RSS at a fixed chunk size is bounded by the chunk, not the
    # fleet: a 5x larger fleet may not double it.
    rss_small = _rss_run(ctx.workdir / "full_fleet_small")
    rss_full = _rss_run(ctx.workdir / "full_fleet")
    _check(
        rss_small["failed"] == 0 and rss_full["failed"] == 0,
        "streaming fleet fit reported failed cells",
    )
    _check(
        rss_full["n_episodes"] == FLEET_EPISODES,
        f"streaming fit saw {rss_full['n_episodes']} of {FLEET_EPISODES} episodes",
    )
    rss_ratio = rss_full["peak_rss_kb"] / rss_small["peak_rss_kb"]
    store_bytes = sum(f.stat().st_size for f in store.root.iterdir())
    # The stores are ~100 MB of scratch; the snapshot keeps their sizes.
    shutil.rmtree(ctx.workdir / "full_fleet")
    shutil.rmtree(ctx.workdir / "full_fleet_small")
    _write_artifact(
        "BENCH_fleet.json",
        {
            "generated_by": "repro bench run --workload full.fleet",
            "workload": (
                f"synthetic outage fleet, {len(FLEET_FAMILIES)}-family grid, "
                f"timing slice {FLEET_TIMING} episodes, RSS proof "
                f"{FLEET_EPISODES} episodes"
            ),
            "fleet": {
                "n_episodes": FLEET_EPISODES,
                "n_samples": store.n_samples,
                "generate_seconds": generate_seconds,
                "generate_episodes_per_sec": FLEET_EPISODES / generate_seconds,
                "store_bytes": store_bytes,
            },
            "engines": {
                "n_timing_episodes": FLEET_TIMING,
                "families": list(FLEET_FAMILIES),
                "episodes_per_sec": rates,
                "wall_seconds": {
                    "scipy_loop": scipy_seconds,
                    "per_episode_batched": batched_seconds,
                    "cross_episode_batched": fleet_seconds,
                },
                "speedup_cross_episode_vs_scipy_loop": speedup,
                "speedup_cross_episode_vs_per_episode": (
                    rates["cross_episode_batched"] / rates["per_episode_batched"]
                ),
                "winners_bit_identical": True,
            },
            "streaming": {
                "chunk_size": FLEET_CHUNK,
                "config": "quadratic only, screen-only, n_random_starts=2",
                "small_fleet": rss_small,
                "full_fleet": rss_full,
                "rss_ratio_for_5x_fleet": rss_ratio,
            },
        },
    )
    _check(
        rss_ratio < 2.0,
        f"peak RSS grew {rss_ratio:.2f}x for a 5x larger fleet — "
        "the chunked reader is not streaming",
    )
    # The headline: stacking episodes into the batched kernel beats the
    # scipy loop by >= 5x on one CPU, and the win comes from crossing
    # episode boundaries, not from per-episode batching alone.
    _check(speedup >= 5.0, f"cross-episode speedup only {speedup:.2f}x")
    _check(
        rates["cross_episode_batched"] > rates["per_episode_batched"],
        "cross-episode fleet fit did not beat the per-episode batched loop",
    )
    return {
        "n_episodes": FLEET_EPISODES,
        "fleet_speedup": speedup,
        "episodes_per_sec": rates["cross_episode_batched"],
        "rss_ratio": rss_ratio,
    }


def _run_full_serving(ctx: BenchContext) -> Mapping[str, float]:
    """Warm incremental refits vs cold refits of the same prefixes."""
    from repro.datasets.recessions import load_recession
    from repro.fitting.cache import FitCache
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.registry import make_model
    from repro.observability import Tracer

    curve = load_recession(SERVING_DATASET)
    tracer = Tracer()
    cache = FitCache()
    replay = _replay_refits(
        curve, ctx.options.override(cache=cache, trace=tracer), SERVING_DATASET
    )
    family = make_model(SERVING_MODEL)
    quiet = ctx.options.override(cache=False, trace=False)
    cold_seconds = [
        _best_of(
            1,
            lambda: fit_least_squares(family, curve.head(length), options=quiet),
        )[0]
        for length in replay["prefix_lengths"]
    ]
    warm = _percentiles(replay["warm_seconds"])
    cold = _percentiles(cold_seconds)
    speedup_p50 = cold["p50_ms"] / warm["p50_ms"]
    forecaster, final = replay["forecaster"], replay["final"]
    stats = dict(forecaster.stats)
    refits = stats["refits_warm"] + stats["refits_cold"] + stats["refits_full"]
    _write_artifact(
        "BENCH_serving.json",
        {
            "dataset": SERVING_DATASET,
            "model": SERVING_MODEL,
            "n_observations": forecaster.n_observations,
            "warm_refit": warm,
            "cold_refit": cold,
            "speedup_p50": speedup_p50,
            "speedup_p95": cold["p95_ms"] / warm["p95_ms"],
            "stats": stats,
            "warm_refit_fraction": stats["refits_warm"] / refits,
            "cache_stats": cache.stats(),
            "metrics": tracer.metrics.snapshot(),
            "finalize_bit_identical": replay["identical"],
            "final_params": [float(v) for v in final.model.params],
            "final_sse": float(final.sse),
        },
    )
    # Warm-starting from the previous optimum instead of re-running the
    # multi-start sweep must pay off at the median.
    _check(
        speedup_p50 >= 3.0,
        f"warm incremental refit p50 only {speedup_p50:.2f}x faster than cold",
    )
    _check(
        replay["identical"],
        f"finalize() diverged from the one-shot fit: {final.model.params}",
    )
    return {
        "refits_warm": stats["refits_warm"],
        "warm_p50_ms": warm["p50_ms"],
        "warm_speedup_p50": speedup_p50,
    }


def _holdout_sse(fit: Any, times: Any, perf: Any) -> float:
    predicted = fit.model.evaluate(
        np.asarray(times, dtype=np.float64), fit.model.params
    )
    return float(np.sum((predicted - np.asarray(perf, dtype=np.float64)) ** 2))


def _remediation_demo(options: EngineOptions) -> dict[str, Any]:
    """Inject one drifting stream and let the remediation loop heal it.

    The incumbent quadratic is fitted on a clean linear decline; the
    outage then plateaus instead of recovering — a shape the
    hyperbolic competing-risks family extrapolates and a bathtub
    parabola cannot.
    """
    from repro.observability.metrics import MetricsRegistry
    from repro.serving import ForecastSession, RefitPolicy, RemediationLoop
    from repro.serving.remediation import RemediationConfig

    session = ForecastSession(
        options=options, family="quadratic", policy=RefitPolicy(every_k=1000)
    )
    rng = np.random.default_rng(SMOKE_SEED)
    head_n, tail_n, floor = 9, 12, 0.2
    for t in range(head_n):
        p = 1.0 - (1.0 - floor) * t / (head_n - 1) + rng.normal(0.0, 5e-3)
        session.observe("drifter", float(t), float(p))
    session["drifter"].refit()
    stale_fit = session["drifter"].fit
    stale_family = session["drifter"].family.name
    for t in range(head_n, head_n + tail_n):
        session.observe("drifter", float(t), float(floor + rng.normal(0.0, 5e-3)))
    drift = session["drifter"].drift()

    loop = RemediationLoop(
        session,
        candidates=("quadratic", "competing_risks", "wei-exp"),
        config=RemediationConfig(drift_threshold=0.25, reselect_threshold=0.5),
        metrics=MetricsRegistry(),
    )
    report = loop.run_cycle()
    outcome = report.outcomes[0]
    # Re-check the verifier's contract from the outside: the adopted
    # fit beats the stale incumbent on the held-out tail.
    curve = session["drifter"].curve
    k = loop.config.holdout_points
    tail = (curve.times[-k:], curve.performance[-k:])
    return {
        "detected": report.detected,
        "adopted": report.adopted,
        "reselected": report.reselected,
        "drift": float(drift),
        "from_family": stale_family,
        "to_family": session["drifter"].family.name,
        "candidate_holdout_sse": outcome.candidate_holdout_sse,
        "incumbent_holdout_sse": outcome.incumbent_holdout_sse,
        "stale_holdout_sse": _holdout_sse(stale_fit, *tail),
        "adopted_holdout_sse": _holdout_sse(session["drifter"].fit, *tail),
    }


def _run_full_service(ctx: BenchContext) -> Mapping[str, float]:
    """10k concurrently registered streams on one asyncio server, plus
    the remediation loop healing an injected drifting stream."""
    report = _serve_load(ctx, "full_service", **SERVICE_LOAD)
    remediation = _remediation_demo(_capped_options(ctx))
    _write_artifact(
        "BENCH_service.json",
        {
            "workload": report["workload"],
            "streams": report["streams"],
            "latency_ms": report["latency_ms"],
            "admission": report["admission"],
            "refits": report["refits"],
            "forecasts": report["forecasts"],
            "protocol_errors": report["protocol_errors"],
            "max_rss_mb": report["max_rss_mb"],
            "remediation": remediation,
        },
    )
    n_streams = SERVICE_LOAD["n_streams"]
    _check(
        report["streams"]["registered"] == n_streams,
        f"only {report['streams']['registered']} of {n_streams} streams registered",
    )
    _check(
        report["max_rss_mb"] < 2048,
        f"peak RSS {report['max_rss_mb']:.0f} MB is not bounded memory",
    )
    admission = report["admission"]
    _check(
        admission["rejected_register"] == admission["reject_probes"],
        "admission control let a register past the full fleet: "
        f"{admission['rejected_register']} of {admission['reject_probes']} "
        "probes rejected",
    )
    _check(
        report["protocol_errors"] == 0,
        f"{report['protocol_errors']} protocol errors",
    )
    forecasts = report["forecasts"]
    _check(
        forecasts["succeeded"] == forecasts["requested"],
        "the 429 retry loop left sampled forecasts unanswered",
    )
    _check(
        remediation["detected"] == 1
        and remediation["reselected"] == 1
        and remediation["to_family"] != remediation["from_family"]
        and remediation["adopted_holdout_sse"] < remediation["stale_holdout_sse"],
        f"remediation did not heal the drifting stream: {remediation}",
    )
    return {
        "streams_registered": report["streams"]["registered"],
        "rejected_register": admission["rejected_register"],
        "protocol_errors": report["protocol_errors"],
        "requests_per_sec": report["workload"]["requests_per_sec"],
        "request_p50_ms": report["latency_ms"]["p50"],
        "request_p99_ms": report["latency_ms"]["p99"],
    }


def _stage_breakdown(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per-span-name aggregation: count, total, mean and max seconds."""
    stages: dict[str, dict[str, float]] = {}
    for span in spans:
        stage = stages.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        stage["count"] += 1
        stage["total_s"] += span["dur_s"]
        stage["max_s"] = max(stage["max_s"], span["dur_s"])
    for stage in stages.values():
        stage["mean_s"] = stage["total_s"] / stage["count"]
    return stages


def _run_full_trace(ctx: BenchContext) -> Mapping[str, float]:
    """Disabled vs traced Table III, the modeled cost of disabled
    tracing, and a traced ``repro table 3`` through the real CLI.

    The traced/disabled wall ratio is recorded, not checked: on one CPU
    a single-run ratio is scheduler noise, so the budget is modeled
    from the null-path cost instead.
    """
    from repro.analysis.experiments import table3
    from repro.cli import main
    from repro.observability.tracer import NULL_TRACER, Tracer, current_tracer

    _check(current_tracer() is NULL_TRACER, "full.trace needs tracing off")
    no_cache = ctx.options.override(cache=False, trace=False)
    disabled_wall, _ = _best_of(
        2, lambda: table3(n_random_starts=FULL_STARTS, options=no_cache)
    )
    tracer = Tracer(path=ctx.workdir / "full_trace_table3.jsonl")
    traced_wall, _ = _best_of(
        1,
        lambda: table3(
            n_random_starts=FULL_STARTS, options=no_cache.replace(trace=tracer)
        ),
    )
    tracer.close()
    spans = tracer.spans
    n_fit_spans = len(tracer.spans_named("fit"))
    _check(
        n_fit_spans == TABLE3_CELLS,
        f"traced Table III emitted {n_fit_spans} fit spans, not {TABLE3_CELLS}",
    )
    # Every span of the traced run stands for at most a handful of
    # guard checks on the disabled path; 4x is generous.
    per_op = _null_path_seconds_per_op(FULL_NULL_OPS)
    modeled = per_op * 4 * len(spans) / disabled_wall
    _check(
        modeled < TRACE_OVERHEAD_BUDGET,
        f"disabled tracing overhead modeled at {modeled:.4%} of the "
        f"Table III workload — exceeds the {TRACE_OVERHEAD_BUDGET:.0%} budget",
    )

    trace_file = ctx.workdir / "full_trace_cli.jsonl"
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        exit_code = main(
            ["table", "3", "--no-cache", "--trace", "--trace-file", str(trace_file)]
        )
    cli_wall = time.perf_counter() - start
    cli_spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    cli_fits = [span for span in cli_spans if span["name"] == "fit"]
    # One fit span per cell, each attributing its solver work (nfev)
    # and its cache outcome.
    _check(
        exit_code == 0
        and "Table III" in out.getvalue()
        and "Trace summary" in err.getvalue(),
        f"traced `repro table 3` failed (exit {exit_code})",
    )
    _check(
        len(cli_fits) >= TABLE3_CELLS
        and all(
            span["attrs"]["nfev"] > 0 and span["attrs"]["cache_hit"] is False
            for span in cli_fits
        )
        and sum(1 for s in cli_spans if s["name"] == "table.grid") == 1
        and sum(1 for s in cli_spans if s["name"] == "fit.start") > TABLE3_CELLS,
        "traced `repro table 3` spans do not attribute every fit",
    )
    _write_artifact(
        "BENCH_trace.json",
        {
            "generated_by": "repro bench run --workload full.trace",
            "workload": f"table3(n_random_starts={FULL_STARTS}, "
            "options=EngineOptions(cache=False)): 7 recessions x 4 mixtures",
            "disabled_wall_seconds": disabled_wall,
            "traced_wall_seconds": traced_wall,
            "traced_over_disabled": traced_wall / disabled_wall,
            "null_path_seconds_per_op": per_op,
            "modeled_disabled_overhead_fraction": modeled,
            "overhead_budget_fraction": TRACE_OVERHEAD_BUDGET,
            "n_spans": len(spans),
            "n_fit_spans": n_fit_spans,
            "stages": _stage_breakdown(spans),
            "cli_table3_trace": {
                "command": "python -m repro table 3 --no-cache --trace "
                "--trace-file <path>  (default start count)",
                "wall_seconds": cli_wall,
                "n_spans": len(cli_spans),
                "n_fit_spans": len(cli_fits),
            },
        },
    )
    return {"n_fit_spans": n_fit_spans, "modeled_overhead": modeled}


register_workload(
    Workload(
        name="smoke.fit_engine",
        runner=_run_fit_engine,
        metrics=(
            MetricSpec("scipy_nfev", kind="counted"),
            MetricSpec("scipy_njev", kind="counted"),
            MetricSpec("batched_nfev", kind="counted"),
            MetricSpec("batched_njev", kind="counted"),
            MetricSpec("params_bit_identical", kind="counted"),
            MetricSpec("scipy_seconds", direction="lower"),
            MetricSpec("batched_seconds", direction="lower"),
            MetricSpec("engine_speedup", direction="higher"),
        ),
        suites=("smoke",),
        description="wei-exp multi-start fit on 1990-93: scipy vs batched "
        "engine, bit-identity + evaluation counters",
    )
)
register_workload(
    Workload(
        name="smoke.kernels",
        runner=_run_kernels,
        metrics=(
            MetricSpec("auc_match", kind="counted"),
            MetricSpec("minimum_match", kind="counted"),
            MetricSpec("auc_speedup", direction="higher"),
            MetricSpec("minimum_speedup", direction="higher"),
        ),
        suites=("smoke",),
        description="vectorized derived-quantity kernels vs scalar "
        "references on a fitted mixture",
    )
)
register_workload(
    Workload(
        name="smoke.fleet",
        runner=_run_fleet,
        metrics=(
            MetricSpec("n_episodes", kind="counted"),
            MetricSpec("failed_cells", kind="counted"),
            MetricSpec("total_nfev", kind="counted"),
            MetricSpec("fit_seconds", direction="lower"),
            MetricSpec("episodes_per_sec", direction="higher"),
        ),
        suites=("smoke",),
        description="64-episode synthetic outage fleet through fit_fleet "
        "on a 2-family grid",
    )
)
register_workload(
    Workload(
        name="smoke.serving",
        runner=_run_serving,
        metrics=(
            MetricSpec("refits_warm", kind="counted"),
            MetricSpec("finalize_bit_identical", kind="counted"),
            MetricSpec("n_observations", kind="counted"),
            MetricSpec("warm_p50_ms", direction="lower"),
        ),
        suites=("smoke",),
        description="1990-93 replay through OnlineForecaster: warm refit "
        "latency + finalize bit-identity",
    )
)
register_workload(
    Workload(
        name="smoke.serving_load",
        runner=_run_serving_load,
        metrics=(
            MetricSpec("streams_registered", kind="counted"),
            MetricSpec("rejected_register", kind="counted"),
            MetricSpec("protocol_errors", kind="counted"),
            MetricSpec("forecasts_succeeded", kind="info"),
            MetricSpec("requests_per_sec", direction="higher"),
            MetricSpec("request_p99_ms", direction="lower"),
        ),
        suites=("smoke",),
        description="200-stream synthetic outage fleet through the asyncio "
        "JSONL server: admission arithmetic + request SLO",
    )
)
register_workload(
    Workload(
        name="smoke.trace",
        runner=_run_trace,
        metrics=(
            MetricSpec("n_fit_spans", kind="counted"),
            MetricSpec("n_spans", kind="info"),
            MetricSpec("null_path_us_per_op", direction="lower"),
        ),
        suites=("smoke",),
        description="span attribution of one traced fit + disabled "
        "instrumentation null-path cost",
    )
)
register_workload(
    Workload(
        name="smoke.table3",
        runner=_run_table3,
        metrics=(
            MetricSpec("table_crc32", kind="counted"),
            MetricSpec("total_nfev", kind="counted"),
            MetricSpec("total_njev", kind="counted"),
            MetricSpec("table3_seconds", direction="lower"),
        ),
        suites=("smoke",),
        description="Table III mixture sweep at 2 starts: rendered-table "
        "CRC + summed evaluation counters",
    )
)
register_workload(
    Workload(
        name="full.fit_engine",
        runner=_run_full_fit_engine,
        metrics=(
            MetricSpec("scipy_nfev", kind="counted"),
            MetricSpec("scipy_njev", kind="counted"),
            MetricSpec("batched_nfev", kind="counted"),
            MetricSpec("batched_njev", kind="counted"),
            MetricSpec("engine_speedup", direction="higher"),
            MetricSpec("auc_kernel_speedup", direction="higher"),
        ),
        description="Table III at 4 starts on both engines and all three "
        "executor backends + kernel race -> BENCH_fit_engine.json",
    )
)
register_workload(
    Workload(
        name="full.jacobian",
        runner=_run_full_jacobian,
        metrics=(
            MetricSpec("numeric_nfev", kind="counted"),
            MetricSpec("analytic_nfev", kind="counted"),
            MetricSpec("nfev_ratio", kind="counted"),
            MetricSpec("cache_hits", kind="counted"),
            MetricSpec("warm_grid_nfev", kind="counted"),
            MetricSpec("cold_grid_nfev", kind="counted"),
        ),
        description="analytic vs 2-point Jacobians, warm fit cache and "
        "warm-start chains on Table III -> BENCH_jacobian.json",
    )
)
register_workload(
    Workload(
        name="full.fleet",
        runner=_run_full_fleet,
        metrics=(
            MetricSpec("n_episodes", kind="counted"),
            MetricSpec("fleet_speedup", direction="higher"),
            MetricSpec("episodes_per_sec", direction="higher"),
            MetricSpec("rss_ratio", direction="lower"),
        ),
        description="100k-episode outage fleet: scipy loop vs cross-episode "
        "fit_fleet + streaming RSS proof -> BENCH_fleet.json",
    )
)
register_workload(
    Workload(
        name="full.serving",
        runner=_run_full_serving,
        metrics=(
            MetricSpec("refits_warm", kind="counted"),
            MetricSpec("warm_p50_ms", direction="lower"),
            MetricSpec("warm_speedup_p50", direction="higher"),
        ),
        description="1990-93 replay: warm incremental refits vs cold refits "
        "of the same prefixes -> BENCH_serving.json",
    )
)
register_workload(
    Workload(
        name="full.service",
        runner=_run_full_service,
        metrics=(
            MetricSpec("streams_registered", kind="counted"),
            MetricSpec("rejected_register", kind="counted"),
            MetricSpec("protocol_errors", kind="counted"),
            MetricSpec("requests_per_sec", direction="higher"),
            MetricSpec("request_p50_ms", direction="lower"),
            MetricSpec("request_p99_ms", direction="lower"),
        ),
        description="10k concurrent streams on the asyncio server + "
        "remediation of a drifting stream -> BENCH_service.json",
    )
)
register_workload(
    Workload(
        name="full.trace",
        runner=_run_full_trace,
        metrics=(
            MetricSpec("n_fit_spans", kind="counted"),
            MetricSpec("modeled_overhead", direction="lower"),
        ),
        description="disabled vs traced Table III, modeled null-path "
        "overhead + traced CLI proof -> BENCH_trace.json",
    )
)


# ----------------------------------------------------------------------
# Script adapters
# ----------------------------------------------------------------------
def _run_script(ctx: BenchContext, script: str) -> Mapping[str, float]:
    """Run one ``benchmarks/`` script under pytest in a subprocess."""
    root = _repo_root()
    path = root / "benchmarks" / script
    if not path.is_file():
        raise BenchError(f"benchmark script {path} does not exist")
    overrides: dict[str, str | None] = {}
    if isinstance(ctx.options.engine, str):
        overrides["REPRO_FIT_ENGINE"] = ctx.options.engine
    if isinstance(ctx.options.executor, str):
        overrides["REPRO_FIT_EXECUTOR"] = ctx.options.executor
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(path),
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=root,
        env=spawn_env(**overrides),
        capture_output=True,
        text=True,
        check=False,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        tail = "\n".join(proc.stdout.splitlines()[-25:])
        raise BenchError(
            f"benchmark script {script} failed (exit {proc.returncode}):\n{tail}"
        )
    return {"passed": 1, "wall_seconds": seconds}


def _make_script_runner(
    script: str,
) -> Callable[[BenchContext], Mapping[str, float]]:
    def runner(ctx: BenchContext) -> Mapping[str, float]:
        return _run_script(ctx, script)

    return runner


for _script in BENCH_SCRIPTS:
    register_workload(
        Workload(
            name=f"scripts.{_script[len('bench_'):-len('.py')]}",
            runner=_make_script_runner(_script),
            metrics=(
                MetricSpec("passed", kind="counted"),
                MetricSpec("wall_seconds", direction="lower"),
            ),
            suites=("scripts",),
            script=_script,
            description=f"benchmarks/{_script} under pytest in a subprocess",
        )
    )
