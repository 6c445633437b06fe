"""The two batch workloads: ``fleet_fit`` and ``paper_tables``.

Both pin ``engine="batched"``, the fit cache off and the serial
executor, so a run measures solves and never cache hits. A run repeats
whole passes of the workload while the next pass still fits in the
time budget (at least one pass), then checks every pass's output. A
traced run alternates untraced and traced passes (at least one of each):
the per-layer metrics come from the traced ones, and the difference of
the two kinds' pass times is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

from run import OUT_DIR, PROBE_REFERENCE_S, PROCESS_START, ROOT, median, peak_rss_mb, speed_probe

FLEET_EPISODES = 128
FLEET_LENGTHS = (32, 40, 48)
FLEET_FAMILIES = ("quadratic", "competing_risks", "wei-exp")
#: Fleet cells re-fitted one by one with ``fit_least_squares`` and
#: compared bit for bit with the fleet result.
SPOT_EPISODES = 2
#: The golden tables' configuration (``tests/test_golden_tables.py``).
GOLDEN_RANDOM_STARTS = 4


class Job(NamedTuple):
    """One prepared workload: ``run_pass`` returns (fits, output);
    ``check`` turns the outputs into (attempted, failed, notes)."""

    run_pass: Callable[[], tuple[int, Any]]
    check: Callable[[list[Any]], tuple[int, int, list[str]]]
    cleanup: Callable[[], None]


def _options() -> Any:
    from repro.fitting.options import EngineOptions

    return EngineOptions(engine="batched", cache=False, executor="serial", trace=False)


def _fleet_digest(result: Any) -> str:
    digest = hashlib.sha256()
    for family in result.families:
        for column in (result.params, result.sse, result.converged, result.failed):
            digest.update(column[family].tobytes())
    return digest.hexdigest()


def prepare_fleet(seed: int, workdir: Path, tracer: Any, trace: bool) -> Job:
    import numpy as np

    from repro.datasets.outage import generate_fleet
    from repro.fitting.fleet import fit_fleet
    from repro.fitting.least_squares import fit_least_squares
    from repro.models.registry import make_model

    options = _options()
    tracer.enabled = trace
    store = generate_fleet(
        FLEET_EPISODES, workdir / "fleet", seed=seed, n_points_choices=FLEET_LENGTHS
    )
    tracer.enabled = False
    # Warm lazy imports and first-call paths on a separate small fleet.
    warm = generate_fleet(
        4, workdir / "warm", seed=seed + 1, n_points_choices=FLEET_LENGTHS
    )
    fit_fleet(warm, FLEET_FAMILIES, options=options)

    def run_pass() -> tuple[int, Any]:
        result = fit_fleet(store, FLEET_FAMILIES, options=options)
        return result.n_episodes * len(result.families), result

    def check(results: list[Any]) -> tuple[int, int, list[str]]:
        attempted = sum(r.n_episodes * len(r.families) for r in results)
        failed = sum(int(np.count_nonzero(r.failed[f])) for r in results for f in r.families)
        notes = [f"fleet cells failed: {failed}"]
        digests = {_fleet_digest(r) for r in results}
        if len(digests) != 1:
            failed += 1
            notes.append("passes disagree on the fleet digest")
        rng = np.random.default_rng(seed)
        episodes = rng.choice(FLEET_EPISODES, size=SPOT_EPISODES, replace=False)
        mismatches = 0
        for episode in (int(e) for e in episodes):
            curve = store.episode(episode)
            for family in FLEET_FAMILIES:
                attempted += 1
                single = fit_least_squares(make_model(family), curve, options=options)
                cell = results[0].fit(episode, family)
                if single.model.params != cell.params or single.sse != cell.sse:
                    mismatches += 1
        failed += mismatches
        notes.append(
            f"spot check: {SPOT_EPISODES * len(FLEET_FAMILIES)} cells vs "
            f"fit_least_squares, {mismatches} mismatched; digest {digests.pop()[:16]}"
        )
        return attempted, failed, notes

    return Job(run_pass, check, lambda: shutil.rmtree(workdir, ignore_errors=True))


def prepare_tables(seed: int, workdir: Path, tracer: Any, trace: bool) -> Job:
    import numpy as np

    from repro.analysis import experiments

    options = _options()
    golden = {
        number: (ROOT / "tests" / "golden" / f"table{number}.txt").read_text()
        for number in (1, 2, 3, 4)
    }
    # The tables' inputs are the paper's bundled datasets; the seed only
    # orders the tables within a pass.
    order = [int(n) for n in np.random.default_rng(seed).permutation([1, 2, 3, 4])]
    # Load the datasets and warm lazy imports on the two cheap tables.
    experiments.table1(n_random_starts=GOLDEN_RANDOM_STARTS, options=options)
    experiments.table2(n_random_starts=GOLDEN_RANDOM_STARTS, options=options)

    def run_pass() -> tuple[int, Any]:
        fits = 0
        rendered = {}
        for number in order:
            table = getattr(experiments, f"table{number}")(
                n_random_starts=GOLDEN_RANDOM_STARTS, options=options
            )
            if hasattr(table, "cells"):
                fits += sum(len(by_model) for by_model in table.cells.values())
            else:
                fits += len(table.reports)
            rendered[number] = table.to_table() + "\n"
        return fits, rendered

    def check(passes: list[Any]) -> tuple[int, int, list[str]]:
        attempted = 4 * len(passes)
        bad = sorted({n for rendered in passes for n in rendered if rendered[n] != golden[n]})
        failed = sum(rendered[n] != golden[n] for rendered in passes for n in rendered)
        note = "tables byte-identical to tests/golden" if not bad else f"tables differ: {bad}"
        return attempted, failed, [note]

    return Job(run_pass, check, lambda: None)


PREPARE = {"fleet_fit": prepare_fleet, "paper_tables": prepare_tables}


def setup_only(workload: str, seed: int) -> float:
    """Seconds from process start until the workload is ready to time."""
    import tracing

    tracer = tracing.Tracer()
    tracer.enabled = False
    job = PREPARE[workload](seed, OUT_DIR / f"{workload}-{seed}-setup", tracer, False)
    ready = time.perf_counter()
    job.cleanup()
    return ready - PROCESS_START


def run_batch(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import tracing

    tracer = tracing.Tracer()
    tracer.enabled = False
    if trace:
        # Import every module the workload touches, then patch them.
        import repro.analysis.experiments  # noqa: F401
        import repro.fitting.fleet  # noqa: F401

        tracing.install(tracer)
    workdir = OUT_DIR / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    job = PREPARE[workload](seed, workdir, tracer, trace)
    setup_s = time.perf_counter() - PROCESS_START

    walls: list[float] = []
    fits: list[int] = []
    outputs: list[Any] = []
    traced: list[tuple[float, float] | None] = []  # each pass's window if traced
    # Speed probes around every pass, outside the pass windows.
    probes = [speed_probe()]
    begin = time.perf_counter()
    try:
        while True:
            tracer.enabled = trace and len(walls) % 2 == 1
            t0 = time.perf_counter()
            count, output = job.run_pass()
            t1 = time.perf_counter()
            traced.append((t0, t1) if tracer.enabled else None)
            tracer.enabled = False
            walls.append(t1 - t0)
            probes.append(speed_probe())
            fits.append(count)
            outputs.append(output)
            enough = len(walls) >= (2 if trace else 1)
            if enough and time.perf_counter() - begin + median(walls) > seconds:
                break
        attempted, failed, notes = job.check(outputs)
    finally:
        job.cleanup()

    # Each pass at reference speed, from the probes on either side of it.
    scaled = [
        wall * 2 * PROBE_REFERENCE_S / (before + after)
        for wall, before, after in zip(walls, probes, probes[1:])
    ]
    end_to_end = {
        "setup_s": setup_s,
        "fits_per_s": median([n / w for n, w in zip(fits, scaled)]),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = [
        f"workload {workload}: seed {seed}, {len(walls)} timed pass(es) of {fits[0]} fits",
        f"pass walls {', '.join(f'{w:.3f}s' for w in walls)}; at reference speed "
        f"{', '.join(f'{w:.3f}s' for w in scaled)} (speed probes "
        f"{', '.join(f'{p:.4f}s' for p in probes)})",
        *notes,
    ]
    per_layer: dict[str, float] = {}
    if trace:
        windows = [w for w in traced if w]
        plain = median([t for t, w in zip(scaled, traced) if not w])
        overhead = median([t for t, w in zip(scaled, traced) if w]) / plain - 1.0
        report.append(
            f"traced passes {sum(map(bool, traced))} of {len(traced)}; "
            f"tracing overhead {100 * overhead:+.1f}% of the untraced pass time"
        )
        per_layer = tracing.summarize(tracer, threading.get_ident(), windows, overhead)
        if per_layer["fitting.cache.lookups"]:
            failed += 1
            report.append("fit cache was consulted although it is off")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "report": report,
        "setup_probe_s": probes[0],
    }
