"""The least-squares fitting engine (Eq. 8).

``fit_least_squares`` minimizes ``Σᵢ (R(tᵢ) − P(tᵢ))²`` over the
model's bounded parameter space by multi-start least squares and keeps
the best optimum.

Every multi-start solve — one fit here, every fit of a grid
(:func:`fit_many`, the table sweeps, the episode scorecard, the serving
refit tick), or every ``(episode, family)`` cell of
:func:`~repro.fitting.fleet.fit_fleet` — goes through one core.
``_fit_requests`` turns a list of fit requests into results in one
call: ``_plan_cell`` validates each request and builds its cell, and
``_solve_cells`` looks each cell up in the
:class:`~repro.fitting.cache.FitCache`, *screens* the remaining cells'
starts in one go, and reduces each cell through ``_select_and_confirm``.
Parallelism lives in ``_solve_cells`` alone: the per-cell reduce runs
on the call's :class:`~repro.parallel.FitExecutor`, results in input
order, and no pool is built for a single pending cell. The screen
depends on the engine:

* ``engine="scipy"`` solves every start with scipy's
  trust-region-reflective least squares, in order, inside the cell's
  reduce. This is the golden-table oracle.
* ``engine="batched"`` stacks every start of every cell into one call
  of the :mod:`repro.fitting.batched` Levenberg–Marquardt kernel, in
  the calling thread, which advances them in lockstep. The kernel only
  ranks starts: the winning start is then re-solved by scipy from its
  original x0 in the cell's reduce, so the final optimum is the exact
  scipy trajectory and rendered tables are byte-identical under both
  engines. A cell with a single start has nothing to rank and goes
  straight to that scipy solve.

Families that expose
:meth:`~repro.models.base.ResilienceModel.prediction_jacobian` in
closed form (the quadratic, the Hjorth competing-risks model, and all
Exp/Weibull mixtures under every trend) hand both engines an exact
Jacobian instead of finite differences, cutting residual evaluations by
roughly the parameter count.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import optimize

from repro.core.curve import ResilienceCurve
from repro.exceptions import ConvergenceError, FitError
from repro.fitting.batched import (
    _PENALTY_SCALE,
    BatchedProblem,
    resolve_engine,
    solve_batched,
)
from repro.fitting.cache import FitCache, fit_cache_key, resolve_cache
from repro.fitting.multistart import generate_starts
from repro.fitting.options import (
    DEFAULT_ENGINE_OPTIONS as DEFAULT_OPTIONS,
    EngineOptions,
)
from repro.fitting.result import FitResult
from repro.models.base import ResilienceModel
from repro.observability.tracer import activate, resolve_tracer
from repro.parallel import ExecutorLike, get_executor

__all__ = ["fit_least_squares", "fit_many", "FitManyResult"]

logger = logging.getLogger("repro.fitting")

#: Relative SSE band for multi-start winner selection. Several starts
#: routinely converge into the *same* basin, where their objectives
#: agree to last-ulp noise (~1e-14 relative in practice); a strict
#: argmin would let that noise pick the winner — and let two solver
#: engines or Jacobian modes disagree about it. Instead the winner is
#: the earliest start whose SSE lies within this band of the best,
#: which is stable under any perturbation smaller than the band.
#: Distinct local optima in these families are separated by many orders
#: of magnitude more than this, so the rule never crosses basins.
_REDUCE_RTOL = 1e-8


def _penalty_value(vector: np.ndarray) -> float:
    """Smoothly increasing replacement for non-finite residuals.

    The penalty is ``scale·(1 + ‖θ‖)`` rather than a constant: a
    constant plateau has zero gradient everywhere, so once a
    trust-region step lands in a non-finite pocket the optimizer sees a
    flat landscape and stalls there. The ‖θ‖ term restores a slope
    pointing back toward the origin (feasible vectors in every family
    are bounded well below the scales that overflow), letting the
    solver walk out of the pocket.
    """
    return _PENALTY_SCALE * (1.0 + float(np.linalg.norm(vector)))


def _penalty_gradient(vector: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_penalty_value` with respect to θ."""
    norm = float(np.linalg.norm(vector))
    if norm < 1e-12:
        return np.zeros_like(vector)
    return (_PENALTY_SCALE / norm) * np.asarray(vector, dtype=np.float64)


class _StartOutcome(NamedTuple):
    """Per-start optimizer outcome; ``vector`` is None when the start
    raised or produced a non-finite objective. ``seconds`` is the
    start's wall time, measured inside the solve so the caller can
    trace it. The fields match
    :class:`~repro.fitting.batched.BatchedOutcome`, so both engines'
    outcomes reduce and cache alike; a scipy solve runs no LM
    iterations of the kernel."""

    sse: float
    vector: tuple[float, ...] | None
    message: str
    converged: bool
    nfev: int
    njev: int
    seconds: float
    n_iterations: int = 0


def _solve_start(
    family: ResilienceModel,
    curve: ResilienceCurve,
    x0: tuple[float, ...],
    lower_bounds: tuple[float, ...],
    upper_bounds: tuple[float, ...],
    max_nfev: int,
    sqrt_weights: tuple[float, ...] | None,
    jac_mode: str,
) -> _StartOutcome:
    """Run one bounded least-squares solve from the start *x0*.

    The residual-evaluation counter lives here rather than trusting
    ``solution.nfev``: scipy's trf does *not* count the residual calls
    its 2-point Jacobian makes, so the reported number would flatter the
    finite-difference mode. Counting inside the closures makes the
    analytic-vs-FD comparison honest.
    """
    t0 = time.perf_counter()
    lower = np.asarray(lower_bounds, dtype=np.float64)
    upper = np.asarray(upper_bounds, dtype=np.float64)
    weights = (
        None if sqrt_weights is None else np.asarray(sqrt_weights, dtype=np.float64)
    )
    counters = {"nfev": 0, "njev": 0}

    def objective(vector: np.ndarray) -> np.ndarray:
        counters["nfev"] += 1
        residuals = family.residuals(curve, vector)
        bad = ~np.isfinite(residuals)
        if bad.any():
            residuals = np.where(bad, _penalty_value(vector), residuals)
        if weights is not None:
            residuals = residuals * weights
        return residuals

    def analytic_jac(vector: np.ndarray) -> np.ndarray:
        counters["njev"] += 1
        jac = -family.prediction_jacobian(curve.times, vector)
        predictions = family.evaluate(curve.times, vector)
        bad = ~np.isfinite(predictions)
        if bad.any():
            # Match the objective: penalized rows get the penalty's
            # gradient so the solver still sees a downhill direction.
            jac[bad, :] = _penalty_gradient(vector)
        jac = np.where(np.isfinite(jac), jac, 0.0)
        if weights is not None:
            jac = jac * weights[:, np.newaxis]
        return jac

    jac_arg: Any = analytic_jac if jac_mode == "analytic" else "2-point"
    start = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
    try:
        solution = optimize.least_squares(
            objective,
            start,
            jac=jac_arg,
            bounds=(lower, upper),
            method="trf",
            max_nfev=max_nfev,
            # Far below the 8-decimal precision tables are rendered at,
            # so the analytic and finite-difference Jacobian modes stop
            # at the same optimum and render identical artifacts.
            ftol=1e-12,
            xtol=1e-12,
            gtol=1e-12,
        )
    except (ValueError, FloatingPointError):
        return _StartOutcome(
            float("nan"), None, "", False, counters["nfev"], counters["njev"],
            time.perf_counter() - t0,
        )
    sse = float(2.0 * solution.cost)  # cost is 0.5 * sum(residual²)
    if not np.isfinite(sse):
        return _StartOutcome(
            sse, None, "", False, counters["nfev"], counters["njev"],
            time.perf_counter() - t0,
        )
    return _StartOutcome(
        sse,
        tuple(float(v) for v in solution.x),
        str(solution.message),
        bool(solution.success),
        counters["nfev"],
        counters["njev"],
        time.perf_counter() - t0,
    )


class _WinnerSelection(NamedTuple):
    """Outcome of the reduce → confirm → polish pipeline for one cell."""

    sse: float
    vector: tuple[float, ...]
    message: str
    converged: bool
    winner_index: int
    failures: int
    confirm_nfev: int
    confirm_njev: int
    polish_nfev: int
    polish_njev: int


def _select_and_confirm(
    family: ResilienceModel,
    curve: ResilienceCurve,
    start_vectors: Sequence[tuple[float, ...]],
    outcomes: Sequence[Any],
    *,
    lower: tuple[float, ...],
    upper: tuple[float, ...],
    max_nfev: int,
    sqrt_weights: tuple[float, ...] | None,
    jac_mode: str,
    engine_mode: str,
    tracer: Any,
) -> _WinnerSelection:
    """Reduce multi-start *outcomes* to the final optimum.

    Reduction happens in start order, whichever engine produced the
    outcomes. The winner is the earliest start whose SSE lies within the
    ``_REDUCE_RTOL`` band of the best (see the constant's rationale),
    not the strict argmin.
    Under ``engine_mode == "batched"`` the winning start is then
    re-solved by scipy from its original x0 (the screen-then-confirm
    contract), and 2-point winners of analytic families are polished.

    *curve* and *sqrt_weights* describe the problem the confirmation
    solves run on; the fleet engine screens padded copies of an episode
    but confirms on the original, which is valid because zero-weight
    padding rows contribute exactly nothing to the screened objective.

    Raises
    ------
    ConvergenceError
        If every start failed to produce a finite optimum.
    """
    failures = 0
    min_sse = np.inf
    for outcome in outcomes:
        if outcome.vector is None:
            failures += 1
        elif outcome.sse < min_sse:
            min_sse = outcome.sse

    if not np.isfinite(min_sse):
        raise ConvergenceError(
            f"all {len(start_vectors)} starts failed fitting "
            f"{family.name!r} to {curve.name or '<curve>'}"
        )
    threshold = min_sse + _REDUCE_RTOL * abs(min_sse)
    winner_index = next(
        index
        for index, outcome in enumerate(outcomes)
        if outcome.vector is not None and outcome.sse <= threshold
    )
    winner = outcomes[winner_index]
    assert winner.vector is not None  # the generator above filters failures
    best_sse = float(winner.sse)
    best_vector: tuple[float, ...] = winner.vector
    best_message = winner.message
    best_converged = winner.converged

    # The batched kernel only *screens* the starts: it finds the basin
    # and ranks the candidates, but its iterates are not scipy's. Each
    # in-band candidate is re-solved by scipy from its original x0, in
    # start order, until one lands back inside the band — that solve is
    # the exact trajectory the scipy engine would have produced for the
    # same start, so rendered artifacts are byte-identical. (The loop,
    # rather than a single confirmation, covers the rare start whose
    # batched iterates and scipy iterates descend into different
    # basins; in the common case exactly one solve runs.)
    confirm_nfev = 0
    confirm_njev = 0
    if engine_mode == "batched":
        chosen: _StartOutcome | None = None
        fallback: _StartOutcome | None = None
        for index, outcome in enumerate(outcomes):
            if outcome.vector is None or outcome.sse > threshold:
                continue
            confirm = _solve_start(
                family, curve, start_vectors[index], lower, upper,
                max_nfev, sqrt_weights, jac_mode,
            )
            confirm_nfev += confirm.nfev
            confirm_njev += confirm.njev
            if tracer.enabled:
                tracer.record(
                    "fit.confirm",
                    confirm.seconds,
                    index=index,
                    nfev=confirm.nfev,
                    njev=confirm.njev,
                    converged=confirm.converged,
                )
            if confirm.vector is None:
                continue
            if fallback is None or confirm.sse < fallback.sse:
                fallback = confirm
            if confirm.sse <= threshold:
                chosen = confirm
                winner_index = index
                break
        if chosen is None:
            # scipy never reached the screened basin from any in-band
            # x0; restart it from the screened optimum itself so the
            # result is still a scipy-converged point, and keep the
            # best confirmation if that somehow does better.
            rescue = _solve_start(
                family, curve, best_vector, lower, upper, max_nfev,
                sqrt_weights, jac_mode,
            )
            confirm_nfev += rescue.nfev
            confirm_njev += rescue.njev
            contenders = [
                o for o in (fallback, rescue) if o is not None and o.vector is not None
            ]
            if contenders:
                chosen = min(contenders, key=lambda o: o.sse)
        if chosen is not None:
            best_sse = chosen.sse
            best_vector = chosen.vector
            best_message = chosen.message
            best_converged = chosen.converged

    # Forward differences cannot localize the optimum below their own
    # noise floor (~√eps relative in the parameters), so a pure 2-point
    # run would disagree with the analytic engine in the last rendered
    # digit. Polishing the winner with the closed form — when the family
    # has one — makes the final optimum independent of the exploration
    # mode; the polish cost is counted in nfev/njev like everything else.
    # The rule is engine-independent: the batched winner was already
    # re-solved by scipy above, so it polishes under exactly the same
    # condition the scipy path does.
    polish_nfev = 0
    polish_njev = 0
    needs_polish = jac_mode == "2-point" and family.has_analytic_jacobian
    if needs_polish:
        polish = _solve_start(
            family, curve, best_vector, lower, upper, max_nfev,
            sqrt_weights, "analytic",
        )
        polish_nfev, polish_njev = polish.nfev, polish.njev
        if tracer.enabled:
            tracer.record(
                "fit.polish",
                polish.seconds,
                nfev=polish.nfev,
                njev=polish.njev,
                converged=polish.converged,
            )
        if polish.vector is not None and polish.sse <= best_sse:
            best_sse = polish.sse
            best_vector = polish.vector
            best_message = polish.message
            best_converged = polish.converged

    return _WinnerSelection(
        sse=best_sse,
        vector=best_vector,
        message=best_message,
        converged=best_converged,
        winner_index=int(winner_index),
        failures=failures,
        confirm_nfev=confirm_nfev,
        confirm_njev=confirm_njev,
        polish_nfev=polish_nfev,
        polish_njev=polish_njev,
    )


class _Cell(NamedTuple):
    """One ``(family, curve)`` multi-start problem for :func:`_solve_cells`.

    ``screen`` optionally replaces the cell's own ``(times, targets,
    sqrt_weights)`` for the batched screen only: the fleet pads ragged
    episodes with zero-weight rows so they share a kernel group. Zero
    weights add exactly nothing to the screened objective, so reduction
    and confirmation run on ``curve`` and ``sqrt_weights`` as given.
    """

    family: ResilienceModel
    curve: ResilienceCurve
    start_vectors: list[tuple[float, ...]]
    sqrt_weights: tuple[float, ...] | None
    jac_mode: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    max_nfev: int
    screen: (
        tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...] | None] | None
    ) = None


class _CellSolve(NamedTuple):
    """One cell's result: per-start outcomes in start order, and the
    selection — or, when every start failed, the error instead."""

    outcomes: Sequence[Any]
    selection: _WinnerSelection | None
    error: ConvergenceError | None
    cache_hit: bool

    def totals(self) -> tuple[int, int]:
        """``(nfev, njev)`` over screen, confirm and polish."""
        chosen = self.selection
        assert chosen is not None
        return (
            sum(o.nfev for o in self.outcomes) + chosen.confirm_nfev + chosen.polish_nfev,
            sum(o.njev for o in self.outcomes) + chosen.confirm_njev + chosen.polish_njev,
        )


def _cell_cache_key(cell: _Cell, engine_mode: str, confirm: bool) -> str:
    """Content address of one cell's solve.

    The key covers every input of the solve, the start vectors
    themselves included. It also covers the screen's length: a padded
    screen ranks the same starts as an unpadded one but its per-start
    diagnostics differ, so the two never serve each other.
    """
    return fit_cache_key(
        cell.family,
        cell.curve,
        {
            # Engine-versioned so the two solvers never cross-serve
            # entries (their per-start diagnostics differ even though
            # the polished optimum does not).
            "engine": "batched_lm.v2" if engine_mode == "batched" else "least_squares.v3",
            "confirm": confirm,
            "starts": [list(start) for start in cell.start_vectors],
            "sqrt_weights": cell.sqrt_weights,
            "jac": cell.jac_mode,
            "max_nfev": cell.max_nfev,
            "screen_length": len(cell.screen[0]) if cell.screen else len(cell.curve),
        },
    )


def _solve_from_record(record: dict[str, Any]) -> _CellSolve:
    """A cached cell solve (JSON stores vectors as lists)."""
    outcomes = [
        _StartOutcome(**{**o, "vector": None if o["vector"] is None else tuple(o["vector"])})
        for o in record["outcomes"]
    ]
    fields = record["selection"]
    selection = _WinnerSelection(**{**fields, "vector": tuple(fields["vector"])})
    return _CellSolve(outcomes, selection, None, True)


class _CellWork(NamedTuple):
    """Picklable input of :func:`_reduce_cell`: a cell, its screened
    outcomes (``None``: solve its starts with scipy), whether to confirm
    the screen, the call's engine and tracer (the null tracer across a
    process boundary)."""

    cell: _Cell
    outcomes: Sequence[Any] | None
    confirm: bool
    engine_mode: str
    tracer: Any


def _trace_fit(
    tracer: Any,
    cell: _Cell,
    solve: _CellSolve,
    engine_mode: str,
    seconds: float,
    span: Any = None,
) -> None:
    """Attribute one cell to the open ``"fit"`` *span* of its reduce, or
    record one for a cache hit; count the metrics of a solved fit."""
    attrs: dict[str, Any] = {
        "family": cell.family.name,
        "curve": cell.curve.name or "<curve>",
        "n_points": len(cell.curve),
    }
    selection = solve.selection
    if selection is None:
        attrs["error"] = type(solve.error).__name__
    else:
        nfev, njev = solve.totals()
        attrs.update(
            sse=_reported_sse(cell, selection),
            converged=selection.converged,
            n_starts=len(cell.start_vectors),
            n_failures=selection.failures,
            nfev=nfev,
            njev=njev,
            jac_mode=cell.jac_mode,
            engine=engine_mode,
            cache_hit=solve.cache_hit,
        )
        tracer.metrics.inc("fit.count")
        tracer.metrics.inc("fit.nfev", nfev)
        tracer.metrics.inc("fit.njev", njev)
        tracer.metrics.observe("fit.seconds", seconds)
    if span is None:
        tracer.record("fit", seconds, **attrs)
    else:
        span.set(**attrs)


def _reported_sse(cell: _Cell, selection: _WinnerSelection) -> float:
    """The Eq. (9) SSE: selection used the weighted objective, but the
    unweighted SSE keeps results comparable across weightings."""
    if cell.sqrt_weights is None:
        return selection.sse
    return cell.family.sse(cell.curve, selection.vector)


def _reduce_cell(work: _CellWork) -> _CellSolve:
    """One pending cell's own work, traced as one ``"fit"`` span: its
    in-order scipy starts (when unscreened), then
    :func:`_select_and_confirm`. Module-level so the process backend
    can pickle it."""
    cell, tracer = work.cell, work.tracer
    start_time = time.perf_counter()
    with tracer.span("fit") as span:
        outcomes = work.outcomes or [
            _solve_start(
                cell.family, cell.curve, start, cell.lower, cell.upper,
                cell.max_nfev, cell.sqrt_weights, cell.jac_mode,
            )
            for start in cell.start_vectors
        ]
        if tracer.enabled:
            for start_index, outcome in enumerate(outcomes):
                tracer.record(
                    "fit.start",
                    outcome.seconds,
                    index=start_index,
                    sse=outcome.sse,
                    nfev=outcome.nfev,
                    njev=outcome.njev,
                    converged=outcome.converged,
                    failed=outcome.vector is None,
                )
                tracer.metrics.observe("fit.start_seconds", outcome.seconds)
        try:
            selection = _select_and_confirm(
                cell.family, cell.curve, cell.start_vectors, outcomes,
                lower=cell.lower, upper=cell.upper, max_nfev=cell.max_nfev,
                sqrt_weights=cell.sqrt_weights, jac_mode=cell.jac_mode,
                engine_mode="batched" if work.confirm else "scipy",
                tracer=tracer,
            )
        except ConvergenceError as exc:
            solve = _CellSolve(outcomes, None, exc, False)
        else:
            solve = _CellSolve(outcomes, selection, None, False)
        if tracer.enabled:
            _trace_fit(
                tracer, cell, solve, work.engine_mode,
                time.perf_counter() - start_time, span,
            )
    return solve


def _solve_cells(
    cells: Sequence[_Cell],
    *,
    engine_mode: str,
    cache: FitCache | None,
    tracer: Any,
    executor: ExecutorLike,
    n_workers: int | None,
    confirm: bool = True,
) -> list[_CellSolve]:
    """Solve every cell: cache lookup, one screen, per-cell reduction.

    Cells found in *cache* are returned as stored. Under ``engine_mode
    == "batched"`` the rest are screened in the calling thread by one
    :func:`~repro.fitting.batched.solve_batched` call over every start
    of every cell (a one-start cell has nothing to rank and skips it).
    Each pending cell is then reduced by :func:`_reduce_cell` on
    ``get_executor(executor, max_workers=n_workers)``, which is not
    built for a single pending cell. ``confirm=False`` reports the
    screened optima without the scipy confirmation. Results come back
    in cell order.
    """
    solves: list[_CellSolve | None] = [None] * len(cells)
    keys: list[str | None] = [None] * len(cells)
    for index, cell in enumerate(cells):
        if cache is None:
            break
        start_time = time.perf_counter()
        keys[index] = key = _cell_cache_key(cell, engine_mode, confirm)
        record = cache.get(key)
        if tracer.enabled:
            tracer.metrics.inc("cache.hits" if record is not None else "cache.misses")
        if record is not None:
            solves[index] = solve = _solve_from_record(record)
            if tracer.enabled:
                _trace_fit(
                    tracer, cell, solve, engine_mode, time.perf_counter() - start_time
                )
    pending = [index for index, solve in enumerate(solves) if solve is None]
    screened = [
        index
        for index in pending
        if engine_mode == "batched" and len(cells[index].start_vectors) > 1
    ]

    outcomes: dict[int, Sequence[Any]] = {}
    if screened:
        problems: list[BatchedProblem] = []
        for index in screened:
            cell = cells[index]
            times, targets, sqrt_weights = cell.screen or (
                tuple(float(v) for v in cell.curve.times),
                tuple(float(v) for v in cell.curve.performance),
                cell.sqrt_weights,
            )
            problems.extend(
                BatchedProblem(
                    cell.family, times, targets, start, cell.lower, cell.upper,
                    cell.max_nfev, sqrt_weights, cell.jac_mode,
                )
                for start in cell.start_vectors
            )
        flat = iter(solve_batched(problems))
        for index in screened:
            outcomes[index] = [next(flat) for _ in cells[index].start_vectors]

    work = [
        _CellWork(
            cells[index], outcomes.get(index), confirm and index in outcomes,
            engine_mode, tracer,
        )
        for index in pending
    ]
    if len(work) > 1:
        reduced = get_executor(executor, max_workers=n_workers).map(_reduce_cell, work)
    else:
        reduced = [_reduce_cell(unit) for unit in work]
    for index, solve in zip(pending, reduced):
        solves[index] = solve
        key = keys[index]
        if cache is not None and key is not None and solve.selection is not None:
            cache.put(
                key,
                {
                    "outcomes": [o._asdict() for o in solve.outcomes],
                    "selection": solve.selection._asdict(),
                },
            )
    return [solve for solve in solves if solve is not None]


def _resolve_jac_mode(family: ResilienceModel, jac: str) -> str:
    """Map the user-facing ``jac=`` choice (already validated by
    :class:`~repro.fitting.options.EngineOptions`) onto a concrete mode."""
    if jac == "auto":
        return "analytic" if family.has_analytic_jacobian else "2-point"
    if jac == "analytic" and not family.has_analytic_jacobian:
        raise FitError(
            f"family {family.name!r} has no analytic Jacobian; "
            f"use jac='auto' or jac='2-point'"
        )
    return jac


def fit_least_squares(
    family: ResilienceModel,
    curve: ResilienceCurve,
    *,
    options: EngineOptions | None = None,
    n_random_starts: int | None = None,
    seed: int | None = None,
    max_nfev: int | None = None,
    starts: Sequence[Sequence[float]] | None = None,
    extra_starts: Sequence[Sequence[float]] | None = None,
    weights: Sequence[float] | None = None,
    jac: str | None = None,
    engine: str | None = None,
) -> FitResult:
    """Fit *family* to *curve* by bounded least squares.

    Parameters
    ----------
    family:
        Unbound model family (e.g. ``QuadraticResilienceModel()``).
    curve:
        Empirical curve; typically the training prefix from
        :meth:`~repro.core.curve.ResilienceCurve.train_test_split`.
    options:
        An :class:`~repro.fitting.options.EngineOptions` bundle holding
        the engine knobs in one value. Any science kwarg below that is
        passed explicitly overrides the corresponding options field;
        fields left at their defaults behave exactly like omitting the
        kwarg. The bundle is the only way to configure the plumbing:
        ``cache`` (``None``/``True`` use the environment-default
        :class:`~repro.fitting.cache.FitCache`, ``False`` bypasses it;
        hits are bit-identical with ``details["cache_hit"] = True``) and
        ``trace`` (when enabled, the fit emits one ``"fit"`` span with
        nfev/njev/jac-mode/cache-hit attribution plus one
        ``"fit.start"`` span per multi-start solve). Its ``executor``
        and ``n_workers`` do not apply to a single fit, whose starts
        always run in order in the calling thread.
    n_random_starts:
        Perturbed variants per heuristic seed (see
        :func:`~repro.fitting.multistart.generate_starts`). 0 uses only
        the heuristic seeds.
    seed:
        Random-stream seed for start generation; ``None`` uses the
        library default (fits are deterministic either way).
    max_nfev:
        Function-evaluation budget per start.
    starts:
        Explicit starting vectors; overrides generation entirely.
    extra_starts:
        Additional heuristic start vectors *prepended* to the start
        list (clipped to bounds, deduplicated). Used by warm-started
        sweeps to inject the neighbouring cell's optimum without
        discarding the family's own seeds.
    weights:
        Optional per-observation weights ``wᵢ`` turning Eq. (8) into
        weighted least squares ``Σ wᵢ(R(tᵢ) − P(tᵢ))²`` — e.g. inverse
        variances for heteroscedastic telemetry, or zeros to mask
        outliers. Must be non-negative, same length as the curve. The
        reported :attr:`FitResult.sse` remains the *unweighted* Eq. (9)
        value so it stays comparable across weightings.
    jac:
        Jacobian strategy: ``"auto"`` (closed form when the family has
        one, else finite differences — the default), ``"analytic"``
        (require the closed form; raises if unavailable), or
        ``"2-point"`` (force scipy's forward differences during
        exploration; the winning start is still polished with the
        closed form when one exists, so the fitted optimum does not
        depend on the mode).
    engine:
        Solver engine: ``"scipy"`` (one ``optimize.least_squares`` call
        per start — the golden-table oracle) or ``"batched"`` (the
        :mod:`repro.fitting.batched` vectorized Levenberg–Marquardt
        kernel, which screens all starts in one stacked solve and then
        re-solves the winning start with scipy from its original x0,
        so rendered artifacts are byte-identical under both engines; a
        single start has nothing to screen and is solved by scipy).
        ``None`` defers to
        ``options.engine`` and then the ``REPRO_FIT_ENGINE``
        environment variable (default ``"scipy"``).

    Returns
    -------
    FitResult
        With the model bound to the lowest-SSE optimum across starts
        (lowest weighted SSE when *weights* are given). ``details``
        records the per-start and total residual/Jacobian evaluation
        counts (``nfev``/``njev``), the resolved ``jac_mode``, and
        whether the result came from cache.

    Raises
    ------
    FitError
        If the curve contains non-finite values or fewer observations
        than parameters, or the ``jac``/``engine`` arguments are invalid.
    ConvergenceError
        If every start fails to produce a finite optimum.
    """
    [result] = _fit_requests(
        [
            _fit_request(
                family, curve, options=options, starts=starts,
                extra_starts=extra_starts, weights=weights,
                n_random_starts=n_random_starts, seed=seed, max_nfev=max_nfev,
                jac=jac, engine=engine,
            )
        ]
    )
    if isinstance(result, FitError):
        raise result
    return result


class _FitRequest(NamedTuple):
    """The arguments of one :func:`fit_least_squares` call, its science
    kwargs merged into ``options``."""

    family: ResilienceModel
    curve: ResilienceCurve
    options: EngineOptions
    starts: Sequence[Sequence[float]] | None = None
    extra_starts: Sequence[Sequence[float]] | None = None
    weights: Sequence[float] | None = None


#: The science kwargs of :func:`fit_least_squares`, which override the
#: same :class:`EngineOptions` fields.
_SCIENCE_KWARGS = frozenset({"n_random_starts", "seed", "max_nfev", "jac", "engine"})


def _fit_request(
    family: ResilienceModel,
    curve: ResilienceCurve,
    *,
    options: EngineOptions | None = None,
    starts: Sequence[Sequence[float]] | None = None,
    extra_starts: Sequence[Sequence[float]] | None = None,
    weights: Sequence[float] | None = None,
    **science: Any,
) -> _FitRequest:
    """A :class:`_FitRequest` from :func:`fit_least_squares`'s keywords,
    so grids pass their ``**fit_kwargs`` through unchanged; any other
    keyword is a TypeError, as it is there."""
    unknown = sorted(set(science) - _SCIENCE_KWARGS)
    if unknown:
        raise TypeError(f"unexpected keyword argument(s): {', '.join(unknown)}")
    opts = (options or DEFAULT_OPTIONS).override(**science)
    return _FitRequest(family, curve, opts, starts, extra_starts, weights)


def _fit_requests(requests: Sequence[_FitRequest]) -> list[FitResult | FitError]:
    """Fit every request in one core call; results in request order.

    Each request is planned by :func:`_plan_cell` and every plannable
    cell is solved by one :func:`_solve_cells` call. A slot holds the
    request's :class:`FitResult`, or its error: the :class:`FitError`
    of its planning, or the :class:`ConvergenceError` of a cell whose
    starts all failed. Each request's own options set its start budget,
    seed, evaluation budget and Jacobian mode; the engine, cache, trace
    and executor are the call's, read from the first request (a grid
    builds all its requests from one bundle).
    """
    if not requests:
        return []
    opts = requests[0].options
    engine_mode = resolve_engine(opts.engine)
    results: list[FitResult | FitError | None] = [None] * len(requests)
    cells: list[_Cell] = []
    slots: list[int] = []
    for slot, request in enumerate(requests):
        try:
            cell = _plan_cell(*request)
        except FitError as exc:
            results[slot] = exc
            continue
        cells.append(cell)
        slots.append(slot)
    solves = _solve_cells(
        cells,
        engine_mode=engine_mode,
        cache=resolve_cache(opts.cache),
        tracer=resolve_tracer(opts.trace),
        executor=opts.executor,
        n_workers=opts.n_workers,
    )
    for slot, cell, solve in zip(slots, cells, solves):
        results[slot] = solve.error or _fit_result(cell, solve, engine_mode)
    return [result for result in results if result is not None]


def _fit_all(requests: Sequence[_FitRequest]) -> list[FitResult]:
    """:func:`_fit_requests` for grids that fail as a whole: the first
    error, in request order, is raised."""
    fits: list[FitResult] = []
    for fit in _fit_requests(requests):
        if isinstance(fit, FitError):
            raise fit
        fits.append(fit)
    return fits


def _fit_result(cell: _Cell, solve: _CellSolve, engine_mode: str) -> FitResult:
    """Assemble one solved cell's :class:`FitResult`."""
    selection = solve.selection
    assert selection is not None
    outcomes = solve.outcomes
    nfev, njev = solve.totals()
    details: dict[str, Any] = {
        "per_start_sse": [outcome.sse for outcome in outcomes],
        "per_start_nfev": [outcome.nfev for outcome in outcomes],
        "per_start_njev": [outcome.njev for outcome in outcomes],
        "per_start_seconds": [outcome.seconds for outcome in outcomes],
        "nfev": nfev,
        "njev": njev,
        "confirm_nfev": selection.confirm_nfev,
        "confirm_njev": selection.confirm_njev,
        "polish_nfev": selection.polish_nfev,
        "polish_njev": selection.polish_njev,
        "winner_start": selection.winner_index,
        "jac_mode": cell.jac_mode,
    }
    if engine_mode == "batched":
        details["per_start_iterations"] = [
            int(outcome.n_iterations) for outcome in outcomes
        ]
    details["cache_hit"] = solve.cache_hit
    return FitResult(
        model=cell.family.bind(selection.vector),
        curve=cell.curve,
        sse=_reported_sse(cell, selection),
        converged=selection.converged,
        n_starts=len(cell.start_vectors),
        n_failures=selection.failures,
        message=selection.message,
        details=details,
        engine=engine_mode,
    )


def _plan_cell(
    family: ResilienceModel,
    curve: ResilienceCurve,
    options: EngineOptions,
    starts: Sequence[Sequence[float]] | None = None,
    extra_starts: Sequence[Sequence[float]] | None = None,
    weights: Sequence[float] | None = None,
) -> _Cell:
    """Validate one fit request (the fields of a :class:`_FitRequest`)
    and turn it into a cell for :func:`_solve_cells`, generating the
    starts from the *options*' budget and seed unless they are given.
    Raises :class:`FitError` on a request that cannot be fitted."""
    if len(curve) <= family.n_params:
        raise FitError(
            f"cannot fit {family.n_params}-parameter model {family.name!r} "
            f"to {len(curve)} observations"
        )
    if not np.all(np.isfinite(curve.performance)):
        raise FitError("curve contains non-finite performance values")

    jac_mode = _resolve_jac_mode(family, options.jac)
    lower = tuple(float(v) for v in family.lower_bounds)
    upper = tuple(float(v) for v in family.upper_bounds)

    sqrt_weights: tuple[float, ...] | None = None
    if weights is not None:
        weight_array = np.asarray(weights, dtype=np.float64)
        if weight_array.shape != (len(curve),):
            raise FitError(
                f"weights must have one entry per observation "
                f"({len(curve)}), got shape {weight_array.shape}"
            )
        if not np.all(np.isfinite(weight_array)) or np.any(weight_array < 0.0):
            raise FitError("weights must be finite and non-negative")
        if not np.any(weight_array > 0.0):
            raise FitError("at least one weight must be positive")
        sqrt_weights = tuple(float(v) for v in np.sqrt(weight_array))

    if starts is None:
        kwargs = {} if options.seed is None else {"seed": options.seed}
        start_vectors: list[tuple[float, ...]] = generate_starts(
            family, curve, n_random=options.n_random_starts, **kwargs
        )
    else:
        start_vectors = [tuple(float(v) for v in s) for s in starts]
        if not start_vectors:
            raise FitError("explicit starts list is empty")

    if extra_starts:
        injected: list[tuple[float, ...]] = []
        for vector in extra_starts:
            clipped = tuple(
                float(np.clip(float(v), lo, hi))
                for v, lo, hi in zip(vector, lower, upper)
            )
            if len(clipped) != family.n_params:
                raise FitError(
                    f"extra start has {len(clipped)} entries; family "
                    f"{family.name!r} expects {family.n_params}"
                )
            if clipped not in injected:
                injected.append(clipped)
        start_vectors = injected + [
            s for s in start_vectors if s not in injected
        ]
    return _Cell(
        family, curve, start_vectors, sqrt_weights, jac_mode, lower, upper,
        options.max_nfev,
    )


class FitManyResult(dict):
    """Mapping of family name → :class:`FitResult`, plus failure records.

    Behaves exactly like the plain dict :func:`fit_many` historically
    returned, with a :attr:`failures` mapping of family name → error
    message for families whose fit raised
    :class:`~repro.exceptions.ConvergenceError` — so callers can
    distinguish "not requested" from "failed to converge".
    """

    def __init__(
        self,
        results: Mapping[str, FitResult] | None = None,
        failures: Mapping[str, str] | None = None,
    ) -> None:
        super().__init__(results or {})
        #: Family name → stringified ConvergenceError for failed fits.
        self.failures: dict[str, str] = dict(failures or {})

    @property
    def converged_names(self) -> tuple[str, ...]:
        """Names that produced a fit, in request order."""
        return tuple(self)

    @property
    def failed_names(self) -> tuple[str, ...]:
        """Names whose fit failed to converge, in request order."""
        return tuple(self.failures)

    def best(self) -> FitResult:
        """The lowest-SSE successful fit across all families.

        Ties break toward the earlier family in request order (``min``
        is stable). Raises :class:`~repro.exceptions.ConvergenceError`
        when no family converged, listing the per-family errors.
        """
        if not self:
            raise ConvergenceError(
                "no family converged"
                + (
                    f" (failures: {dict(self.failures)!r})"
                    if self.failures
                    else ""
                )
            )
        return min(self.values(), key=lambda fit: fit.sse)

    def copy(self) -> "FitManyResult":
        """A shallow copy that keeps :attr:`failures` (``dict.copy``
        would silently drop it and downgrade to a plain dict)."""
        return FitManyResult(self, self.failures)

    def __reduce__(
        self,
    ) -> "tuple[type[FitManyResult], tuple[dict[str, FitResult], dict[str, str]]]":
        # dict subclass pickling reconstructs through the class with no
        # args, losing instance state on some protocols; rebuild through
        # __init__ so .failures round-trips everywhere.
        return (FitManyResult, (dict(self), self.failures))


def fit_many(
    families: Iterable[ResilienceModel],
    curve: ResilienceCurve,
    *,
    options: EngineOptions | None = None,
    **kwargs: object,
) -> FitManyResult:
    """Fit several families to the same curve.

    Returns a :class:`FitManyResult` mapping family name to its
    :class:`FitResult`; families that fail to converge are recorded in
    :attr:`FitManyResult.failures` (and logged) instead of being
    silently dropped.

    Parameters
    ----------
    options:
        :class:`~repro.fitting.options.EngineOptions` bundle. The
        families are fitted in one core call, whose per-family reduce
        runs on its ``executor``/``n_workers``. Enabling ``trace``
        both traces each per-family fit and wraps the whole call in one
        ``"fit.many"`` span.
    kwargs:
        Passed through to :func:`fit_least_squares` (explicit science
        kwargs override the bundle's fields there).
    """
    opts = options or DEFAULT_OPTIONS
    tracer = resolve_tracer(opts.trace)
    requests = [
        _fit_request(family, curve, options=opts, **kwargs)  # type: ignore[arg-type]
        for family in families
    ]
    with tracer.span(
        "fit.many", n_families=len(requests), curve=curve.name or "<curve>"
    ), activate(tracer):
        fits = _fit_requests(requests)
    result = FitManyResult()
    for request, fit in zip(requests, fits):
        name = request.family.name
        if isinstance(fit, ConvergenceError):
            logger.warning("fit_many: family %r failed to converge: %s", name, fit)
            result.failures[name] = str(fit)
        elif isinstance(fit, FitError):
            raise fit
        else:
            result[name] = fit
    return result
