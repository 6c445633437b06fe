"""The least-squares fitting engine (Eq. 8).

``fit_least_squares`` minimizes ``Σᵢ (R(tᵢ) − P(tᵢ))²`` over the
model's bounded parameter space with scipy's trust-region-reflective
least squares, trying every multi-start point in order and keeping
the best optimum. Parallelism lives one level up: the grid entry points
(:func:`fit_many`, the table sweeps, the episode scorecard) run whole
fits as independent cells on a :class:`~repro.parallel.FitExecutor`.

Two layers keep the engine cheap:

* **Analytic Jacobians** — families that expose
  :meth:`~repro.models.base.ResilienceModel.prediction_jacobian` in
  closed form (the quadratic, the Hjorth competing-risks model, and all
  Exp/Weibull mixtures under every trend) hand scipy an exact ``jac=``
  callable instead of letting it rebuild the Jacobian by finite
  differences, cutting residual evaluations by roughly the parameter
  count.
* **Fit caching** — results are memoized in a content-addressed
  :class:`~repro.fitting.cache.FitCache`, so experiment grids that
  revisit the same ``(family, curve, config)`` triple skip the solve
  entirely.

A third layer is opt-in: ``engine="batched"`` routes the multi-start
exploration through :mod:`repro.fitting.batched`, a pure-numpy batched
Levenberg–Marquardt kernel that advances every start in lockstep and
amortizes the per-call dispatch overhead across the whole batch. The
batched kernel *screens* the starts; the winning start is then
re-solved by scipy from its original x0 (one solve instead of one per
start), so the final optimum is the exact scipy trajectory and the
rendered tables are byte-identical under both engines (the scipy path
stays the oracle).
"""

from __future__ import annotations

import logging
import time
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import optimize

from repro.core.curve import ResilienceCurve
from repro.exceptions import ConvergenceError, FitError
from repro.fitting.batched import BatchedProblem, resolve_engine, solve_batched
from repro.fitting.cache import (
    FitCache,
    fit_cache_key,
    resolve_cache,
    sequence_of_vectors,
)
from repro.fitting.multistart import generate_starts
from repro.fitting.options import (
    DEFAULT_ENGINE_OPTIONS as DEFAULT_OPTIONS,
    EngineOptions,
)
from repro.fitting.result import FitResult
from repro.models.base import ResilienceModel
from repro.observability.tracer import NULL_TRACER, activate, resolve_tracer
from repro.parallel import get_executor

__all__ = ["fit_least_squares", "fit_many", "FitManyResult"]

logger = logging.getLogger("repro.fitting")

#: Magnitude of the penalty applied to non-finite residuals. The
#: penalty is ``scale·(1 + ‖θ‖)`` rather than a constant: a constant
#: plateau has zero gradient everywhere, so once a trust-region step
#: lands in a non-finite pocket the optimizer sees a flat landscape and
#: stalls there. The ‖θ‖ term restores a slope pointing back toward the
#: origin (feasible vectors in every family are bounded well below the
#: scales that overflow), letting the solver walk out of the pocket.
_PENALTY_SCALE = 1e6

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
    """Smoothly increasing replacement for non-finite residuals."""
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
    trace it."""

    sse: float
    vector: tuple[float, ...] | None
    message: str
    converged: bool
    nfev: int
    njev: int
    seconds: float


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
    """Outcome of the reduce → confirm → polish pipeline.

    Shared by the single-fit path below and the fleet engine in
    :mod:`repro.fitting.fleet`, so both reduce multi-start outcomes with
    *exactly* the same rules (band-based winner selection, scipy
    confirmation of batched winners, analytic polish) — the property
    that makes fleet results bit-identical to per-episode fits.
    """

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
        so rendered artifacts are byte-identical under both engines).
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
    opts = (options or DEFAULT_OPTIONS).override(
        n_random_starts=n_random_starts,
        seed=seed,
        max_nfev=max_nfev,
        jac=jac,
        engine=engine,
    )
    solve_kwargs: dict[str, Any] = dict(
        n_random_starts=opts.n_random_starts, seed=opts.seed,
        max_nfev=opts.max_nfev, starts=starts, extra_starts=extra_starts,
        weights=weights, jac=opts.jac, engine=opts.engine, cache=opts.cache,
    )
    tracer = resolve_tracer(opts.trace)
    if not tracer.enabled:
        # No-op fast path: skip span construction entirely so the
        # disabled overhead stays within noise on the table workloads.
        return _fit_least_squares(family, curve, tracer=NULL_TRACER, **solve_kwargs)
    start_time = time.perf_counter()
    with tracer.span(
        "fit",
        family=family.name,
        curve=curve.name or "<curve>",
        n_points=len(curve),
    ) as span:
        result = _fit_least_squares(family, curve, tracer=tracer, **solve_kwargs)
        details = result.details
        span.set(
            sse=result.sse,
            converged=result.converged,
            n_starts=result.n_starts,
            n_failures=result.n_failures,
            nfev=details.get("nfev"),
            njev=details.get("njev"),
            jac_mode=details.get("jac_mode"),
            engine=result.engine,
            cache_hit=bool(details.get("cache_hit", False)),
        )
        tracer.metrics.inc("fit.count")
        tracer.metrics.inc("fit.nfev", int(details.get("nfev", 0)))
        tracer.metrics.inc("fit.njev", int(details.get("njev", 0)))
        tracer.metrics.observe("fit.seconds", time.perf_counter() - start_time)
        return result


def _fit_least_squares(
    family: ResilienceModel,
    curve: ResilienceCurve,
    *,
    n_random_starts: int,
    seed: int | None,
    max_nfev: int,
    starts: Sequence[Sequence[float]] | None,
    extra_starts: Sequence[Sequence[float]] | None,
    weights: Sequence[float] | None,
    jac: str,
    engine: str | None,
    cache: bool | FitCache | None,
    tracer: Any,
) -> FitResult:
    """The untraced fit body; *tracer* is already resolved (possibly
    the null tracer) and only consulted behind ``enabled`` guards."""
    if len(curve) <= family.n_params:
        raise FitError(
            f"cannot fit {family.n_params}-parameter model {family.name!r} "
            f"to {len(curve)} observations"
        )
    if not np.all(np.isfinite(curve.performance)):
        raise FitError("curve contains non-finite performance values")

    jac_mode = _resolve_jac_mode(family, jac)
    engine_mode = resolve_engine(engine)

    lower = tuple(float(v) for v in family.lower_bounds)
    upper = tuple(float(v) for v in family.upper_bounds)

    sqrt_weights: tuple[float, ...] | None = None
    weight_list: list[float] | None = None
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
        weight_list = [float(v) for v in weight_array]

    # ------------------------------------------------------------------
    # Cache lookup. The key covers every input that determines the
    # optimum; start generation is deterministic, so keying on its
    # inputs (counts + seed) is equivalent to keying on the vectors.
    # ------------------------------------------------------------------
    fit_cache = resolve_cache(cache)
    cache_key: str | None = None
    if fit_cache is not None:
        cache_key = fit_cache_key(
            family,
            curve,
            {
                # Engine-versioned so the two solvers never cross-serve
                # cache entries (their per-start diagnostics differ even
                # though the polished optimum does not).
                "engine": (
                    "batched_lm.v1" if engine_mode == "batched" else "least_squares.v2"
                ),
                "n_random_starts": int(n_random_starts),
                "seed": None if seed is None else int(seed),
                "max_nfev": int(max_nfev),
                "starts": sequence_of_vectors(starts),
                "extra_starts": sequence_of_vectors(extra_starts),
                "weights": weight_list,
                "jac": jac_mode,
            },
        )
        record = fit_cache.get(cache_key)
        if tracer.enabled:
            tracer.metrics.inc(
                "cache.hits" if record is not None else "cache.misses"
            )
        if record is not None:
            details = dict(record.get("details", {}))
            details["cache_hit"] = True
            return FitResult(
                model=family.bind(tuple(float(v) for v in record["params"])),
                curve=curve,
                sse=float(record["sse"]),
                converged=bool(record["converged"]),
                n_starts=int(record["n_starts"]),
                n_failures=int(record["n_failures"]),
                message=str(record["message"]),
                details=details,
                engine=str(record.get("engine", engine_mode)),
            )

    if starts is None:
        kwargs = {} if seed is None else {"seed": seed}
        start_vectors: list[tuple[float, ...]] = generate_starts(
            family, curve, n_random=n_random_starts, **kwargs
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

    outcomes: Sequence[Any]
    if engine_mode == "batched":
        # All starts advance in lockstep through one stacked LM solve;
        # counters stay per-problem (each batched residual evaluation
        # charges one nfev to every start it served), so the reduce and
        # the traces below see the same shape as the scipy path.
        curve_times = tuple(float(v) for v in curve.times)
        curve_targets = tuple(float(v) for v in curve.performance)
        problems = [
            BatchedProblem(
                family, curve_times, curve_targets, start, lower, upper,
                max_nfev, sqrt_weights, jac_mode,
            )
            for start in start_vectors
        ]
        outcomes = solve_batched(problems)
    else:
        outcomes = [
            _solve_start(
                family, curve, start, lower, upper, max_nfev, sqrt_weights, jac_mode
            )
            for start in start_vectors
        ]

    if tracer.enabled:
        for index, outcome in enumerate(outcomes):
            tracer.record(
                "fit.start",
                outcome.seconds,
                index=index,
                sse=outcome.sse,
                nfev=outcome.nfev,
                njev=outcome.njev,
                converged=outcome.converged,
                failed=outcome.vector is None,
            )
            tracer.metrics.observe("fit.start_seconds", outcome.seconds)

    per_start_sse: list[float] = [outcome.sse for outcome in outcomes]
    per_start_nfev: list[int] = [outcome.nfev for outcome in outcomes]
    per_start_njev: list[int] = [outcome.njev for outcome in outcomes]
    per_start_seconds: list[float] = [outcome.seconds for outcome in outcomes]

    selection = _select_and_confirm(
        family, curve, start_vectors, outcomes,
        lower=lower, upper=upper, max_nfev=max_nfev,
        sqrt_weights=sqrt_weights, jac_mode=jac_mode,
        engine_mode=engine_mode, tracer=tracer,
    )
    failures = selection.failures
    winner_index = selection.winner_index
    best_sse = selection.sse
    best_vector = selection.vector
    best_message = selection.message
    best_converged = selection.converged
    confirm_nfev = selection.confirm_nfev
    confirm_njev = selection.confirm_njev
    polish_nfev = selection.polish_nfev
    polish_njev = selection.polish_njev

    if sqrt_weights is not None:
        # Selection used the weighted objective; report the unweighted
        # Eq. (9) SSE so results stay comparable across weightings.
        best_sse = family.sse(curve, best_vector)

    details: dict[str, Any] = {
        "per_start_sse": per_start_sse,
        "per_start_nfev": per_start_nfev,
        "per_start_njev": per_start_njev,
        "per_start_seconds": per_start_seconds,
        "nfev": int(sum(per_start_nfev)) + confirm_nfev + polish_nfev,
        "njev": int(sum(per_start_njev)) + confirm_njev + polish_njev,
        "confirm_nfev": confirm_nfev,
        "confirm_njev": confirm_njev,
        "polish_nfev": polish_nfev,
        "polish_njev": polish_njev,
        "winner_start": int(winner_index),
        "jac_mode": jac_mode,
    }
    if engine_mode == "batched":
        details["per_start_iterations"] = [
            int(outcome.n_iterations) for outcome in outcomes
        ]

    if fit_cache is not None and cache_key is not None:
        fit_cache.put(
            cache_key,
            {
                "params": [float(v) for v in best_vector],
                "sse": float(best_sse),
                "converged": bool(best_converged),
                "n_starts": len(start_vectors),
                "n_failures": failures,
                "message": best_message,
                "details": dict(details),
                "engine": engine_mode,
            },
        )

    details["cache_hit"] = False
    return FitResult(
        model=family.bind(best_vector),
        curve=curve,
        sse=best_sse,
        converged=best_converged,
        n_starts=len(start_vectors),
        n_failures=failures,
        message=best_message,
        details=details,
        engine=engine_mode,
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


class _FamilyWork(NamedTuple):
    """Picklable work unit: one family fit against the shared curve."""

    family: ResilienceModel
    curve: ResilienceCurve
    fit_kwargs: dict


def _fit_family(work: _FamilyWork) -> tuple[str, FitResult | None, str]:
    """Fit one family, encoding convergence failure in the result."""
    try:
        return work.family.name, fit_least_squares(
            work.family, work.curve, **work.fit_kwargs
        ), ""
    except ConvergenceError as exc:
        return work.family.name, None, str(exc)


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
        :class:`~repro.fitting.options.EngineOptions` bundle. Each
        family is an independent fit, so the family loop runs on its
        ``executor``/``n_workers``; every per-family fit receives the
        bundle itself. Enabling ``trace`` both traces each per-family
        fit and wraps the whole call in one ``"fit.many"`` span.
    kwargs:
        Passed through to :func:`fit_least_squares` (explicit science
        kwargs override the bundle's fields there).
    """
    opts = options or DEFAULT_OPTIONS
    tracer = resolve_tracer(opts.trace)
    work_units = [
        _FamilyWork(family, curve, {**kwargs, "options": opts}) for family in families
    ]
    with tracer.span(
        "fit.many", n_families=len(work_units), curve=curve.name or "<curve>"
    ), activate(tracer):
        triples = get_executor(opts.executor, max_workers=opts.n_workers).map(
            _fit_family, work_units
        )
    result = FitManyResult()
    for name, fit, error in triples:
        if fit is None:
            logger.warning("fit_many: family %r failed to converge: %s", name, error)
            result.failures[name] = error
        else:
            result[name] = fit
    return result
