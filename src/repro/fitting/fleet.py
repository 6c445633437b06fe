"""Fleet-scale fitting: one batched LM solve across episodes.

PR 6's :mod:`repro.fitting.batched` kernel stacks the multi-start
problems of a *single* ``(curve, family)`` fit; fleets still paid a
Python-level loop per episode. :func:`fit_fleet` removes that loop by
stacking **episodes × families × starts** into the same kernel:

* Problems are grouped by ``(family fingerprint, padded length,
  jac mode)`` — the batched kernel's own bucketing — so every episode
  of a given length advances through the damped-LM iteration in
  lockstep with every other.
* Ragged episode lengths inside a chunk are padded up to a
  ``length_bucket`` multiple with **zero-weight** observations
  (repeating the final sample). A zero weight multiplies the padded
  row's residual and Jacobian by exactly ``0.0``, so padding changes
  nothing about a problem's trajectory beyond last-ulp summation
  noise — which the winner-selection band of
  :mod:`repro.fitting.least_squares` absorbs by design.
* The screen-then-confirm contract is inherited verbatim: per
  ``(episode, family)`` the winning start is re-solved by scipy from
  its original x0 through the *same* reduction helper the single-fit
  path uses, so fleet winners are **bit-identical** (params and SSE)
  to looping :func:`~repro.fitting.fit_least_squares` over the
  episodes.

Episodes stream in fixed-size chunks — from an
:class:`~repro.datasets.store.EpisodeStore` (memory-mapped columns) or
any curve iterable — so peak memory is set by ``chunk_size``, not the
fleet size. Results accumulate columnar (a few dozen bytes per
episode), keeping million-episode fleets in reach.

Fleet fits default to **cache-off**: synthetic fleets never repeat a
``(family, curve, config)`` key, so the LRU would only churn. Pass
``options=EngineOptions(cache=True)`` (or an explicit cache) to opt back
in; only the ``engine="scipy"`` reference loop consults it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.curve import ResilienceCurve
from repro.datasets.store import EpisodeStore
from repro.exceptions import FitError
from repro.fitting.batched import BatchedProblem, resolve_engine, solve_batched
from repro.fitting.cache import FitCache
from repro.fitting.least_squares import (
    _resolve_jac_mode,
    _select_and_confirm,
    fit_least_squares,
)
from repro.fitting.multistart import generate_starts
from repro.fitting.options import (
    DEFAULT_ENGINE_OPTIONS as DEFAULT_OPTIONS,
    EngineOptions,
)
from repro.models.base import ResilienceModel
from repro.models.registry import make_model
from repro.observability.tracer import activate, resolve_tracer
from repro.parallel import get_executor

__all__ = ["EpisodeFamilyFit", "FleetFitResult", "fit_fleet"]

logger = logging.getLogger("repro.fitting")

#: Default model grid fitted to every episode.
DEFAULT_FLEET_FAMILIES = ("quadratic", "competing_risks")


class EpisodeFamilyFit(NamedTuple):
    """One ``(episode, family)`` cell of a fleet fit.

    ``failed`` marks episodes whose fit could not run or converge at
    all (too few observations, every start failed); their ``params``
    are NaN and ``sse`` is NaN.
    """

    episode: int
    family: str
    params: tuple[float, ...]
    sse: float
    converged: bool
    failed: bool
    n_starts: int
    n_failures: int
    winner_start: int
    nfev: int
    njev: int


@dataclass(frozen=True)
class FleetFitResult:
    """Columnar results of a fleet fit.

    Per-family arrays are indexed by episode: ``params[family]`` has
    shape ``(n_episodes, n_params)``, everything else ``(n_episodes,)``.
    Failed cells hold NaN params/SSE and ``failed=True``.
    """

    families: tuple[str, ...]
    n_episodes: int
    engine: str
    params: dict[str, np.ndarray]
    sse: dict[str, np.ndarray]
    converged: dict[str, np.ndarray]
    failed: dict[str, np.ndarray]
    n_starts: dict[str, np.ndarray]
    n_failures: dict[str, np.ndarray]
    winner_start: dict[str, np.ndarray]
    nfev: dict[str, np.ndarray]
    njev: dict[str, np.ndarray]
    seconds: float

    @property
    def episodes_per_sec(self) -> float:
        """Fitting throughput over the whole fleet."""
        return self.n_episodes / self.seconds if self.seconds > 0 else 0.0

    def fit(self, episode: int, family: str) -> EpisodeFamilyFit:
        """The ``(episode, family)`` cell as a record."""
        if family not in self.params:
            raise FitError(
                f"family {family!r} was not fitted; have {self.families}"
            )
        if not -self.n_episodes <= int(episode) < self.n_episodes:
            raise FitError(
                f"episode {episode} out of range for {self.n_episodes} episodes"
            )
        return EpisodeFamilyFit(
            episode=int(episode),
            family=family,
            params=tuple(float(v) for v in self.params[family][episode]),
            sse=float(self.sse[family][episode]),
            converged=bool(self.converged[family][episode]),
            failed=bool(self.failed[family][episode]),
            n_starts=int(self.n_starts[family][episode]),
            n_failures=int(self.n_failures[family][episode]),
            winner_start=int(self.winner_start[family][episode]),
            nfev=int(self.nfev[family][episode]),
            njev=int(self.njev[family][episode]),
        )

    def best_family(self, episode: int) -> str | None:
        """Lowest-SSE family for *episode*; None if every family failed.

        Ties break toward the earlier family in request order, matching
        :meth:`repro.fitting.FitManyResult.best`.
        """
        best: str | None = None
        best_sse = np.inf
        for family in self.families:
            value = float(self.sse[family][episode])
            if np.isfinite(value) and value < best_sse:
                best, best_sse = family, value
        return best

    def summary(self) -> dict[str, Any]:
        """Aggregate fleet statistics (JSON-serializable)."""
        wins = {family: 0 for family in self.families}
        for episode in range(self.n_episodes):
            winner = self.best_family(episode)
            if winner is not None:
                wins[winner] += 1
        per_family: dict[str, Any] = {}
        for family in self.families:
            sse = self.sse[family]
            finite = sse[np.isfinite(sse)]
            per_family[family] = {
                "mean_sse": float(finite.mean()) if finite.size else None,
                "median_sse": float(np.median(finite)) if finite.size else None,
                "converged": int(np.count_nonzero(self.converged[family])),
                "failed": int(np.count_nonzero(self.failed[family])),
                "wins": int(wins[family]),
                "nfev": int(self.nfev[family].sum()),
                "njev": int(self.njev[family].sum()),
            }
        return {
            "n_episodes": self.n_episodes,
            "families": list(self.families),
            "engine": self.engine,
            "seconds": self.seconds,
            "episodes_per_sec": self.episodes_per_sec,
            "per_family": per_family,
        }


class _FamilyAccumulator:
    """Columnar per-family result accumulator, appended chunk-wise."""

    def __init__(self, family: ResilienceModel) -> None:
        self.family = family
        self.params: list[np.ndarray] = []
        self.sse: list[np.ndarray] = []
        self.converged: list[np.ndarray] = []
        self.failed: list[np.ndarray] = []
        self.n_starts: list[np.ndarray] = []
        self.n_failures: list[np.ndarray] = []
        self.winner_start: list[np.ndarray] = []
        self.nfev: list[np.ndarray] = []
        self.njev: list[np.ndarray] = []

    def new_chunk(self, size: int) -> dict[str, np.ndarray]:
        """Fresh per-chunk arrays, pre-marked as failed."""
        chunk = {
            "params": np.full((size, self.family.n_params), np.nan),
            "sse": np.full(size, np.nan),
            "converged": np.zeros(size, dtype=bool),
            "failed": np.ones(size, dtype=bool),
            "n_starts": np.zeros(size, dtype=np.int64),
            "n_failures": np.zeros(size, dtype=np.int64),
            "winner_start": np.full(size, -1, dtype=np.int64),
            "nfev": np.zeros(size, dtype=np.int64),
            "njev": np.zeros(size, dtype=np.int64),
        }
        self.params.append(chunk["params"])
        self.sse.append(chunk["sse"])
        self.converged.append(chunk["converged"])
        self.failed.append(chunk["failed"])
        self.n_starts.append(chunk["n_starts"])
        self.n_failures.append(chunk["n_failures"])
        self.winner_start.append(chunk["winner_start"])
        self.nfev.append(chunk["nfev"])
        self.njev.append(chunk["njev"])
        return chunk

    def column(self, name: str) -> np.ndarray:
        """Concatenate one accumulated column."""
        parts: list[np.ndarray] = getattr(self, name)
        if not parts:
            width = self.family.n_params if name == "params" else None
            if width is not None:
                return np.empty((0, width))
            return np.empty(0)
        return np.concatenate(parts)


def _bucket_length(n_points: int, length_bucket: int) -> int:
    """Smallest multiple of *length_bucket* that is ≥ *n_points*."""
    return ((n_points + length_bucket - 1) // length_bucket) * length_bucket


def _padded_problem_arrays(
    curve: ResilienceCurve, padded_length: int
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...] | None]:
    """Times/targets/sqrt-weights for *curve* padded to *padded_length*.

    Padding repeats the final observation with weight zero: the padded
    rows multiply out to exact zeros in the residual and Jacobian, so
    they cannot change the solve (beyond last-ulp reduction order).
    """
    times = tuple(float(v) for v in curve.times)
    targets = tuple(float(v) for v in curve.performance)
    pad = padded_length - len(times)
    if pad <= 0:
        return times, targets, None
    times = times + (times[-1],) * pad
    targets = targets + (targets[-1],) * pad
    sqrt_weights = (1.0,) * len(curve) + (0.0,) * pad
    return times, targets, sqrt_weights


def _iter_episode_chunks(
    episodes: EpisodeStore | Iterable[ResilienceCurve], chunk_size: int
) -> Iterator[list[ResilienceCurve]]:
    """Fixed-size blocks of curves from a store or any iterable."""
    if isinstance(episodes, EpisodeStore):
        for chunk in episodes.iter_chunks(chunk_size):
            yield list(chunk.curves())
        return
    block: list[ResilienceCurve] = []
    for curve in episodes:
        block.append(curve)
        if len(block) >= chunk_size:
            yield block
            block = []
    if block:
        yield block


class _EpisodeGridWork(NamedTuple):
    """Picklable work unit: the full family grid for one episode."""

    curve: ResilienceCurve
    families: tuple[ResilienceModel, ...]
    options: EngineOptions


def _fit_episode_grid(
    work: _EpisodeGridWork,
) -> list[tuple[tuple[float, ...], float, bool, bool, int, int, int, int, int]]:
    """Loop one episode through every family with scipy fits.

    Returns one ``(params, sse, converged, failed, n_starts,
    n_failures, winner_start, nfev, njev)`` tuple per family (the
    per-episode reference path the batched engine is measured against).
    """
    rows = []
    for family in work.families:
        try:
            fit = fit_least_squares(family, work.curve, options=work.options)
        except FitError as exc:  # includes ConvergenceError
            logger.debug(
                "fit_fleet: %r failed on %r: %s",
                family.name,
                work.curve.name,
                exc,
            )
            rows.append(
                ((float("nan"),) * family.n_params, float("nan"), False,
                 True, 0, 0, -1, 0, 0)
            )
            continue
        rows.append(
            (
                fit.model.params,
                float(fit.sse),
                bool(fit.converged),
                False,
                int(fit.n_starts),
                int(fit.n_failures),
                int(fit.details.get("winner_start", -1)),
                int(fit.details.get("nfev", 0)),
                int(fit.details.get("njev", 0)),
            )
        )
    return rows


class _CellPlan(NamedTuple):
    """Bookkeeping for one (episode, family) cell's batched problems."""

    episode_slot: int
    family_slot: int
    curve: ResilienceCurve
    start_vectors: list[tuple[float, ...]]


def fit_fleet(
    episodes: EpisodeStore | Iterable[ResilienceCurve],
    families: Sequence[ResilienceModel | str] = DEFAULT_FLEET_FAMILIES,
    *,
    options: EngineOptions | None = None,
    chunk_size: int = 1024,
    length_bucket: int = 8,
    confirm: bool = True,
    n_random_starts: int | None = None,
    seed: int | None = None,
    max_nfev: int | None = None,
    jac: str | None = None,
    engine: str | None = None,
) -> FleetFitResult:
    """Fit every *family* to every episode of a fleet.

    Parameters
    ----------
    episodes:
        An :class:`~repro.datasets.store.EpisodeStore` (streamed
        chunk-by-chunk off its memory-mapped columns) or any iterable
        of curves.
    families:
        Model grid: family instances or registry names.
    options:
        :class:`~repro.fitting.options.EngineOptions` bundle; explicit
        science kwargs below override its fields, exactly as in
        :func:`~repro.fitting.fit_least_squares`. Its ``cache``
        defaults to **off** for fleet fits (synthetic episodes never
        repeat a cache key; pass ``True`` or a
        :class:`~repro.fitting.cache.FitCache` to opt in) and is
        consulted only by ``engine="scipy"`` — the batched fleet path
        never reads the cache. ``executor``/``n_workers`` parallelize
        the scipy path's episode loop; ``trace`` wraps the call in one
        ``"fit.fleet"`` span.
    chunk_size:
        Episodes fitted per batched solve. Peak memory scales with
        ``chunk_size × families × starts × grid length`` and is
        independent of the fleet size.
    length_bucket:
        Episode lengths are padded up to a multiple of this inside
        each chunk (zero-weight padding), so ragged fleets share shape
        buckets instead of solving one group per distinct length.
        ``1`` disables padding.
    confirm:
        Keep the screen-then-confirm contract (default): each cell's
        winning start is re-solved by scipy from its original x0,
        making fleet results bit-identical to looping
        :func:`~repro.fitting.fit_least_squares`. ``False`` skips the
        confirmation and reports the screened optima — faster, with
        SSE agreement to ~1e-8 instead of bit-identity.
    engine:
        ``"batched"`` (cross-episode stacking, the point of this
        function) or ``"scipy"`` (the per-episode reference loop,
        parallelized over ``options.executor``). ``None`` defers to
        ``options.engine`` then ``REPRO_FIT_ENGINE``.
    n_random_starts, seed, max_nfev, jac:
        As in :func:`~repro.fitting.fit_least_squares`.

    Returns
    -------
    FleetFitResult
        Columnar per-(episode, family) parameters, SSE, convergence
        flags, and evaluation counts.
    """
    opts = (options or DEFAULT_OPTIONS).override(
        n_random_starts=n_random_starts,
        seed=seed,
        max_nfev=max_nfev,
        jac=jac,
        engine=engine,
    )
    # The fleet-specific default: no caching unless the options bundle
    # chooses it (None normally means "defer to the environment default
    # cache").
    fleet_cache: bool | FitCache = False if opts.cache is None else opts.cache
    if chunk_size < 1:
        raise FitError(f"chunk_size must be >= 1, got {chunk_size}")
    if length_bucket < 1:
        raise FitError(f"length_bucket must be >= 1, got {length_bucket}")
    resolved_families: list[ResilienceModel] = [
        make_model(family) if isinstance(family, str) else family
        for family in families
    ]
    if not resolved_families:
        raise FitError("fit_fleet needs at least one model family")
    names = [family.name for family in resolved_families]
    if len(set(names)) != len(names):
        raise FitError(f"duplicate family names in fleet grid: {names}")
    engine_mode = resolve_engine(opts.engine)
    tracer = resolve_tracer(opts.trace)
    jac_modes = [
        _resolve_jac_mode(family, opts.jac) for family in resolved_families
    ]
    bounds = [
        (
            tuple(float(v) for v in family.lower_bounds),
            tuple(float(v) for v in family.upper_bounds),
        )
        for family in resolved_families
    ]
    start_kwargs: dict[str, int] = (
        {} if opts.seed is None else {"seed": opts.seed}
    )
    accumulators = [_FamilyAccumulator(family) for family in resolved_families]
    t0 = time.perf_counter()
    n_episodes = 0
    with tracer.span(
        "fit.fleet",
        n_families=len(resolved_families),
        engine=engine_mode,
        chunk_size=chunk_size,
    ):
        for chunk in _iter_episode_chunks(episodes, chunk_size):
            chunk_t0 = time.perf_counter()
            size = len(chunk)
            n_episodes += size
            chunk_columns = [acc.new_chunk(size) for acc in accumulators]
            if engine_mode == "batched":
                _fit_chunk_batched(
                    chunk,
                    resolved_families,
                    jac_modes,
                    bounds,
                    chunk_columns,
                    opts=opts,
                    start_kwargs=start_kwargs,
                    length_bucket=length_bucket,
                    confirm=confirm,
                    tracer=tracer,
                )
            else:
                _fit_chunk_scipy(
                    chunk,
                    resolved_families,
                    chunk_columns,
                    opts=opts,
                    fleet_cache=fleet_cache,
                    tracer=tracer,
                )
            if tracer.enabled:
                tracer.record(
                    "fleet.chunk",
                    time.perf_counter() - chunk_t0,
                    episodes=size,
                    engine=engine_mode,
                )
    seconds = time.perf_counter() - t0
    return FleetFitResult(
        families=tuple(names),
        n_episodes=n_episodes,
        engine=engine_mode,
        params={
            name: acc.column("params")
            for name, acc in zip(names, accumulators)
        },
        sse={
            name: acc.column("sse") for name, acc in zip(names, accumulators)
        },
        converged={
            name: acc.column("converged")
            for name, acc in zip(names, accumulators)
        },
        failed={
            name: acc.column("failed")
            for name, acc in zip(names, accumulators)
        },
        n_starts={
            name: acc.column("n_starts")
            for name, acc in zip(names, accumulators)
        },
        n_failures={
            name: acc.column("n_failures")
            for name, acc in zip(names, accumulators)
        },
        winner_start={
            name: acc.column("winner_start")
            for name, acc in zip(names, accumulators)
        },
        nfev={
            name: acc.column("nfev") for name, acc in zip(names, accumulators)
        },
        njev={
            name: acc.column("njev") for name, acc in zip(names, accumulators)
        },
        seconds=seconds,
    )


def _fit_chunk_batched(
    chunk: list[ResilienceCurve],
    families: list[ResilienceModel],
    jac_modes: list[str],
    bounds: list[tuple[tuple[float, ...], tuple[float, ...]]],
    chunk_columns: list[dict[str, np.ndarray]],
    *,
    opts: EngineOptions,
    start_kwargs: dict[str, int],
    length_bucket: int,
    confirm: bool,
    tracer: Any,
) -> None:
    """Fit one chunk through the cross-episode batched kernel.

    Every viable ``(episode, family, start)`` triple becomes one
    :class:`~repro.fitting.batched.BatchedProblem`; the kernel groups
    them by (family, padded length, jac mode) and advances each group
    in lockstep. Reduction and scipy confirmation then run per cell
    through the same helper as the single-fit path.
    """
    problems: list[BatchedProblem] = []
    plans: list[_CellPlan] = []
    for episode_slot, curve in enumerate(chunk):
        padded_length = _bucket_length(len(curve), length_bucket)
        padded: tuple[
            tuple[float, ...], tuple[float, ...], tuple[float, ...] | None
        ] | None = None
        for family_slot, family in enumerate(families):
            if len(curve) <= family.n_params:
                logger.debug(
                    "fit_fleet: %r too short for %r (%d points)",
                    curve.name,
                    family.name,
                    len(curve),
                )
                continue
            if padded is None:
                padded = _padded_problem_arrays(curve, padded_length)
            times, targets, sqrt_weights = padded
            start_vectors = generate_starts(
                family,
                curve,
                n_random=opts.n_random_starts,
                **start_kwargs,
            )
            lower, upper = bounds[family_slot]
            for start in start_vectors:
                problems.append(
                    BatchedProblem(
                        family,
                        times,
                        targets,
                        start,
                        lower,
                        upper,
                        opts.max_nfev,
                        sqrt_weights,
                        jac_modes[family_slot],
                    )
                )
            plans.append(
                _CellPlan(episode_slot, family_slot, curve, start_vectors)
            )
    outcomes = solve_batched(problems)
    cursor = 0
    for plan in plans:
        n_starts = len(plan.start_vectors)
        cell_outcomes = outcomes[cursor : cursor + n_starts]
        cursor += n_starts
        family = families[plan.family_slot]
        lower, upper = bounds[plan.family_slot]
        columns = chunk_columns[plan.family_slot]
        columns["n_starts"][plan.episode_slot] = n_starts
        try:
            selection = _select_and_confirm(
                family,
                plan.curve,
                plan.start_vectors,
                cell_outcomes,
                lower=lower,
                upper=upper,
                max_nfev=opts.max_nfev,
                sqrt_weights=None,
                jac_mode=jac_modes[plan.family_slot],
                engine_mode="batched" if confirm else "scipy",
                tracer=tracer,
            )
        except FitError as exc:  # every start failed (ConvergenceError)
            logger.debug(
                "fit_fleet: %r failed on %r: %s",
                family.name,
                plan.curve.name,
                exc,
            )
            columns["n_failures"][plan.episode_slot] = n_starts
            continue
        columns["params"][plan.episode_slot] = selection.vector
        columns["sse"][plan.episode_slot] = selection.sse
        columns["converged"][plan.episode_slot] = selection.converged
        columns["failed"][plan.episode_slot] = False
        columns["n_failures"][plan.episode_slot] = selection.failures
        columns["winner_start"][plan.episode_slot] = selection.winner_index
        columns["nfev"][plan.episode_slot] = (
            sum(outcome.nfev for outcome in cell_outcomes)
            + selection.confirm_nfev
            + selection.polish_nfev
        )
        columns["njev"][plan.episode_slot] = (
            sum(outcome.njev for outcome in cell_outcomes)
            + selection.confirm_njev
            + selection.polish_njev
        )


def _fit_chunk_scipy(
    chunk: list[ResilienceCurve],
    families: list[ResilienceModel],
    chunk_columns: list[dict[str, np.ndarray]],
    *,
    opts: EngineOptions,
    fleet_cache: bool | FitCache,
    tracer: Any,
) -> None:
    """Fit one chunk with the per-episode scipy loop (reference path).

    Episodes are independent, so the loop runs on the configured
    executor; results are reduced in episode order, identical on every
    backend.
    """
    fit_options = opts.replace(engine="scipy", cache=fleet_cache)
    work_units = [
        _EpisodeGridWork(curve, tuple(families), fit_options) for curve in chunk
    ]
    with activate(tracer):
        grids = get_executor(opts.executor, max_workers=opts.n_workers).map(
            _fit_episode_grid, work_units
        )
    for episode_slot, rows in enumerate(grids):
        for family_slot, row in enumerate(rows):
            columns = chunk_columns[family_slot]
            (params, sse, converged, failed, n_starts, n_failures,
             winner_start, nfev, njev) = row
            columns["params"][episode_slot] = params
            columns["sse"][episode_slot] = sse
            columns["converged"][episode_slot] = converged
            columns["failed"][episode_slot] = failed
            columns["n_starts"][episode_slot] = n_starts
            columns["n_failures"][episode_slot] = n_failures
            columns["winner_start"][episode_slot] = winner_start
            columns["nfev"][episode_slot] = nfev
            columns["njev"][episode_slot] = njev
