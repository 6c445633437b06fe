"""Fleet-scale fitting: every ``(episode, family)`` cell through one core.

:func:`fit_fleet` turns each chunk of episodes into one
``(episode, family)`` cell per viable pair and hands the whole chunk to
the same core a single :func:`~repro.fitting.fit_least_squares` call
uses, ``repro.fitting.least_squares._solve_cells``:

* Under ``engine="batched"`` the core stacks **episodes × families ×
  starts** into one call of the :mod:`repro.fitting.batched` kernel,
  which groups problems by ``(family fingerprint, padded length, jac
  mode)`` so every episode of a given length advances through the
  damped-LM iteration in lockstep with every other.
* Ragged episode lengths inside a chunk are padded up to a
  ``length_bucket`` multiple with **zero-weight** observations
  (repeating the final sample) for that screen only. A zero weight
  multiplies the padded row's residual and Jacobian by exactly ``0.0``,
  so padding changes nothing about a problem's trajectory beyond
  last-ulp summation noise — which the winner-selection band of
  :mod:`repro.fitting.least_squares` absorbs by design.
* Each cell is then reduced and confirmed by scipy on the unpadded
  episode exactly as a single fit is, so fleet winners are
  **bit-identical** (params and SSE) to looping
  :func:`~repro.fitting.fit_least_squares` over the episodes, on either
  engine. Under ``engine="scipy"`` the core solves every start in order.

Episodes stream in fixed-size chunks — from an
:class:`~repro.datasets.store.EpisodeStore` (memory-mapped columns) or
any curve iterable — so peak memory is set by ``chunk_size``, not the
fleet size. Results accumulate columnar (a few dozen bytes per
episode), keeping million-episode fleets in reach.

Fleet fits default to **cache-off**: synthetic fleets never repeat a
``(family, curve, config)`` key, so the LRU would only churn. Pass
``options=EngineOptions(cache=True)`` (or an explicit cache) to opt back
in, on either engine.
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
from repro.fitting.batched import resolve_engine
from repro.fitting.cache import resolve_cache
from repro.fitting.least_squares import (
    _Cell,
    _plan_cell,
    _resolve_jac_mode,
    _solve_cells,
)
from repro.fitting.options import (
    DEFAULT_ENGINE_OPTIONS as DEFAULT_OPTIONS,
    EngineOptions,
)
from repro.models.base import ResilienceModel
from repro.models.registry import make_model
from repro.observability.tracer import resolve_tracer

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


#: Per-cell result columns besides ``params``: (dtype, value a cell
#: keeps until it fits — every cell starts out failed).
_COLUMNS: dict[str, tuple[type, Any]] = {
    "sse": (np.float64, np.nan),
    "converged": (np.bool_, False),
    "failed": (np.bool_, True),
    "n_starts": (np.int64, 0),
    "n_failures": (np.int64, 0),
    "winner_start": (np.int64, -1),
    "nfev": (np.int64, 0),
    "njev": (np.int64, 0),
}


class _FamilyAccumulator:
    """Columnar per-family result accumulator, appended chunk-wise."""

    def __init__(self, family: ResilienceModel) -> None:
        self.family = family
        self.chunks: list[dict[str, np.ndarray]] = []

    def new_chunk(self, size: int) -> dict[str, np.ndarray]:
        """Fresh per-chunk arrays, pre-marked as failed."""
        chunk = {
            name: np.full(size, fill, dtype=dtype)
            for name, (dtype, fill) in _COLUMNS.items()
        }
        chunk["params"] = np.full((size, self.family.n_params), np.nan)
        self.chunks.append(chunk)
        return chunk

    def column(self, name: str) -> np.ndarray:
        """Concatenate one accumulated column."""
        if not self.chunks:
            if name == "params":
                return np.empty((0, self.family.n_params))
            return np.empty(0)
        return np.concatenate([chunk[name] for chunk in self.chunks])


def _padded_screen(
    curve: ResilienceCurve, length_bucket: int
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]] | None:
    """Times/targets/sqrt-weights for *curve* padded up to the next
    multiple of *length_bucket*, or None when it already is one.

    Padding repeats the final observation with weight zero: the padded
    rows multiply out to exact zeros in the residual and Jacobian, so
    they cannot change the solve (beyond last-ulp reduction order).
    """
    pad = -len(curve) % length_bucket
    if pad == 0:
        return None
    times = tuple(float(v) for v in curve.times)
    targets = tuple(float(v) for v in curve.performance)
    return (
        times + (times[-1],) * pad,
        targets + (targets[-1],) * pad,
        (1.0,) * len(curve) + (0.0,) * pad,
    )


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
        :class:`~repro.fitting.cache.FitCache` to opt in, on either
        engine). ``trace`` wraps the call in one ``"fit.fleet"`` span.
        Each chunk's per-cell solves run on its ``executor`` and
        ``n_workers``, as for every other caller of the fit core.
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
        function) or ``"scipy"`` (every start solved by scipy in
        order). ``None`` defers to ``options.engine`` then
        ``REPRO_FIT_ENGINE``.
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
    # None normally means "the environment default cache"; a fleet
    # caches only when the options bundle chooses it.
    cache = resolve_cache(False if opts.cache is None else opts.cache)
    for family in resolved_families:
        _resolve_jac_mode(family, opts.jac)  # raises before any solve
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
            cells: list[_Cell] = []
            slots: list[tuple[int, int]] = []
            for episode_slot, curve in enumerate(chunk):
                screen = None
                if engine_mode == "batched":
                    screen = _padded_screen(curve, length_bucket)
                for family_slot, family in enumerate(resolved_families):
                    try:
                        cell = _plan_cell(family, curve, opts)
                    except FitError as exc:  # e.g. too few observations
                        logger.debug(
                            "fit_fleet: %r not fitted to %r: %s",
                            family.name,
                            curve.name,
                            exc,
                        )
                        continue
                    cells.append(cell._replace(screen=screen))
                    slots.append((episode_slot, family_slot))
            solves = _solve_cells(
                cells,
                engine_mode=engine_mode,
                cache=cache,
                tracer=tracer,
                executor=opts.executor,
                n_workers=opts.n_workers,
                confirm=confirm,
            )
            for (episode_slot, family_slot), cell, solve in zip(slots, cells, solves):
                columns = chunk_columns[family_slot]
                n_starts = len(cell.start_vectors)
                columns["n_starts"][episode_slot] = n_starts
                selection = solve.selection
                if selection is None:
                    logger.debug(
                        "fit_fleet: %r failed on %r: %s",
                        cell.family.name,
                        cell.curve.name,
                        solve.error,
                    )
                    columns["n_failures"][episode_slot] = n_starts
                    continue
                columns["params"][episode_slot] = selection.vector
                columns["sse"][episode_slot] = selection.sse
                columns["converged"][episode_slot] = selection.converged
                columns["failed"][episode_slot] = False
                columns["n_failures"][episode_slot] = selection.failures
                columns["winner_start"][episode_slot] = selection.winner_index
                nfev, njev = solve.totals()
                columns["nfev"][episode_slot] = nfev
                columns["njev"][episode_slot] = njev
            if tracer.enabled:
                tracer.record(
                    "fleet.chunk",
                    time.perf_counter() - chunk_t0,
                    episodes=size,
                    engine=engine_mode,
                )
    seconds = time.perf_counter() - t0
    columns = {
        field: {name: acc.column(field) for name, acc in zip(names, accumulators)}
        for field in ("params", *_COLUMNS)
    }
    return FleetFitResult(
        families=tuple(names),
        n_episodes=n_episodes,
        engine=engine_mode,
        params=columns["params"],
        sse=columns["sse"],
        converged=columns["converged"],
        failed=columns["failed"],
        n_starts=columns["n_starts"],
        n_failures=columns["n_failures"],
        winner_start=columns["winner_start"],
        nfev=columns["nfev"],
        njev=columns["njev"],
        seconds=seconds,
    )
