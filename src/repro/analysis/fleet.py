"""Episode scorecards for long operational histories.

Formalizes the multi-event pipeline (simulated in
``examples/operational_history.py``): segment a history into
disruption episodes, compute each episode's point metrics, fit a model
per episode, and aggregate — turning the paper's single-event
machinery into an operational report. Episodes are independent fitting
problems, so the per-episode work can run on any
:class:`~repro.parallel.FitExecutor` backend.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.curve import ResilienceCurve
from repro.core.episodes import Episode, split_episodes
from repro.core.phases import detect_phases
from repro.exceptions import ReproError
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import DEFAULT_ENGINE_OPTIONS, EngineOptions
from repro.fitting.result import FitResult
from repro.metrics.point import rapidity, time_to_recovery
from repro.models.registry import make_model
from repro.observability.tracer import activate, resolve_tracer
from repro.parallel import get_executor
from repro.utils.tables import format_table

__all__ = ["EpisodeScore", "EpisodeScorecard", "episode_scorecard"]

logger = logging.getLogger("repro.analysis")


@dataclass(frozen=True)
class EpisodeScore:
    """Metrics and fit for one disruption episode.

    ``observed_recovery`` / ``predicted_recovery`` are durations from
    the episode start; ``None`` means not recovered / not predicted.
    """

    episode: Episode
    depth: float
    rapidity: float | None
    observed_recovery: float | None
    fit: FitResult | None
    predicted_recovery: float | None

    @property
    def name(self) -> str:
        return self.episode.curve.name

    @property
    def start_time(self) -> float:
        return float(self.episode.curve.times[0])


@dataclass
class EpisodeScorecard:
    """All episode scores for one history."""

    history: ResilienceCurve
    scores: list[EpisodeScore] = field(default_factory=list)
    band_tolerance: float = 0.01

    @property
    def n_episodes(self) -> int:
        return len(self.scores)

    @property
    def recovered_fraction(self) -> float | None:
        """Fraction of episodes that recovered within their window, or
        ``None`` for an empty scorecard (matching :meth:`worst_depth`
        and :meth:`median_recovery`)."""
        if not self.scores:
            return None
        recovered = sum(1 for s in self.scores if s.observed_recovery is not None)
        return recovered / len(self.scores)

    def median_recovery(self) -> float | None:
        """Median observed recovery duration, or None if none recovered."""
        durations = [
            s.observed_recovery for s in self.scores if s.observed_recovery is not None
        ]
        if not durations:
            return None
        return float(np.median(durations))

    def worst_depth(self) -> float | None:
        """Deepest episode's fractional depth."""
        if not self.scores:
            return None
        return max(s.depth for s in self.scores)

    def to_table(self) -> str:
        """Aligned text scorecard."""
        rows = []
        for score in self.scores:
            rows.append(
                [
                    score.name,
                    score.start_time,
                    score.depth,
                    score.rapidity if score.rapidity is not None else float("nan"),
                    (
                        f"{score.observed_recovery:.1f}"
                        if score.observed_recovery is not None
                        else "unrecovered"
                    ),
                    (
                        f"{score.predicted_recovery:.1f}"
                        if score.predicted_recovery is not None
                        else "n/a"
                    ),
                ]
            )
        recovered = self.recovered_fraction
        recovered_label = "n/a" if recovered is None else f"{recovered:.0%}"
        return format_table(
            ["Episode", "Start", "Depth", "Rapidity", "Observed rec.", "Model rec."],
            rows,
            title=(
                f"Episode scorecard — {self.history.name or '<history>'} "
                f"({self.n_episodes} episodes, "
                f"{recovered_label} recovered)"
            ),
            float_digits=4,
        )


class _EpisodeWork(NamedTuple):
    """Picklable work unit: score one episode."""

    episode: Episode
    model: str
    tolerance: float
    level: float
    fit_kwargs: dict


def _score_episode(work: _EpisodeWork) -> EpisodeScore:
    """Compute one episode's metrics and fit (module-level so the
    process backend can pickle it)."""
    curve = work.episode.curve.shifted(-float(work.episode.curve.times[0]))

    observed_recovery: float | None = None
    episode_rapidity: float | None = None
    try:
        phases = detect_phases(curve, tolerance=work.tolerance)
        episode_rapidity = rapidity(curve, phases)
        observed_recovery = time_to_recovery(curve, phases)
    except ReproError as exc:
        logger.debug("episode phase metrics unavailable: %s", exc)

    fit: FitResult | None = None
    predicted_recovery: float | None = None
    try:
        fit = fit_least_squares(make_model(work.model), curve, **work.fit_kwargs)
        predicted_recovery = fit.model.recovery_time(
            work.level, horizon=100.0 * max(curve.duration, 1.0)
        )
    except (ReproError, ValueError) as exc:
        logger.debug("episode fit/recovery unavailable: %s", exc)

    return EpisodeScore(
        episode=work.episode,
        depth=work.episode.depth,
        rapidity=episode_rapidity,
        observed_recovery=observed_recovery,
        fit=fit,
        predicted_recovery=predicted_recovery,
    )


def episode_scorecard(
    history: ResilienceCurve,
    *,
    model: str = "competing_risks",
    tolerance: float = 0.01,
    min_depth: float = 0.0,
    min_samples: int = 4,
    recovery_level: float | None = None,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> EpisodeScorecard:
    """Build an :class:`EpisodeScorecard` for *history*.

    Parameters
    ----------
    history:
        The full performance record.
    model:
        Model family name fit to each episode.
    tolerance, min_depth, min_samples:
        Passed to :func:`~repro.core.episodes.split_episodes`; the same
        *tolerance* defines the recovery band for the observed
        recovery durations.
    recovery_level:
        Level for the model's predicted recovery; defaults to
        ``nominal·(1 − tolerance)``.
    options:
        :class:`~repro.fitting.options.EngineOptions` bundle. The
        independent per-episode fits run on its ``executor``/
        ``n_workers`` (scores are assembled in episode order on every
        backend) and each receives the bundle itself; enabling
        ``trace`` also wraps the whole scorecard in one
        ``"episodes.scorecard"`` span.
    fit_kwargs:
        Passed through to :func:`~repro.fitting.fit_least_squares`
        (explicit science kwargs override the bundle's fields).
    """
    opts = options or DEFAULT_ENGINE_OPTIONS
    tracer = resolve_tracer(opts.trace)
    episodes = split_episodes(
        history, tolerance=tolerance, min_depth=min_depth, min_samples=min_samples
    )
    level = (
        history.nominal * (1.0 - tolerance)
        if recovery_level is None
        else float(recovery_level)
    )
    fit_kwargs = {**fit_kwargs, "options": opts}
    work_units = [
        _EpisodeWork(episode, model, tolerance, level, fit_kwargs)
        for episode in episodes
    ]
    with tracer.span(
        "episodes.scorecard",
        history=history.name or "<history>",
        n_episodes=len(work_units),
        model=model,
    ), activate(tracer):
        scores = get_executor(opts.executor, max_workers=opts.n_workers).map(
            _score_episode, work_units
        )
    return EpisodeScorecard(
        history=history, scores=list(scores), band_tolerance=tolerance
    )
