"""Episode scorecards for long operational histories.

Formalizes the multi-event pipeline (simulated in
``examples/operational_history.py``): segment a history into
disruption episodes, compute each episode's point metrics, fit a model
per episode, and aggregate — turning the paper's single-event
machinery into an operational report. The episodes' fits are one call
of the fit core, whose per-episode solves run on any
:class:`~repro.parallel.FitExecutor` backend.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.curve import ResilienceCurve
from repro.core.episodes import Episode, split_episodes
from repro.core.phases import detect_phases
from repro.exceptions import FitError, ReproError
from repro.fitting.least_squares import _fit_request, _fit_requests
from repro.fitting.options import DEFAULT_ENGINE_OPTIONS, EngineOptions
from repro.fitting.result import FitResult
from repro.metrics.point import rapidity, time_to_recovery
from repro.models.registry import make_model
from repro.observability.tracer import activate, resolve_tracer
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


def _episode_score(
    episode: Episode,
    curve: ResilienceCurve,
    fit: FitResult | FitError,
    tolerance: float,
    level: float,
) -> EpisodeScore:
    """One episode's metrics, from its start-shifted *curve* and the
    core's result for it (a fit, or the error that replaced it)."""
    observed_recovery: float | None = None
    episode_rapidity: float | None = None
    try:
        phases = detect_phases(curve, tolerance=tolerance)
        episode_rapidity = rapidity(curve, phases)
        observed_recovery = time_to_recovery(curve, phases)
    except ReproError as exc:
        logger.debug("episode phase metrics unavailable: %s", exc)

    predicted_recovery: float | None = None
    if isinstance(fit, FitError):
        logger.debug("episode fit unavailable: %s", fit)
    else:
        try:
            predicted_recovery = fit.model.recovery_time(
                level, horizon=100.0 * max(curve.duration, 1.0)
            )
        except (ReproError, ValueError) as exc:
            logger.debug("episode recovery unavailable: %s", exc)

    return EpisodeScore(
        episode=episode,
        depth=episode.depth,
        rapidity=episode_rapidity,
        observed_recovery=observed_recovery,
        fit=None if isinstance(fit, FitError) else fit,
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
        per-episode fits are one fit-core call, whose per-episode
        solves run on its ``executor``/``n_workers`` (scores are
        assembled in episode order on every backend), and each receives
        the bundle itself; enabling ``trace`` also wraps the whole
        scorecard in one ``"episodes.scorecard"`` span.
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
    family = make_model(model)
    curves = [
        episode.curve.shifted(-float(episode.curve.times[0])) for episode in episodes
    ]
    requests = [
        _fit_request(family, curve, options=opts, **fit_kwargs)  # type: ignore[arg-type]
        for curve in curves
    ]
    with tracer.span(
        "episodes.scorecard",
        history=history.name or "<history>",
        n_episodes=len(episodes),
        model=model,
    ), activate(tracer):
        scores = [
            _episode_score(episode, curve, fit, tolerance, level)
            for episode, curve, fit in zip(episodes, curves, _fit_requests(requests))
        ]
    return EpisodeScorecard(history=history, scores=scores, band_tolerance=tolerance)
