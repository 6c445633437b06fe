"""Residual-bootstrap uncertainty for fitted resilience models.

A nonparametric companion to the asymptotic machinery in
:mod:`repro.fitting.uncertainty`: resample the fit's residuals with
replacement, rebuild synthetic curves around the fitted predictions,
refit, and read uncertainty off the ensemble of refits. More expensive
but free of the Gaussian/linearization assumptions — useful exactly
where the paper's Eq. (13) band is most questionable (small n,
near-boundary parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro._typing import ArrayLike, FloatArray
from repro.core.curve import ResilienceCurve
from repro.exceptions import ConvergenceError, FitError
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import DEFAULT_ENGINE_OPTIONS, EngineOptions
from repro.fitting.result import FitResult
from repro.models.base import ResilienceModel
from repro.parallel import get_executor
from repro.validation.intervals import ConfidenceBand

__all__ = ["BootstrapResult", "residual_bootstrap"]


@dataclass(frozen=True)
class BootstrapResult:
    """Ensemble of bootstrap refits.

    Attributes
    ----------
    parameter_samples:
        Array of shape ``(n_successful, n_params)``.
    n_requested, n_failed:
        Replication bookkeeping (failed refits are dropped).
    """

    fit: FitResult
    parameter_samples: FloatArray
    n_requested: int
    n_failed: int

    @property
    def n_successful(self) -> int:
        return int(self.parameter_samples.shape[0])

    def parameter_interval(
        self, name: str, confidence: float = 0.95
    ) -> tuple[float, float]:
        """Percentile CI for one parameter."""
        names = self.fit.model.param_names
        if name not in names:
            raise FitError(f"unknown parameter {name!r}; known: {', '.join(names)}")
        column = self.parameter_samples[:, names.index(name)]
        alpha = 1.0 - confidence
        return (
            float(np.quantile(column, alpha / 2.0)),
            float(np.quantile(column, 1.0 - alpha / 2.0)),
        )

    def prediction_band(
        self, times: ArrayLike, confidence: float = 0.95
    ) -> ConfidenceBand:
        """Pointwise percentile band of the refit predictions."""
        t = np.asarray(times, dtype=np.float64)
        family = self.fit.model
        predictions = np.stack(
            [family.evaluate(t, sample) for sample in self.parameter_samples]
        )
        alpha = 1.0 - confidence
        lower = np.quantile(predictions, alpha / 2.0, axis=0)
        upper = np.quantile(predictions, 1.0 - alpha / 2.0, axis=0)
        center = family.evaluate(t, family.params)
        sigma = float(np.sqrt(self.fit.sse / max(len(self.fit.curve) - 2, 1)))
        return ConfidenceBand(
            center=center, lower=lower, upper=upper,
            confidence=confidence, sigma=sigma,
        )


class _ReplicationWork(NamedTuple):
    """Picklable work unit: one bootstrap refit."""

    family: ResilienceModel
    curve: ResilienceCurve
    starts: tuple[tuple[float, ...], ...]
    fit_kwargs: dict


def _bootstrap_refit(work: _ReplicationWork) -> tuple[float, ...] | None:
    """Refit one synthetic curve; ``None`` encodes convergence failure
    (module-level so the process backend can pickle it)."""
    try:
        refit = fit_least_squares(
            work.family, work.curve, starts=work.starts, **work.fit_kwargs
        )
    except ConvergenceError:
        return None
    return refit.model.params


def residual_bootstrap(
    fit: FitResult,
    *,
    n_replications: int = 200,
    seed: int = 0,
    max_failure_fraction: float = 0.25,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> BootstrapResult:
    """Residual bootstrap around a least-squares fit.

    Each replication draws residuals with replacement, adds them to the
    fitted predictions, and refits the same family (seeding the
    optimizer at the original optimum for speed and stability). All
    resampling happens up front from a single seeded stream, so the
    replication set — and therefore the ensemble — is identical on
    every executor backend and worker count.

    The replications run on ``options.executor``; each refit receives
    the bundle, with caching off unless ``options.cache`` opts in
    (resampled curves never repeat a cache key). *fit_kwargs* are
    passed through to :func:`~repro.fitting.fit_least_squares`.

    Raises
    ------
    FitError
        If *n_replications* < 10 or too many refits fail.
    """
    if n_replications < 10:
        raise FitError(f"n_replications must be >= 10, got {n_replications}")
    opts = options or DEFAULT_ENGINE_OPTIONS
    if opts.cache is None:
        opts = opts.replace(cache=False)
    refit_kwargs = {**fit_kwargs, "options": opts}
    curve = fit.curve
    predictions = fit.predict(curve.times)
    residuals = curve.performance - predictions
    rng = np.random.default_rng(seed)

    starts = (fit.model.params,)
    work_units = []
    for _ in range(n_replications):
        resampled = rng.choice(residuals, size=residuals.size, replace=True)
        synthetic = ResilienceCurve(
            curve.times,
            predictions + resampled,
            nominal=curve.nominal,
            name=f"{curve.name}-boot",
        )
        work_units.append(
            _ReplicationWork(fit.model, synthetic, starts, refit_kwargs)
        )

    outcomes = get_executor(opts.executor, max_workers=opts.n_workers).map(
        _bootstrap_refit, work_units
    )
    samples = [params for params in outcomes if params is not None]
    failed = n_replications - len(samples)

    if failed > max_failure_fraction * n_replications:
        raise FitError(
            f"{failed}/{n_replications} bootstrap refits failed; "
            f"ensemble too thin to be trustworthy"
        )
    return BootstrapResult(
        fit=fit,
        parameter_samples=np.asarray(samples, dtype=np.float64),
        n_requested=n_replications,
        n_failed=failed,
    )
