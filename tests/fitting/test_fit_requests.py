"""The list form of the fit core: one ``_fit_requests`` call equals a
loop of :func:`~repro.fitting.fit_least_squares`, slot by slot.

Grids (``fit_many``, the tables, the scorecard, the refit tick, the
bootstrap) fit through one ``_fit_requests`` call, which stacks every
request's starts into one screen and reduces the cells on the call's
executor. Stacking and the executor must change nothing a caller can
see: every result is bit-identical to the request's own single fit, and
every error lands in its request's slot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._typing import ArrayLike, FloatArray
from repro.core.curve import ResilienceCurve
from repro.exceptions import ConvergenceError, FitError
from repro.fitting.least_squares import _fit_request, _fit_requests, fit_least_squares
from repro.fitting.multistart import generate_starts
from repro.fitting.options import EngineOptions
from repro.models.quadratic import QuadraticResilienceModel
from repro.models.registry import make_model

FAMILIES = {name: make_model(name) for name in ("quadratic", "wei-exp")}


class _ExplodingModel(QuadraticResilienceModel):
    """Predictions of ~1e200 make every start's SSE overflow to inf."""

    name = "exploding"

    def evaluate(self, times: ArrayLike, params) -> FloatArray:
        return np.full_like(self._as_times(times), 1e200)

    def evaluate_batch(self, times: FloatArray, params: FloatArray) -> FloatArray:
        return np.full((np.shape(params)[0], np.shape(times)[-1]), 1e200)


def _dip(n_points: int, seed: int, name: str) -> ResilienceCurve:
    """A noisy recession-shaped dip with its trough near the middle."""
    times = np.arange(float(n_points))
    rng = np.random.default_rng(seed)
    middle = n_points / 2.0
    values = 1.0 - 0.1 * np.exp(-(((times - middle) / (n_points / 4.0)) ** 2))
    return ResilienceCurve(times, values + rng.normal(0.0, 2e-3, n_points), name=name)


REQUEST = st.tuples(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(12, 40),
    st.booleans(),  # explicit starts
    st.booleans(),  # extra starts
    st.booleans(),  # weights
)


def _requests(specs, seed, options):
    requests = []
    for index, (name, n_points, with_starts, with_extra, with_weights) in enumerate(specs):
        family = FAMILIES[name]
        curve = _dip(n_points, seed + index, f"c{index}")
        heuristic = generate_starts(family, curve, n_random=1, seed=seed)
        kwargs = {}
        if with_starts:
            kwargs["starts"] = heuristic[:2]
        if with_extra:
            kwargs["extra_starts"] = heuristic[-1:]
        if with_weights:
            kwargs["weights"] = np.random.default_rng(seed).uniform(0.5, 2.0, n_points)
        requests.append(_fit_request(family, curve, options=options, **kwargs))
    short = ResilienceCurve([0.0, 1.0, 2.0], [1.0, 0.9, 0.95], name="short")
    requests.append(_fit_request(FAMILIES["quadratic"], short, options=options))
    requests.append(
        _fit_request(_ExplodingModel(), _dip(12, seed, "boom"), options=options)
    )
    return requests


def _reference(request):
    try:
        return fit_least_squares(
            request.family,
            request.curve,
            options=request.options,
            starts=request.starts,
            extra_starts=request.extra_starts,
            weights=request.weights,
        )
    except FitError as exc:
        return exc


def _assert_same(got, want):
    if isinstance(want, FitError):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    assert got.model.params == want.model.params
    assert got.sse == want.sse
    assert got.converged == want.converged
    assert got.n_starts == want.n_starts
    assert got.n_failures == want.n_failures
    assert got.engine == want.engine
    for key in ("winner_start", "nfev", "njev"):
        assert got.details[key] == want.details[key], key


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFitRequestsParity:
    @settings(max_examples=3, deadline=None)
    @given(
        specs=st.lists(REQUEST, min_size=2, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_one_call_equals_a_loop_of_single_fits(self, specs, seed):
        for engine in ("scipy", "batched"):
            options = EngineOptions(
                cache=False, trace=False, engine=engine, n_random_starts=1, seed=seed
            )
            requests = _requests(specs, seed, options)
            reference = [_reference(request) for request in requests]
            assert isinstance(reference[-2], FitError)
            assert isinstance(reference[-1], ConvergenceError)
            for executor in ("serial", "thread"):
                stacked = _fit_requests(
                    [
                        request._replace(
                            options=request.options.replace(
                                executor=executor, n_workers=2
                            )
                        )
                        for request in requests
                    ]
                )
                assert len(stacked) == len(requests)
                for got, want in zip(stacked, reference):
                    _assert_same(got, want)
