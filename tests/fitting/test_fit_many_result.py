"""FitManyResult ergonomics: ``best()``, ``failures``, copy/pickle."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.exceptions import ConvergenceError
from repro.fitting.least_squares import FitManyResult, fit_many
from repro.fitting.options import EngineOptions
from repro.models.registry import make_model

CHEAP = dict(n_random_starts=2, options=EngineOptions(cache=False, trace=False))


@pytest.fixture()
def results(simple_curve):
    return fit_many(
        [make_model("quadratic"), make_model("competing_risks")],
        simple_curve,
        seed=3,
        **CHEAP,
    )


class TestBest:
    def test_best_returns_lowest_sse(self, results):
        best = results.best()
        assert best.sse == min(fit.sse for fit in results.values())

    def test_best_raises_when_empty(self):
        empty = FitManyResult({}, failures={"quadratic": "did not converge"})
        with pytest.raises(ConvergenceError, match="quadratic"):
            empty.best()


class TestFailuresRoundTrip:
    """``.failures`` must survive every way a dict gets duplicated.

    Plain ``dict`` subclasses silently drop extra attributes through
    ``copy.copy`` and pickling; these are regression tests for the
    explicit ``copy``/``__reduce__`` support.
    """

    def test_copy_method(self, results):
        duplicate = results.copy()
        assert isinstance(duplicate, FitManyResult)
        assert duplicate.failures == results.failures
        assert sorted(duplicate) == sorted(results)

    def test_copy_module(self, results):
        duplicate = copy.copy(results)
        assert isinstance(duplicate, FitManyResult)
        assert duplicate.failures == results.failures

    def test_pickle_round_trip(self, results):
        revived = pickle.loads(pickle.dumps(results))
        assert isinstance(revived, FitManyResult)
        assert revived.failures == results.failures
        assert sorted(revived) == sorted(results)
        for name in results:
            assert revived[name].sse == results[name].sse
            assert revived[name].model.params == results[name].model.params

    def test_pickle_preserves_nonempty_failures(self, simple_curve):
        seeded = FitManyResult(
            fit_many([make_model("quadratic")], simple_curve, **CHEAP),
            failures={"mixture": "boom"},
        )
        revived = pickle.loads(pickle.dumps(seeded))
        assert revived.failures == {"mixture": "boom"}
