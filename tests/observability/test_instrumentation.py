"""Instrumentation through the real fit engine, cache, and executors.

These are integration tests: they drive ``fit_least_squares`` and the
executor backends with a live :class:`Tracer` and assert the span tree
and metrics the observability layer promises — and, just as load-
bearing, that tracing never changes the numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.recessions import load_recession
from repro.fitting.cache import FitCache
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import EngineOptions
from repro.models.registry import make_model
from repro.observability.tracer import Tracer, activate, disable_tracing
from repro.parallel import get_executor


@pytest.fixture(autouse=True)
def _no_forced_tracer():
    yield
    disable_tracing()


@pytest.fixture
def curve():
    return load_recession("1990-93")


class TestFitInstrumentation:
    def test_fit_span_carries_solver_attribution(self, curve):
        tracer = Tracer()
        fit_least_squares(
            make_model("quadratic"), curve, n_random_starts=3,
            options=EngineOptions(trace=tracer, cache=False),
        )
        (fit_span,) = tracer.spans_named("fit")
        attrs = fit_span["attrs"]
        assert attrs["family"] == "quadratic"
        assert attrs["curve"] == "1990-93"
        assert attrs["converged"] is True
        assert attrs["cache_hit"] is False
        assert attrs["nfev"] > 0
        assert attrs["jac_mode"] in ("analytic", "2-point", "3-point", "cs")

    def test_per_start_spans_parented_to_fit(self, curve):
        tracer = Tracer()
        result = fit_least_squares(
            make_model("quadratic"), curve, n_random_starts=3,
            options=EngineOptions(trace=tracer, cache=False),
        )
        (fit_span,) = tracer.spans_named("fit")
        starts = tracer.spans_named("fit.start")
        assert len(starts) == result.n_starts
        assert {s["parent"] for s in starts} == {fit_span["id"]}
        assert all(s["dur_s"] > 0 for s in starts)
        # The same timings are surfaced on the result for offline use.
        assert len(result.details["per_start_seconds"]) == result.n_starts

    def test_cache_hit_attribution(self, curve):
        cache = FitCache()
        tracer = Tracer()
        family = make_model("quadratic")
        options = EngineOptions(trace=tracer, cache=cache)
        fit_least_squares(family, curve, options=options)
        fit_least_squares(family, curve, options=options)
        cold, warm = tracer.spans_named("fit")
        assert cold["attrs"]["cache_hit"] is False
        assert warm["attrs"]["cache_hit"] is True
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] == 1

    def test_tracing_does_not_change_results(self, curve):
        family = make_model("quadratic")
        plain = fit_least_squares(
            family, curve, n_random_starts=3, options=EngineOptions(cache=False)
        )
        traced = fit_least_squares(
            family, curve, n_random_starts=3,
            options=EngineOptions(cache=False, trace=Tracer()),
        )
        np.testing.assert_array_equal(plain.model.params, traced.model.params)
        assert plain.sse == traced.sse
        assert plain.n_starts == traced.n_starts

    def test_trace_false_emits_nothing(self, curve):
        tracer = Tracer()
        with activate(tracer):
            fit_least_squares(
                make_model("quadratic"),
                curve,
                options=EngineOptions(trace=False, cache=False),
            )
        assert tracer.spans == []


class TestExecutorInstrumentation:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_map_span_attributes(self, backend):
        tracer = Tracer()
        executor = get_executor(backend, max_workers=2)
        with activate(tracer):
            results = executor.map(abs, [-1, 2, -3])
        assert results == [1, 2, 3]
        (span,) = tracer.spans_named("executor.map")
        assert span["attrs"]["backend"] == backend
        assert span["attrs"]["n_items"] == 3
        if backend == "thread":
            assert span["attrs"]["dispatch_s"] >= 0.0
            assert span["attrs"]["drain_s"] >= 0.0

    def test_untraced_map_emits_nothing(self):
        tracer = Tracer()
        executor = get_executor("thread", max_workers=2)
        results = executor.map(abs, [-1, 2, -3])  # no activate()
        assert results == [1, 2, 3]
        assert tracer.spans == []

    def test_traced_map_preserves_exception_propagation(self):
        tracer = Tracer()

        def explode(x):
            raise RuntimeError("boom")

        with activate(tracer), pytest.raises(RuntimeError):
            get_executor("thread", max_workers=2).map(explode, [1, 2])
        # The map span is still emitted, flagged with the error.
        (span,) = tracer.spans_named("executor.map")
        assert span["attrs"]["error"] == "RuntimeError"


class TestGridInstrumentation:
    def test_table_span_wraps_fits(self, curve):
        from repro.analysis.experiments import table2

        tracer = Tracer()
        table2("1990-93", n_random_starts=2, options=EngineOptions(trace=tracer))
        grids = tracer.spans_named("table.metrics")
        assert len(grids) == 1
        fits = tracer.spans_named("fit")
        assert len(fits) == 2  # two bathtub models on one dataset
        assert all(f["parent"] is not None for f in fits)
