"""Backend-invariance of the fitting stack.

The executor must be a pure performance knob: the same fits (bit for
bit) must come back from the serial, thread, and process backends, at
any worker count. The executor parallelizes grid cells only (the
families of :func:`fit_many`, the episodes of a scorecard); a single
fit always solves its starts in order. That hinges on two properties
tested here — random starts are a pure function of ``(seed, index)``,
and every reduction happens in input order — plus one pool per grid
call, never one per cell.
"""

import logging

import numpy as np
import pytest

import repro.parallel.executor as executor_module
from repro.analysis.experiments import table1
from repro.analysis.fleet import episode_scorecard
from repro.core.curve import ResilienceCurve
from repro.exceptions import ConvergenceError
from repro.fitting.least_squares import fit_many
from repro.fitting.multistart import generate_starts
from repro.fitting.options import EngineOptions
from repro.models.registry import make_model

BACKENDS = ("serial", "thread", "process")

#: Hermetic plumbing for every comparison below.
NO_CACHE = EngineOptions(cache=False, trace=False)


@pytest.fixture(scope="module")
def history():
    """Two disruption episodes in a 60-sample history."""
    p = np.ones(60)
    p[10:20] = [0.95, 0.88, 0.82, 0.80, 0.82, 0.86, 0.90, 0.94, 0.97, 0.995]
    p[35:47] = [0.96, 0.90, 0.86, 0.84, 0.845, 0.86, 0.89, 0.92, 0.95, 0.97, 0.99, 0.995]
    return ResilienceCurve(np.arange(60.0), p, nominal=1.0, name="plant")


class TestBackendBitIdentity:
    @pytest.mark.parametrize("family_name", ["quadratic", "competing_risks"])
    def test_serial_thread_process_identical(self, family_name, recession_1990):
        families = [make_model(family_name), make_model("wei-exp")]
        fits = {
            backend: fit_many(
                families,
                recession_1990,
                n_random_starts=4,
                options=NO_CACHE.replace(executor=backend, n_workers=2),
            )
            for backend in BACKENDS
        }
        reference = fits["serial"]
        for backend in BACKENDS[1:]:
            assert list(fits[backend]) == list(reference), backend
            for name, fit in fits[backend].items():
                assert fit.model.params == reference[name].model.params, backend
                assert fit.sse == reference[name].sse, backend
                assert (
                    fit.details["per_start_sse"]
                    == reference[name].details["per_start_sse"]
                ), backend

    def test_worker_count_does_not_change_result(self, history):
        cards = [
            episode_scorecard(
                history,
                model="quadratic",
                n_random_starts=4,
                options=NO_CACHE.replace(executor="thread", n_workers=workers),
            )
            for workers in (1, 4)
        ]
        one, four = (card.scores for card in cards)
        assert len(one) == len(four) == 2
        for a, b in zip(one, four):
            assert a.fit.model.params == b.fit.model.params
            assert a.fit.sse == b.fit.sse

    def test_scorecard_serial_thread_process_identical(self, history):
        cards = {
            backend: episode_scorecard(
                history,
                model="competing_risks",
                n_random_starts=2,
                options=NO_CACHE.replace(executor=backend, n_workers=2),
            )
            for backend in BACKENDS
        }
        reference = cards["serial"].scores
        for backend in BACKENDS[1:]:
            for a, b in zip(cards[backend].scores, reference):
                assert a.fit.model.params == b.fit.model.params, backend
                assert a.predicted_recovery == b.predicted_recovery, backend


class TestNestedParallelism:
    """One grid call builds one pool: the cells' fits never build their own."""

    @pytest.fixture
    def pools(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_EXECUTOR", "thread")
        monkeypatch.setenv("REPRO_FIT_WORKERS", "2")
        built = []
        real_init = executor_module.ThreadExecutor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(executor_module.ThreadExecutor, "__init__", counting_init)
        return built

    def test_fit_many_builds_one_pool(self, pools, recession_1990):
        result = fit_many(
            [make_model("quadratic"), make_model("competing_risks")],
            recession_1990,
            n_random_starts=2,
            options=NO_CACHE,
        )
        assert len(result) == 2
        assert len(pools) == 1

    def test_table1_builds_one_pool(self, pools):
        table = table1(n_random_starts=0, options=NO_CACHE)
        assert len(table.cells) == 7
        assert len(pools) == 1


class TestStartStreamInvariance:
    def test_start_i_depends_only_on_seed_and_index(self, recession_1990):
        """Growing n_random extends the start list without disturbing
        the earlier entries — the property that makes start generation
        independent of batching and backend."""
        family = make_model("competing_risks")
        few = generate_starts(family, recession_1990, n_random=3)
        many = generate_starts(family, recession_1990, n_random=8)
        assert many[: len(few)] == few

    def test_generation_is_reproducible(self, recession_1990):
        family = make_model("wei-exp")
        assert generate_starts(family, recession_1990) == generate_starts(
            family, recession_1990
        )

    def test_seed_changes_the_random_starts(self, recession_1990):
        family = make_model("competing_risks")
        default = generate_starts(family, recession_1990, n_random=4)
        reseeded = generate_starts(family, recession_1990, n_random=4, seed=7)
        assert default != reseeded


class TestFitManyFailures:
    def test_failures_recorded_and_logged(self, recession_1990, monkeypatch, caplog):
        """A family that fails to converge lands in .failures with its
        error message (and a warning log) instead of vanishing."""
        import repro.fitting.least_squares as ls

        real = ls.fit_least_squares

        def flaky(family, curve, **kwargs):
            if family.name == "competing_risks":
                raise ConvergenceError("forced failure")
            return real(family, curve, **kwargs)

        monkeypatch.setattr(ls, "fit_least_squares", flaky)
        with caplog.at_level(logging.WARNING, logger="repro.fitting"):
            result = fit_many(
                [make_model("quadratic"), make_model("competing_risks")],
                recession_1990,
                n_random_starts=0,
            )
        assert set(result) == {"quadratic"}
        assert result.failures == {"competing_risks": "forced failure"}
        assert result.converged_names == ("quadratic",)
        assert result.failed_names == ("competing_risks",)
        assert "failed to converge" in caplog.text

    def test_no_failures_means_empty_mapping(self, recession_1990):
        result = fit_many(
            [make_model("quadratic")], recession_1990, n_random_starts=0
        )
        assert result.failures == {}
        assert result.failed_names == ()
        # Still behaves like the plain dict it used to be.
        assert isinstance(result, dict)
        assert list(result) == ["quadratic"]
