"""Every grid/pipeline entry point takes its engine plumbing only as
``options=EngineOptions(...)``, and a science knob behaves the same
whether it is passed as a kwarg or as an options field."""

from __future__ import annotations

import inspect

import pytest

from repro.analysis.experiments import (
    table1,
    table2,
    table3,
    table4,
    truncation_grid,
)
from repro.analysis.fleet import episode_scorecard
from repro.analysis.pipeline import run_full_reproduction
from repro.fitting import EngineOptions
from repro.models.registry import make_model
from repro.validation.crossval import rolling_origin

#: Cheap, hermetic engine knobs used on both sides of each comparison:
#: the plumbing always rides in a bundle, the science knobs go either way.
PLUMBING = EngineOptions(cache=False, trace=False)
SCIENCE = dict(seed=5, n_random_starts=2)
CHEAP = dict(options=PLUMBING, **SCIENCE)
CHEAP_OPTIONS = PLUMBING.replace(**SCIENCE)

ENTRY_POINTS = [
    table1,
    table2,
    table3,
    table4,
    truncation_grid,
    rolling_origin,
    episode_scorecard,
    run_full_reproduction,
]


class TestSignatures:
    """Every consolidated entry point exposes ``options=`` and nothing else
    for the plumbing.

    The expensive grids (the four tables, the full pipeline) are
    covered behaviorally through their shared ``_validation_sweep``
    path by the cheap cases below; this pins the public signature for
    all of them.
    """

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS)
    def test_accepts_options_keyword(self, entry_point):
        parameters = inspect.signature(entry_point).parameters
        assert "options" in parameters
        assert parameters["options"].default is None

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS)
    def test_takes_no_loose_plumbing(self, entry_point):
        parameters = inspect.signature(entry_point).parameters
        assert not {"cache", "trace", "executor", "n_workers"} & set(parameters)


class TestRollingOrigin:
    def test_options_bundle_matches_kwargs(self, recession_1990):
        family = make_model("quadratic")
        via_kwargs = rolling_origin(
            family, recession_1990, min_train=12, step=12, **CHEAP
        )
        via_options = rolling_origin(
            family, recession_1990, min_train=12, step=12,
            options=CHEAP_OPTIONS,
        )
        assert via_options == via_kwargs

    def test_explicit_kwarg_overrides_options_field(self, recession_1990):
        family = make_model("quadratic")
        reference = rolling_origin(
            family, recession_1990, min_train=12, step=12, **CHEAP
        )
        overridden = rolling_origin(
            family, recession_1990, min_train=12, step=12,
            options=CHEAP_OPTIONS.replace(seed=99), seed=5,
        )
        assert overridden == reference


class TestTruncationGrid:
    def test_options_bundle_matches_kwargs(self):
        common = dict(
            model_names=("quadratic",),
            fractions=(0.9,),
            datasets=("1980",),
        )
        via_kwargs = truncation_grid(**common, **CHEAP)
        via_options = truncation_grid(**common, options=CHEAP_OPTIONS)
        assert via_options.to_table() == via_kwargs.to_table()
        assert (
            via_options.cells["1980"]["quadratic"][0.9].measures
            == via_kwargs.cells["1980"]["quadratic"][0.9].measures
        )

    def test_options_executor_field_selects_grid_backend(self):
        via_options = truncation_grid(
            model_names=("quadratic",),
            fractions=(0.9,),
            datasets=("1980",),
            options=CHEAP_OPTIONS.replace(executor="thread", n_workers=2),
        )
        via_kwargs = truncation_grid(
            model_names=("quadratic",),
            fractions=(0.9,),
            datasets=("1980",),
            **CHEAP,
        )
        assert via_options.to_table() == via_kwargs.to_table()


class TestEpisodeScorecard:
    def test_options_bundle_matches_kwargs(self, recession_1990):
        common = dict(model="quadratic", tolerance=0.005)
        via_kwargs = episode_scorecard(recession_1990, **common, **CHEAP)
        via_options = episode_scorecard(
            recession_1990, **common, options=CHEAP_OPTIONS
        )
        assert via_options.n_episodes == via_kwargs.n_episodes
        for ours, theirs in zip(via_options.scores, via_kwargs.scores):
            assert ours.fit.model.params == theirs.fit.model.params
            assert ours.fit.sse == theirs.fit.sse


class TestValidationSweep:
    def test_table1_options_bundle_matches_kwargs(self):
        # One full sweep each way is the costliest comparison here, so it
        # runs with the trimmed multi-start budget on the serial backend.
        via_kwargs = table1(**CHEAP)
        via_options = table1(options=CHEAP_OPTIONS)
        assert via_options.to_table() == via_kwargs.to_table()
