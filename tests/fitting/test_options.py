"""EngineOptions: merge semantics, env precedence, and fit equivalence."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

import repro.observability.tracer as tracer_module
from repro.exceptions import FitError, ParameterError, ReproError
from repro.fitting.cache import FitCache
from repro.fitting.least_squares import fit_least_squares, fit_many
from repro.fitting.options import DEFAULT_ENGINE_OPTIONS, EngineOptions
from repro.models.registry import make_model
from repro.observability import NULL_TRACER, Tracer
from repro.parallel import SerialExecutor, ThreadExecutor

#: Cheap, hermetic engine configuration shared by the equivalence tests:
#: the plumbing rides in a bundle, the science knob goes either way.
PLUMBING = EngineOptions(cache=False, trace=False)
CHEAP = dict(n_random_starts=2)


class TestMergeSemantics:
    def test_defaults(self):
        options = EngineOptions()
        assert options.jac == "auto"
        assert options.cache is None
        assert options.trace is None
        assert options.executor is None
        assert options.n_workers is None
        assert options.seed is None
        assert options.n_random_starts == 8
        assert options.max_nfev == 2000
        assert options == DEFAULT_ENGINE_OPTIONS

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineOptions().n_random_starts = 3  # type: ignore[misc]

    def test_replace(self):
        options = EngineOptions(seed=7).replace(n_random_starts=3)
        assert options.seed == 7
        assert options.n_random_starts == 3

    def test_override_non_none_wins(self):
        options = EngineOptions(seed=7, n_random_starts=4)
        merged = options.override(seed=11, n_random_starts=None, max_nfev=None)
        assert merged.seed == 11
        assert merged.n_random_starts == 4
        assert merged.max_nfev == 2000

    def test_override_no_changes_returns_self(self):
        options = EngineOptions(seed=7)
        assert options.override(seed=None, jac=None) is options

    def test_to_kwargs_defaults_are_empty(self):
        # EngineOptions() must be a no-op everywhere: nothing to forward.
        assert EngineOptions().to_kwargs() == {}

    def test_to_kwargs_only_non_default_fields(self):
        options = EngineOptions(seed=3, n_random_starts=5, cache=False)
        assert options.to_kwargs() == {
            "seed": 3,
            "n_random_starts": 5,
            "cache": False,
        }


class TestResolveEnvPrecedence:
    """resolve() is the single funnel for the REPRO_* environment knobs."""

    def test_env_executor_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_EXECUTOR", "thread")
        assert EngineOptions().resolve().executor.name == "thread"

    def test_explicit_executor_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_EXECUTOR", "thread")
        engine = EngineOptions(executor="serial").resolve()
        assert engine.executor.name == "serial"

    def test_env_workers_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_EXECUTOR", "thread")
        monkeypatch.setenv("REPRO_FIT_WORKERS", "3")
        engine = EngineOptions().resolve()
        assert engine.executor.max_workers == 3

    def test_explicit_workers_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_WORKERS", "3")
        engine = EngineOptions(executor="thread", n_workers=2).resolve()
        assert engine.executor.max_workers == 2

    def test_env_cache_off_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_CACHE", "off")
        assert EngineOptions().resolve().cache is None

    def test_env_cache_default_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIT_CACHE", raising=False)
        assert isinstance(EngineOptions().resolve().cache, FitCache)

    def test_explicit_cache_beats_env_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_CACHE", "off")
        cache = FitCache()
        assert EngineOptions(cache=cache).resolve().cache is cache

    def test_explicit_cache_false_beats_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIT_CACHE", raising=False)
        assert EngineOptions(cache=False).resolve().cache is None

    def test_env_trace_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "_forced_tracer", None)
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
        assert EngineOptions().resolve().tracer.enabled

    def test_env_trace_off_applies_when_field_is_none(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "_forced_tracer", None)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
        assert not EngineOptions().resolve().tracer.enabled

    def test_explicit_tracer_beats_env_off(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "_forced_tracer", None)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tracer = Tracer()
        assert EngineOptions(trace=tracer).resolve().tracer is tracer

    def test_explicit_trace_false_beats_env_on(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "_forced_tracer", None)
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert not EngineOptions(trace=False).resolve().tracer.enabled


class TestFitEquivalence:
    """Science knobs given as kwargs or as options fields are interchangeable."""

    def test_options_bundle_matches_kwargs(self, simple_curve):
        family = make_model("quadratic")
        via_kwargs = fit_least_squares(
            family, simple_curve, seed=5, options=PLUMBING, **CHEAP
        )
        via_options = fit_least_squares(
            family, simple_curve, options=PLUMBING.replace(seed=5, **CHEAP)
        )
        assert via_options.model.params == via_kwargs.model.params
        assert via_options.sse == via_kwargs.sse

    def test_default_options_is_noop(self, simple_curve):
        family = make_model("quadratic")
        bare = fit_least_squares(family, simple_curve, **CHEAP)
        with_options = fit_least_squares(
            family, simple_curve, options=EngineOptions(), **CHEAP
        )
        assert with_options.model.params == bare.model.params
        assert with_options.sse == bare.sse

    def test_explicit_kwarg_overrides_options_field(self, simple_curve):
        family = make_model("quadratic")
        reference = fit_least_squares(
            family, simple_curve, seed=5, options=PLUMBING, **CHEAP
        )
        overridden = fit_least_squares(
            family,
            simple_curve,
            options=PLUMBING.replace(seed=99, **CHEAP),
            seed=5,
        )
        assert overridden.model.params == reference.model.params
        assert overridden.sse == reference.sse

    def test_fit_many_accepts_options(self, simple_curve):
        families = [make_model("quadratic"), make_model("competing_risks")]
        via_kwargs = fit_many(
            families, simple_curve, seed=5, options=PLUMBING, **CHEAP
        )
        via_options = fit_many(
            families, simple_curve, options=PLUMBING.replace(seed=5, **CHEAP)
        )
        assert sorted(via_options) == sorted(via_kwargs)
        for name in via_kwargs:
            assert via_options[name].model.params == via_kwargs[name].model.params


class TestJsonRoundTrip:
    """to_json/from_json are lossless, with a drift pin on the schema."""

    def test_field_schema_is_pinned(self):
        # Growing EngineOptions is fine — update this pin deliberately
        # when you do, and keep from_dict's missing-keys-keep-defaults
        # behavior so old config files stay readable.
        assert EngineOptions().to_dict() == {
            "jac": "auto",
            "engine": None,
            "cache": None,
            "trace": None,
            "executor": None,
            "n_workers": None,
            "seed": None,
            "n_random_starts": 8,
            "max_nfev": 2000,
        }

    def test_round_trip_is_lossless(self):
        options = EngineOptions(
            jac="2-point", engine="batched", cache=False, trace=True,
            executor="thread", n_workers=3, seed=11, n_random_starts=2,
            max_nfev=500,
        )
        assert EngineOptions.from_json(options.to_json()) == options

    def test_to_json_is_canonical_one_line(self):
        text = EngineOptions(seed=1).to_json()
        assert "\n" not in text
        assert text == EngineOptions(seed=1).to_json()

    def test_to_dict_keeps_default_valued_fields(self):
        # Unlike to_kwargs: the payload reconstructs this exact bundle
        # even if the library's defaults change between write and read.
        assert EngineOptions(seed=5).to_dict()["n_random_starts"] == 8

    def test_component_instances_refuse_to_serialize(self):
        with pytest.raises(ValueError, match="cache"):
            EngineOptions(cache=FitCache()).to_dict()
        with pytest.raises(ValueError, match="trace"):
            EngineOptions(trace=Tracer()).to_dict()

    def test_unknown_keys_raise(self):
        with pytest.raises(ValueError, match="unknown EngineOptions field"):
            EngineOptions.from_dict({"n_random_start": 3})

    def test_subset_payload_keeps_defaults(self):
        assert EngineOptions.from_json('{"seed": 9}') == EngineOptions(seed=9)

    def test_non_object_json_raises(self):
        with pytest.raises(ValueError, match="must be an object"):
            EngineOptions.from_json("[1, 2]")


class TestLoosePlumbingRemoved:
    """cache/trace/executor/n_workers travel only inside options=."""

    @pytest.mark.parametrize("name", ["cache", "trace", "executor", "n_workers"])
    def test_fit_least_squares_rejects_loose_plumbing(self, simple_curve, name):
        with pytest.raises(TypeError, match=name):
            fit_least_squares(
                make_model("quadratic"), simple_curve, **{name: None}
            )


#: Every field name, plus JSON values of every shape for the fuzzer.
FIELD_NAMES = [field.name for field in dataclasses.fields(EngineOptions)]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(
        ["auto", "analytic", "2-point", "scipy", "batched", "serial",
         "thread", "process", "4", ""]
    )
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


class TestValidation:
    """EngineOptions rejects bad values at construction, naming the field."""

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"n_random_starts": "4"}, "n_random_starts"),
            ({"n_random_starts": -1}, "n_random_starts"),
            ({"seed": 1.5}, "seed"),
            ({"seed": -3}, "seed"),
            ({"max_nfev": -5}, "max_nfev"),
            ({"max_nfev": True}, "max_nfev"),
            ({"n_workers": 0}, "n_workers"),
            ({"n_workers": False}, "n_workers"),
            ({"cache": "yes"}, "cache"),
            ({"trace": 1}, "trace"),
        ],
    )
    def test_bad_json_values_raise_parameter_error(self, payload, field):
        with pytest.raises(ParameterError, match=f"EngineOptions.{field}"):
            EngineOptions.from_json(json.dumps(payload))

    def test_parameter_error_is_a_value_error(self):
        # The CLI's --options-file handler maps ValueError to exit 1.
        with pytest.raises(ValueError):
            EngineOptions(n_workers=0)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"jac": "3-point"}, "jac must be one of"),
            ({"engine": "turbo"}, "engine must be one of"),
            ({"executor": "gpu"}, "unknown executor backend"),
        ],
    )
    def test_resolver_errors_keep_fit_error(self, changes, message):
        with pytest.raises(FitError, match=message):
            EngineOptions(**changes)

    def test_override_validates(self):
        with pytest.raises(ParameterError, match="n_random_starts"):
            EngineOptions().override(n_random_starts="8")

    def test_component_instances_accepted(self):
        options = EngineOptions(
            cache=FitCache(), trace=Tracer(), executor=ThreadExecutor(2)
        )
        assert options.n_workers is None
        assert EngineOptions(trace=NULL_TRACER, executor=SerialExecutor())
        assert EngineOptions(executor=" Thread ").executor == " Thread "

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(FIELD_NAMES), JSON_VALUES))
    def test_any_json_object_builds_or_raises_repro_error(self, payload):
        text = json.dumps(payload)
        try:
            options = EngineOptions.from_json(text)
        except ReproError:
            return
        assert EngineOptions.from_json(options.to_json()) == options
