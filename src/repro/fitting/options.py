"""The :class:`EngineOptions` bundle — one object for every fit-engine knob.

:class:`EngineOptions` freezes the fit engine's configuration (``jac``,
``engine``, ``cache``, ``trace``, ``executor``, ``n_workers``, ``seed``,
``n_random_starts``, ``max_nfev``) into a single immutable, validated
value that can be built once and handed to
:func:`~repro.fitting.fit_least_squares`, :func:`~repro.fitting.fit_many`,
:func:`~repro.fitting.fit_fleet`, the table grids,
:func:`~repro.analysis.experiments.truncation_grid`,
:func:`~repro.validation.crossval.rolling_origin`,
:func:`~repro.analysis.fleet.episode_scorecard`,
:func:`~repro.analysis.pipeline.run_full_reproduction`, and the whole
:mod:`repro.serving` subsystem.

The process plumbing (``cache``, ``trace``, ``executor``,
``n_workers``) travels *only* in the bundle. The per-fit science knobs
(``jac``, ``engine``, ``seed``, ``n_random_starts``, ``max_nfev``) are
also first-class keyword arguments on the fit entry points, merged
uniformly:

* an explicit science kwarg always overrides the same field of
  ``options=`` (:meth:`EngineOptions.override`);
* an options field left at its default defers to the entry point's own
  default, so ``EngineOptions()`` is a no-op everywhere;
* environment defaults (``REPRO_FIT_EXECUTOR``, ``REPRO_FIT_WORKERS``,
  ``REPRO_FIT_CACHE``, ``REPRO_TRACE``/``REPRO_TRACE_FILE``) are applied
  in exactly one place — :meth:`EngineOptions.resolve` — which maps the
  ``None`` placeholders onto concrete cache/tracer/executor instances.

The executor has one meaning: grid entry points run their independent
cells (families, episodes, table cells) on it. A single fit always
solves its multi-starts in order, in the calling thread.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

from repro.exceptions import FitError, ParameterError
from repro.fitting.batched import ENGINE_NAMES
from repro.fitting.cache import FitCache, resolve_cache
from repro.observability.tracer import NULL_TRACER, Tracer, TracerLike, resolve_tracer
from repro.parallel import ExecutorLike, FitExecutor, available_backends, get_executor

__all__ = [
    "DEFAULT_ENGINE_OPTIONS",
    "JAC_MODES",
    "EngineOptions",
    "ResolvedEngine",
]

#: Recognized ``jac=`` modes.
JAC_MODES: tuple[str, ...] = ("auto", "analytic", "2-point")


def _is_int(value: Any) -> bool:
    """An integer that is not a bool (``True`` is an ``int`` in Python)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_int(name: str, value: Any, minimum: int, *, optional: bool) -> None:
    if optional and value is None:
        return
    if not _is_int(value) or value < minimum:
        expected = f"an integer >= {minimum}" + (" or None" if optional else "")
        raise ParameterError(f"EngineOptions.{name} must be {expected}, got {value!r}")


class ResolvedEngine(NamedTuple):
    """Concrete engine plumbing produced by :meth:`EngineOptions.resolve`.

    ``cache`` is a live :class:`~repro.fitting.cache.FitCache` or None
    (caching disabled), ``tracer`` is an enabled
    :class:`~repro.observability.Tracer` or the null tracer, and
    ``executor`` is a ready :class:`~repro.parallel.FitExecutor`.
    """

    cache: FitCache | None
    tracer: Any
    executor: FitExecutor


@dataclass(frozen=True)
class EngineOptions:
    """Immutable, validated bundle of fit-engine configuration.

    Construction checks every field's type and range (see
    :meth:`__post_init__`), so a bad value from a config file or a
    caller fails here, naming the field.

    Attributes
    ----------
    jac:
        Jacobian strategy (``"auto"``, ``"analytic"``, ``"2-point"``).
    engine:
        Solver engine (``"scipy"`` or ``"batched"``); ``None`` defers
        to the ``REPRO_FIT_ENGINE`` environment default (resolved in
        :func:`repro.fitting.batched.resolve_engine`, the engine's
        single env funnel).
    cache:
        Fit memoization: ``None`` (environment default), ``False``
        (off), ``True`` (environment default cache), or a
        :class:`~repro.fitting.cache.FitCache` instance.
    trace:
        Observability: ``None`` (environment default), ``False`` (off),
        ``True`` (process-global tracer), or a
        :class:`~repro.observability.Tracer` instance.
    executor:
        Backend name/instance the grid entry points run their
        independent cells on, ``None`` for the ``REPRO_FIT_EXECUTOR``
        default. A single fit never uses it.
    n_workers:
        Worker count for pooled backends (``None`` →
        ``REPRO_FIT_WORKERS`` or the CPU count).
    seed:
        Random-stream seed for multi-start generation (``None`` → the
        library default; fits are deterministic either way).
    n_random_starts:
        Random multi-start budget per fit.
    max_nfev:
        Residual-evaluation budget per start.
    """

    jac: str = "auto"
    engine: str | None = None
    cache: "bool | FitCache | None" = None
    trace: TracerLike = None
    executor: ExecutorLike = None
    n_workers: int | None = None
    seed: int | None = None
    n_random_starts: int = 8
    max_nfev: int = 2000

    def __post_init__(self) -> None:
        """Reject bad values here, naming the field, rather than deep in a fit.

        ``jac``/``engine``/``executor`` keep the :class:`FitError` the
        resolvers raise; every other check raises
        :class:`~repro.exceptions.ParameterError` (a ``ValueError``).
        """
        if self.jac not in JAC_MODES:
            raise FitError(f"jac must be one of {JAC_MODES}, got {self.jac!r}")
        if self.engine is not None and self.engine not in ENGINE_NAMES:
            raise FitError(f"engine must be one of {ENGINE_NAMES}, got {self.engine!r}")
        executor = self.executor
        if not (
            executor is None
            or isinstance(executor, FitExecutor)
            or (
                isinstance(executor, str)
                and executor.strip().lower() in available_backends()
            )
        ):
            raise FitError(
                f"unknown executor backend {executor!r}; "
                f"expected one of {', '.join(available_backends())}"
            )
        if not (self.cache is None or isinstance(self.cache, (bool, FitCache))):
            raise ParameterError(
                f"EngineOptions.cache must be a bool, None, or FitCache, "
                f"got {self.cache!r}"
            )
        if not (
            self.trace is None
            or isinstance(self.trace, (bool, Tracer, type(NULL_TRACER)))
        ):
            raise ParameterError(
                f"EngineOptions.trace must be a bool, None, or Tracer, "
                f"got {self.trace!r}"
            )
        _check_int("n_workers", self.n_workers, 1, optional=True)
        _check_int("seed", self.seed, 0, optional=True)
        _check_int("n_random_starts", self.n_random_starts, 0, optional=False)
        _check_int("max_nfev", self.max_nfev, 1, optional=False)

    def replace(self, **changes: Any) -> "EngineOptions":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    def override(self, **explicit: Any) -> "EngineOptions":
        """A copy where every non-``None`` entry of *explicit* wins.

        This is the "explicit kwarg overrides ``options=``" rule:
        entry points funnel their individual keyword arguments through
        here, and ``None`` (the universal "not given" default) leaves
        the options field untouched.
        """
        changes = {k: v for k, v in explicit.items() if v is not None}
        return dataclasses.replace(self, **changes) if changes else self

    def to_kwargs(self) -> dict[str, Any]:
        """Fields that differ from the defaults, as a kwargs dict.

        Default-valued fields are omitted so each entry point's own
        defaults (and internal heuristics such as warm-start budget
        shrinking) still apply when the caller did not opt in.
        """
        kwargs: dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is not DEFAULT_ENGINE_OPTIONS and value != getattr(
                DEFAULT_ENGINE_OPTIONS, field.name
            ):
                kwargs[field.name] = value
        return kwargs

    def to_dict(self) -> dict[str, Any]:
        """Every field as a JSON-serializable mapping (lossless).

        Unlike :meth:`to_kwargs` this does **not** drop default-valued
        fields: the payload reconstructs this exact bundle via
        :meth:`from_dict` even if the library's defaults change between
        writing and reading. Fields holding live component instances
        (a :class:`~repro.fitting.cache.FitCache`, a tracer, an
        executor object) cannot survive a JSON trip and raise — config
        files should name backends (``"thread"``) and use booleans for
        cache/trace.

        Raises
        ------
        ParameterError
            If ``cache``/``trace``/``executor`` hold component
            instances rather than names, booleans, or ``None``.
        """
        payload: dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not (
                value is None
                or isinstance(value, (bool, int, float, str))
            ):
                raise ParameterError(
                    f"EngineOptions.{field.name} holds a "
                    f"{type(value).__name__} instance, which cannot be "
                    f"serialized to JSON; use a backend name, a boolean, "
                    f"or None in config files"
                )
            payload[field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineOptions":
        """Rebuild a bundle from :meth:`to_dict` output.

        Unknown keys raise (a config-file typo must not silently become
        a default), missing keys keep their defaults (old config files
        stay readable when the bundle grows a field).
        """
        field_names = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - field_names)
        if unknown:
            raise ParameterError(
                f"unknown EngineOptions field(s) {unknown}; "
                f"expected a subset of {sorted(field_names)}"
            )
        return cls(**dict(payload))

    def to_json(self) -> str:
        """Canonical JSON rendering of :meth:`to_dict` (one line)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EngineOptions":
        """Inverse of :meth:`to_json`; also accepts any JSON object
        with a subset of the field names (hand-written config files)."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ParameterError(
                f"EngineOptions JSON must be an object, got "
                f"{type(payload).__name__}"
            )
        return cls.from_dict(payload)

    def resolve(self) -> ResolvedEngine:
        """Concrete cache/tracer/executor with environment defaults applied.

        The single funnel for ``REPRO_FIT_CACHE``, ``REPRO_TRACE`` /
        ``REPRO_TRACE_FILE``, and ``REPRO_FIT_EXECUTOR`` /
        ``REPRO_FIT_WORKERS``: explicit fields win, ``None`` fields fall
        back to the environment. Long-lived components (the serving
        layer) call this once and share the resolved instances.
        """
        return ResolvedEngine(
            cache=resolve_cache(self.cache),
            tracer=resolve_tracer(self.trace),
            executor=get_executor(self.executor, max_workers=self.n_workers),
        )


#: The all-defaults instance every merge compares against.
DEFAULT_ENGINE_OPTIONS = EngineOptions()
