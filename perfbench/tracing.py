"""In-memory span tracer installed around the program's public entry points.

The benchmark times each layer from outside: :func:`install` replaces
every layer entry point with a wrapper that records a
span (name, start, end, thread, parent) and, for some layers, counts
taken from the call's arguments or result. A wrapper is installed at
every module attribute that holds the original function, because
callers such as ``repro.fitting.fleet`` import ``solve_batched`` by
name; the module it was found in becomes the span's call site.

Spans stay in memory for the whole run; :func:`summarize` turns them
into the per-layer metrics at the end.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterator

#: Prefixes of shorter curves count as "short" (the batched engine's
#: slow case); longer ones as "long".
SHORT_PREFIX_POINTS = 16

# Span record fields (lists, mutated in place while the span is open);
# OWN is the time the tracer itself spent on the span (bookkeeping,
# result hooks, counters); EXTRA is appended by some layers' result hooks.
NAME, START, END, TID, PARENT, CHILD_S, SITE, OWN, EXTRA = range(9)


class Tracer:
    """Spans with a parent stack per thread, plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: Counter[str] = Counter()
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        site: str = "",
        after: Callable[[list[Any], tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """*fn* wrapped in a span called *name*; *after* sees the result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            enter = time.perf_counter()
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, threading.get_ident(), parent, 0.0, site, 0.0]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    tracer.spans[parent][CHILD_S] += end - record[START]
            if after is not None:
                after(record, args, kwargs, result)
            record[OWN] += record[START] - enter + time.perf_counter() - end
            return result

        return wrapper

    def wrap_iterator(
        self,
        name: str,
        fn: Callable[..., Iterator[Any]],
        after: Callable[[Any], None],
    ) -> Callable[..., Iterator[Any]]:
        """Generator *fn* with one span per item it produces."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = fn(*args, **kwargs)
            step = tracer.wrap(name, lambda: next(iterator, _DONE))
            while True:
                item = step()
                if item is _DONE:
                    return
                after(item)
                yield item

        return wrapper


_DONE = object()


def _patch_everywhere(original: Any, replacement: Callable[[str], Any]) -> None:
    """Replace *original* at every ``repro`` module attribute holding it
    with ``replacement(module_name)``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement(module_name))


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points.

    Must run after ``repro`` and its submodules are imported and before
    the workload calls into them.
    """
    import numpy
    import scipy.optimize

    import repro.analysis.experiments as experiments
    import repro.datasets.outage as outage
    import repro.datasets.store as store
    import repro.fitting.batched as batched
    import repro.fitting.cache as cache
    import repro.fitting.fleet as fleet
    import repro.fitting.least_squares as least_squares
    import repro.metrics.predictive as predictive
    import repro.models.base as models_base
    import repro.serving.online as online
    import repro.serving.session as session
    import repro.validation.intervals as intervals

    def everywhere(name: str, original: Any, after: Any = None) -> None:
        _patch_everywhere(
            original, lambda site: tracer.wrap(name, original, site=site, after=after)
        )

    def on_batched(record: list[Any], args: tuple, kwargs: dict, outcomes: Any) -> None:
        problems = args[0]
        rows = sum(len(p.times) for p in problems)
        useful = sum(
            len(p.times) if p.sqrt_weights is None else sum(1 for w in p.sqrt_weights if w)
            for p in problems
        )
        with tracer._lock:
            c = tracer.counters
            c["fitting.batched.problems"] += len(problems)
            c["fitting.batched.rows"] += rows
            c["fitting.batched.useful_rows"] += useful
            c["fitting.batched.lm_iterations"] += sum(o.n_iterations for o in outcomes)
            c["fitting.batched.nfev"] += sum(o.nfev for o in outcomes)
            c["fitting.batched.njev"] += sum(o.njev for o in outcomes)

    def on_fit(record: list[Any], args: tuple, kwargs: dict, fit: Any) -> None:
        site = record[SITE].replace("repro.", "")
        n_points = len(args[1]) if len(args) > 1 else len(kwargs["curve"])
        span = "short" if n_points < SHORT_PREFIX_POINTS else "long"
        nfev = fit.details.get("nfev", 0)
        with tracer._lock:
            c = tracer.counters
            c[f"fits_by_engine.{site}.{fit.engine}"] += 1
            c[f"fitting.least_squares.fits_{fit.engine}"] += 1
            c[f"fitting.least_squares.{span}.{fit.engine}.fits"] += 1
            c[f"fitting.least_squares.{span}.{fit.engine}.nfev"] += nfev
            c[f"fitting.least_squares.{span}.{fit.engine}.s"] += record[END] - record[START]

    def on_confirm(record: list[Any], args: tuple, kwargs: dict, result: Any) -> None:
        if kwargs.get("engine_mode") == "batched":
            tracer.count("fitting.confirm.cells")

    everywhere("fitting.batched", batched.solve_batched, on_batched)
    everywhere("fitting.least_squares", least_squares.fit_least_squares, on_fit)
    everywhere("fitting.select_confirm", least_squares._select_and_confirm, on_confirm)
    everywhere("fitting.fleet", fleet.fit_fleet)
    everywhere("datasets.outage", outage.generate_fleet)
    everywhere("metrics.interval", predictive.predictive_metric_report)
    everywhere("validation.confidence_band", intervals.confidence_band)
    for number in (1, 2, 3, 4):
        name = f"table{number}"
        everywhere(f"analysis.experiments.{name}", getattr(experiments, name))

    # The scipy solve: a confirm when it runs under _select_and_confirm,
    # a scipy-engine start otherwise. nfev counts every residual call,
    # finite-difference ones included, as the repo's own counters do.
    scipy_solve = scipy.optimize.least_squares
    solve_spans = {
        kind: tracer.wrap(f"fitting.{kind}", scipy_solve) for kind in ("confirm", "scipy_solve")
    }

    @functools.wraps(scipy_solve)
    def traced_solve(fun: Any, *args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return scipy_solve(fun, *args, **kwargs)
        stack = tracer._stack()
        under_confirm = bool(stack) and tracer.spans[stack[-1]][NAME] == "fitting.select_confirm"
        kind = "confirm" if under_confirm else "scipy_solve"

        def counted(*a: Any, **k: Any) -> Any:
            t0 = time.perf_counter()
            tracer.count(f"fitting.{kind}.nfev")
            tracer.spans[tracer._stack()[-1]][OWN] += time.perf_counter() - t0
            return fun(*a, **k)

        return solve_spans[kind](counted, *args, **kwargs)

    scipy.optimize.least_squares = traced_solve

    numpy.linalg.solve = tracer.wrap("numpy.linalg.solve", numpy.linalg.solve)

    def on_chunk(chunk: Any) -> None:
        nbytes = sum(
            getattr(chunk, column).nbytes
            for column in ("lengths", "labels", "nominal", "times", "values")
        )
        tracer.count("datasets.store.bytes_read", nbytes)

    store.EpisodeStore.iter_chunks = tracer.wrap_iterator(
        "datasets.store", store.EpisodeStore.iter_chunks, on_chunk
    )

    cache_get = cache.FitCache.get

    def on_cache_get(record: list[Any], args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count("fitting.cache.lookups")

    cache.FitCache.get = tracer.wrap("fitting.cache", cache_get, after=on_cache_get)

    # Every model class's own batch kernels (subclasses override them).
    for cls in _subclasses(models_base.ResilienceModel):
        for attr, layer in (
            ("evaluate_batch", "models.evaluate_batch"),
            ("prediction_jacobian_batch", "models.jacobian_batch"),
        ):
            if attr in vars(cls):
                setattr(cls, attr, tracer.wrap(layer, vars(cls)[attr]))

    def on_execute(record: list[Any], args: tuple, kwargs: dict, fits: Any) -> None:
        record.append(len(fits))

    for attr, after in (
        ("refit_plans", None),
        ("execute_refits", on_execute),
        ("adopt_refits", None),
    ):
        setattr(
            session.ForecastSession,
            attr,
            tracer.wrap(f"serving.session.{attr}", getattr(session.ForecastSession, attr), after=after),
        )

    online.OnlineForecaster.forecast = tracer.wrap("serving.online", online.OnlineForecaster.forecast)


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return list(dict.fromkeys(found))


def layer_times(
    spans: list[list[Any]], window: tuple[float, float] | None = None
) -> dict[str, dict[str, float]]:
    """Calls, busy time and self time per span name.

    With *window*, only spans that start inside it count.
    """
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        if window is not None and not window[0] <= span[START] < window[1]:
            continue
        entry = table.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - span[CHILD_S]
    return table


def _inside(span: list[Any], windows: list[tuple[float, float]]) -> bool:
    return any(lo <= span[START] < hi for lo, hi in windows)


def thread_accounting(
    spans: list[list[Any]], thread: int, windows: list[tuple[float, float]]
) -> dict[str, float]:
    """Wall time of *windows* on *thread* split into layer self time
    and the unattributed remainder (the two sum to the wall time)."""
    inside = [s for s in spans if s[TID] == thread and _inside(s, windows)]
    self_s = sum(s[END] - s[START] - s[CHILD_S] for s in inside)
    wall = sum(hi - lo for lo, hi in windows)
    return {"wall_s": wall, "self_s": self_s, "unattributed_s": wall - self_s}


def bookkeeping_share(spans: list[list[Any]], window: tuple[float, float]) -> float:
    """Time the tracer spent on the spans started in *window*, on any
    thread, as a share of the window's wall time."""
    own = sum(s[OWN] for s in spans if _inside(s, [window]))
    return own / (window[1] - window[0])


def summarize(
    tracer: Tracer,
    thread: int,
    account_windows: list[tuple[float, float]],
    overhead_share: float,
    time_window: tuple[float, float] | None = None,
) -> dict[str, float]:
    """The per-layer metrics every workload reports.

    Times come from spans starting inside *time_window* (all spans when
    it is None); counts from the tracer's counters. ``trace.*`` splits
    the wall time of *account_windows* on *thread* into layer self time
    and the unattributed remainder; *overhead_share* is the caller's
    measure of the tracing overhead.
    """
    times = layer_times(tracer.spans, time_window)
    c = tracer.counters

    def span(name: str, key: str) -> float:
        return times.get(name, {}).get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {
        "fitting.batched.calls": span("fitting.batched", "calls"),
        "fitting.batched.problems_per_call": ratio(
            c["fitting.batched.problems"], span("fitting.batched", "calls")
        ),
        "fitting.batched.busy_s": span("fitting.batched", "busy_s"),
        "fitting.batched.self_s": span("fitting.batched", "self_s"),
        "fitting.batched.lm_iterations": c["fitting.batched.lm_iterations"],
        "fitting.batched.nfev": c["fitting.batched.nfev"],
        "fitting.batched.njev": c["fitting.batched.njev"],
        "fitting.least_squares.calls": span("fitting.least_squares", "calls"),
        "fitting.least_squares.self_s": span("fitting.least_squares", "self_s"),
        "fitting.least_squares.fits_batched": c["fitting.least_squares.fits_batched"],
        "fitting.least_squares.fits_scipy": c["fitting.least_squares.fits_scipy"],
        "fitting.confirm.calls": span("fitting.confirm", "calls"),
        "fitting.confirm.busy_s": span("fitting.confirm", "busy_s"),
        "fitting.confirm.nfev": c["fitting.confirm.nfev"],
        "fitting.confirm.calls_per_cell": ratio(
            span("fitting.confirm", "calls"), c["fitting.confirm.cells"]
        ),
        "fitting.scipy_solve.calls": span("fitting.scipy_solve", "calls"),
        "fitting.scipy_solve.busy_s": span("fitting.scipy_solve", "busy_s"),
        "fitting.cache.lookups": c["fitting.cache.lookups"],
        "models.evaluate_batch.calls": span("models.evaluate_batch", "calls"),
        "models.evaluate_batch.busy_s": span("models.evaluate_batch", "busy_s"),
        "models.jacobian_batch.calls": span("models.jacobian_batch", "calls"),
        "models.jacobian_batch.busy_s": span("models.jacobian_batch", "busy_s"),
        "numpy.linalg.solve.calls": span("numpy.linalg.solve", "calls"),
        "numpy.linalg.solve.busy_s": span("numpy.linalg.solve", "busy_s"),
        "fitting.fleet.wall_s": span("fitting.fleet", "busy_s"),
        "fitting.fleet.useful_row_share": ratio(
            c["fitting.batched.useful_rows"], c["fitting.batched.rows"]
        ),
        "datasets.outage.busy_s": span("datasets.outage", "busy_s"),
        "datasets.store.busy_s": span("datasets.store", "busy_s"),
        "datasets.store.bytes_read": c["datasets.store.bytes_read"],
        "metrics.interval.calls": span("metrics.interval", "calls"),
        "metrics.interval.busy_s": span("metrics.interval", "busy_s"),
        "validation.confidence_band.calls": span("validation.confidence_band", "calls"),
        "validation.confidence_band.busy_s": span("validation.confidence_band", "busy_s"),
    }
    for number in (1, 2, 3, 4):
        out[f"analysis.experiments.table{number}_s"] = span(
            f"analysis.experiments.table{number}", "busy_s"
        )
    for length in ("short", "long"):
        fits = c[f"fitting.least_squares.{length}.batched.fits"]
        out[f"fitting.least_squares.batched_{length}_fits"] = fits
        out[f"fitting.least_squares.batched_{length}_nfev_per_fit"] = ratio(
            c[f"fitting.least_squares.{length}.batched.nfev"], fits
        )
        out[f"fitting.least_squares.batched_{length}_ms_per_fit"] = 1e3 * ratio(
            c[f"fitting.least_squares.{length}.batched.s"], fits
        )
    for site in ("validation.crossval", "serving.session", "serving.online"):
        for engine in ("batched", "scipy"):
            out[f"fits_by_engine.{site}.{engine}"] = c[f"fits_by_engine.{site}.{engine}"]
    account = thread_accounting(tracer.spans, thread, account_windows)
    out["trace.wall_s"] = account["wall_s"]
    out["trace.self_s"] = account["self_s"]
    out["trace.unattributed_s"] = account["unattributed_s"]
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_share"] = overhead_share
    return out
