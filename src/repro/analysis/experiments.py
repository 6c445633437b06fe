"""Per-artifact reproduction functions (Tables I–IV, Figures 1–6).

Every function is deterministic and parameterized only by protocol
knobs (training fraction, confidence level, multi-start budget) so the
benchmark harness can regenerate each artifact in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.curve import ResilienceCurve
from repro.datasets.recessions import RECESSION_NAMES, load_all_recessions, load_recession
from repro.datasets.synthetic import make_shape_curve
from repro.exceptions import DataError
from repro.fitting.options import DEFAULT_ENGINE_OPTIONS, EngineOptions
from repro.metrics.predictive import PredictiveMetricReport, predictive_metric_report
from repro.models.registry import make_model
from repro.observability.tracer import activate, resolve_tracer
from repro.parallel import get_executor
from repro.utils.ascii_plot import ascii_plot
from repro.utils.tables import format_table
from repro.validation.crossval import (
    PredictiveEvaluation,
    _warm_start_kwargs,
    evaluate_predictive,
)

__all__ = [
    "BATHTUB_MODEL_NAMES",
    "MIXTURE_MODEL_NAMES",
    "TableOneResult",
    "TableMetricsResult",
    "TruncationGridResult",
    "FigureResult",
    "table1",
    "table2",
    "table3",
    "table4",
    "truncation_grid",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure_by_id",
]

#: The two bathtub families of Table I.
BATHTUB_MODEL_NAMES: tuple[str, ...] = ("quadratic", "competing_risks")

#: The four mixture pairings of Table III (with the β·ln t trend).
MIXTURE_MODEL_NAMES: tuple[str, ...] = ("exp-exp", "wei-exp", "exp-wei", "wei-wei")

#: Fitting fraction: the paper fits "the first 90% of each data set".
DEFAULT_TRAIN_FRACTION = 0.9


@dataclass
class TableOneResult:
    """Validation measures for a set of models on every recession.

    ``cells[dataset][model]`` is the :class:`PredictiveEvaluation` for
    that pair. Covers both Table I (bathtub models) and Table III
    (mixtures) — they share the layout.
    """

    model_names: tuple[str, ...]
    cells: dict[str, dict[str, PredictiveEvaluation]] = field(default_factory=dict)
    title: str = ""

    def measure(self, dataset: str, model: str, name: str) -> float:
        """One measure value, e.g. ``measure("1990-93", "quadratic", "pmse")``."""
        return float(getattr(self.cells[dataset][model].measures, name))

    def to_table(self) -> str:
        """Aligned text table in the paper's layout (one row block per
        dataset, one column per model)."""
        headers = ["Recession", "n", "Measure"] + list(self.model_names)
        rows: list[list[object]] = []
        for dataset, by_model in self.cells.items():
            any_eval = next(iter(by_model.values()))
            n = len(any_eval.train) + len(any_eval.test)
            for measure, label in (
                ("sse", "SSE"),
                ("pmse", "PMSE"),
                ("r2_adjusted", "r2_adj"),
                ("empirical_coverage", "EC"),
            ):
                row: list[object] = [dataset, n, label]
                for model in self.model_names:
                    value = self.measure(dataset, model, measure)
                    row.append(f"{value:.2%}" if measure == "empirical_coverage" else value)
                rows.append(row)
        return format_table(headers, rows, title=self.title)


@dataclass
class TableMetricsResult:
    """Interval-metric reports for several models on one dataset
    (Tables II and IV)."""

    dataset: str
    reports: dict[str, PredictiveMetricReport] = field(default_factory=dict)
    title: str = ""

    def to_table(self) -> str:
        """Metrics as rows, models as (actual, predicted, δ) column
        triples — the paper's Table II/IV layout."""
        model_names = list(self.reports)
        headers = ["Metric", "Actual"]
        for model in model_names:
            headers += [f"{model}:pred", f"{model}:delta"]
        first = next(iter(self.reports.values()))
        rows: list[list[object]] = []
        for comparison in first.rows:
            row: list[object] = [comparison.name, comparison.actual]
            for model in model_names:
                other = self.reports[model].row(comparison.name)
                row += [other.predicted, other.delta]
            rows.append(row)
        return format_table(headers, rows, title=self.title)


@dataclass
class FigureResult:
    """Data behind one figure: named (times, values) series.

    ``series`` maps a label to a pair of lists; :meth:`to_ascii`
    renders the terminal chart the figure benches print.
    """

    figure_id: str
    caption: str
    series: dict[str, tuple[list[float], list[float]]] = field(default_factory=dict)

    def to_ascii(self, width: int = 72, height: int = 20) -> str:
        """ASCII rendering of all series on shared axes."""
        chart = ascii_plot(
            {label: (t, v) for label, (t, v) in self.series.items()},
            width=width,
            height=height,
            title=f"{self.figure_id}: {self.caption}",
        )
        return chart


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
class _SweepCell(NamedTuple):
    """Picklable work unit: one (dataset, model) grid cell."""

    dataset: str
    curve: ResilienceCurve
    model: str
    train_fraction: float
    confidence: float
    fit_kwargs: dict


def _evaluate_cell(cell: _SweepCell) -> PredictiveEvaluation:
    """Evaluate one grid cell (module-level so the process backend can
    pickle it)."""
    return evaluate_predictive(
        make_model(cell.model),
        cell.curve,
        train_fraction=cell.train_fraction,
        confidence=cell.confidence,
        **cell.fit_kwargs,
    )


def _validation_sweep(
    model_names: tuple[str, ...],
    *,
    train_fraction: float,
    confidence: float,
    title: str,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> TableOneResult:
    """Evaluate every (dataset, model) cell of a Table I/III-style grid.

    The cells are independent fitting problems, so the grid runs on
    ``options.executor``; results are assembled in grid order, making
    the table identical on every backend. Every cell's fit receives the
    bundle itself plus *fit_kwargs*. Enabling tracing (via
    ``options.trace``) additionally wraps the whole grid in one
    ``"table.grid"`` span.
    """
    opts = options or DEFAULT_ENGINE_OPTIONS
    tracer = resolve_tracer(opts.trace)
    recessions = load_all_recessions()
    cell_kwargs = {**fit_kwargs, "options": opts}
    cells = [
        _SweepCell(
            dataset_name, curve, model_name, train_fraction, confidence,
            cell_kwargs,
        )
        for dataset_name, curve in recessions.items()
        for model_name in model_names
    ]
    with tracer.span(
        "table.grid", title=title, n_cells=len(cells)
    ), activate(tracer):
        evaluations = get_executor(opts.executor, max_workers=opts.n_workers).map(
            _evaluate_cell, cells
        )
    result = TableOneResult(model_names=model_names, title=title)
    for cell, evaluation in zip(cells, evaluations):
        result.cells.setdefault(cell.dataset, {})[cell.model] = evaluation
    return result


def table1(
    *,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    confidence: float = 0.95,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> TableOneResult:
    """Table I: quadratic vs competing-risks on all seven recessions."""
    return _validation_sweep(
        BATHTUB_MODEL_NAMES,
        train_fraction=train_fraction,
        confidence=confidence,
        title="Table I — Validation of prediction using two bathtub functions",
        options=options,
        **fit_kwargs,
    )


def table3(
    *,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    confidence: float = 0.95,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> TableOneResult:
    """Table III: the four mixture pairings on all seven recessions."""
    return _validation_sweep(
        MIXTURE_MODEL_NAMES,
        train_fraction=train_fraction,
        confidence=confidence,
        title="Table III — Validation of prediction using mixture distributions",
        options=options,
        **fit_kwargs,
    )


class _MetricCell(NamedTuple):
    """Picklable work unit: one model column of a Table II/IV report."""

    dataset: str
    curve: ResilienceCurve
    model: str
    train_fraction: float
    alpha: float
    fit_kwargs: dict


def _evaluate_metric_cell(cell: _MetricCell) -> PredictiveMetricReport:
    evaluation = evaluate_predictive(
        make_model(cell.model),
        cell.curve,
        train_fraction=cell.train_fraction,
        **cell.fit_kwargs,
    )
    return predictive_metric_report(
        evaluation.model, cell.curve, evaluation.split_time, alpha=cell.alpha
    )


def _metric_table(
    model_names: tuple[str, ...],
    dataset: str,
    *,
    train_fraction: float,
    alpha: float,
    title: str,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> TableMetricsResult:
    opts = options or DEFAULT_ENGINE_OPTIONS
    tracer = resolve_tracer(opts.trace)
    curve = load_recession(dataset)
    cell_kwargs = {**fit_kwargs, "options": opts}
    cells = [
        _MetricCell(dataset, curve, model_name, train_fraction, alpha, cell_kwargs)
        for model_name in model_names
    ]
    with tracer.span(
        "table.metrics", title=title, n_cells=len(cells)
    ), activate(tracer):
        reports = get_executor(opts.executor, max_workers=opts.n_workers).map(
            _evaluate_metric_cell, cells
        )
    result = TableMetricsResult(dataset=dataset, title=title)
    for cell, report in zip(cells, reports):
        result.reports[cell.model] = report
    return result


def table2(
    dataset: str = "1990-93",
    *,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    alpha: float = 0.5,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> TableMetricsResult:
    """Table II: interval metrics for the bathtub models on 1990-93."""
    return _metric_table(
        BATHTUB_MODEL_NAMES,
        dataset,
        train_fraction=train_fraction,
        alpha=alpha,
        title="Table II — Interval-based resilience metrics (bathtub models)",
        options=options,
        **fit_kwargs,
    )


def table4(
    dataset: str = "1990-93",
    *,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    alpha: float = 0.5,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> TableMetricsResult:
    """Table IV: interval metrics for the four mixtures on 1990-93."""
    return _metric_table(
        MIXTURE_MODEL_NAMES,
        dataset,
        train_fraction=train_fraction,
        alpha=alpha,
        title="Table IV — Interval-based resilience metrics (mixture models)",
        options=options,
        **fit_kwargs,
    )


@dataclass
class TruncationGridResult:
    """Truncation-sweep evaluations over training fractions.

    ``cells[dataset][model][fraction]`` is the
    :class:`PredictiveEvaluation` for that (dataset, model, train
    fraction) triple. The grid generalizes the Table I/III protocol
    from the paper's single 90% fraction to a sweep, showing how each
    family's held-out PMSE degrades as less of the curve is observed.
    """

    model_names: tuple[str, ...]
    fractions: tuple[float, ...]
    cells: dict[str, dict[str, dict[float, PredictiveEvaluation]]] = field(
        default_factory=dict
    )
    title: str = ""

    def measure(
        self, dataset: str, model: str, fraction: float, name: str
    ) -> float:
        """One measure value, e.g. ``measure("1990-93", "wei-exp", 0.8, "pmse")``."""
        return float(getattr(self.cells[dataset][model][fraction].measures, name))

    def to_table(self) -> str:
        """PMSE grid: one row per (dataset, fraction), one column per
        model."""
        headers = ["Recession", "train%"] + list(self.model_names)
        rows: list[list[object]] = []
        for dataset, by_model in self.cells.items():
            for fraction in self.fractions:
                row: list[object] = [dataset, f"{fraction:.0%}"]
                for model in self.model_names:
                    row.append(self.measure(dataset, model, fraction, "pmse"))
                rows.append(row)
        return format_table(headers, rows, title=self.title)


class _TruncationChain(NamedTuple):
    """Picklable work unit: one (dataset, model) pair swept over every
    training fraction, warm-starting each prefix from the previous."""

    dataset: str
    curve: ResilienceCurve
    model: str
    fractions: tuple[float, ...]
    confidence: float
    warm_start: bool
    warm_n_random_starts: int
    options: EngineOptions
    fit_kwargs: dict


def _evaluate_chain(
    chain: _TruncationChain,
) -> tuple[str, str, dict[float, PredictiveEvaluation]]:
    """Evaluate one warm-start chain (module-level so the process
    backend can pickle it).

    Fractions are visited in ascending order; each prefix's optimum is
    injected as an extra start for the next prefix, whose random-start
    budget shrinks to ``warm_n_random_starts`` — adjacent prefixes share
    most of their data, so the previous optimum is almost always in the
    right basin already.
    """
    evaluations: dict[float, PredictiveEvaluation] = {}
    previous_optimum: tuple[float, ...] | None = None
    for fraction in chain.fractions:
        kwargs = _warm_start_kwargs(
            chain.fit_kwargs,
            chain.options,
            previous_optimum if chain.warm_start else None,
            chain.warm_n_random_starts,
        )
        evaluation = evaluate_predictive(
            make_model(chain.model),
            chain.curve,
            train_fraction=fraction,
            confidence=chain.confidence,
            options=chain.options,
            **kwargs,
        )
        evaluations[fraction] = evaluation
        previous_optimum = evaluation.model.params
    return chain.dataset, chain.model, evaluations


def truncation_grid(
    model_names: tuple[str, ...] = MIXTURE_MODEL_NAMES,
    *,
    fractions: tuple[float, ...] = (0.7, 0.8, 0.9),
    datasets: tuple[str, ...] | None = None,
    confidence: float = 0.95,
    warm_start: bool = True,
    warm_n_random_starts: int = 2,
    options: EngineOptions | None = None,
    **fit_kwargs: object,
) -> TruncationGridResult:
    """Sweep the Table I/III protocol over several training fractions.

    Each (dataset, model) pair forms an independent chain that walks the
    fractions in ascending order with warm-start propagation (see
    :func:`_evaluate_chain`); chains run in parallel on
    ``options.executor``. Results are assembled in grid order, so the
    table is identical on every backend.

    Parameters
    ----------
    model_names:
        Families to sweep; defaults to the four mixtures.
    fractions:
        Training fractions, swept in ascending order per chain.
    datasets:
        Recession names to include; ``None`` uses all seven.
    warm_start, warm_n_random_starts:
        Warm-start propagation along each chain: inject the previous
        prefix's optimum as an extra start and shrink the random-start
        budget for every fraction after the first. ``warm_start=False``
        makes every cell an independent full multi-start fit.
    options:
        :class:`~repro.fitting.options.EngineOptions` bundle handed to
        every fit; explicit science *fit_kwargs* win over its fields.
        An explicit ``n_random_starts`` (a kwarg or a non-default
        options field) disables the warm-chain budget shrink.
    fit_kwargs:
        Passed through to :func:`~repro.fitting.fit_least_squares`.
    """
    opts = options or DEFAULT_ENGINE_OPTIONS
    if not fractions:
        raise DataError("truncation_grid needs at least one training fraction")
    ordered_fractions = tuple(sorted(float(f) for f in fractions))
    if datasets is None:
        recessions = load_all_recessions()
    else:
        recessions = {name: load_recession(name) for name in datasets}
    tracer = resolve_tracer(opts.trace)
    chains = [
        _TruncationChain(
            dataset_name, curve, model_name, ordered_fractions, confidence,
            warm_start, warm_n_random_starts, opts, fit_kwargs,
        )
        for dataset_name, curve in recessions.items()
        for model_name in model_names
    ]
    with tracer.span(
        "truncation.grid",
        n_chains=len(chains),
        n_fractions=len(ordered_fractions),
        warm_start=warm_start,
    ), activate(tracer):
        triples = get_executor(opts.executor, max_workers=opts.n_workers).map(
            _evaluate_chain, chains
        )
    result = TruncationGridResult(
        model_names=tuple(model_names),
        fractions=ordered_fractions,
        title="Truncation sweep — held-out PMSE by training fraction",
    )
    for dataset_name, model_name, evaluations in triples:
        result.cells.setdefault(dataset_name, {})[model_name] = evaluations
    return result


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def _as_series(times: np.ndarray, values: np.ndarray) -> tuple[list[float], list[float]]:
    return [float(t) for t in times], [float(v) for v in values]


def figure1() -> FigureResult:
    """Figure 1: conceptual resilience curve with three recovery outcomes
    (degraded, nominal, improved), drawn from synthetic U curves."""
    base = make_shape_curve("U", depth=0.10, noise_std=0.0, n_points=60, horizon=59.0)
    result = FigureResult(
        figure_id="Figure 1",
        caption="Conceptual resilience curve (bathtub shape)",
    )
    times = base.times
    nominal_curve = base.performance
    # Recovery outcome variants: scale the post-trough branch.
    trough = int(np.argmin(nominal_curve))
    degraded = nominal_curve.copy()
    degraded[trough:] = nominal_curve[trough] + 0.6 * (
        nominal_curve[trough:] - nominal_curve[trough]
    )
    improved = nominal_curve.copy()
    improved[trough:] = nominal_curve[trough] + 1.4 * (
        nominal_curve[trough:] - nominal_curve[trough]
    )
    result.series["nominal recovery"] = _as_series(times, nominal_curve)
    result.series["degraded recovery"] = _as_series(times, degraded)
    result.series["improved recovery"] = _as_series(times, improved)
    return result


def figure2() -> FigureResult:
    """Figure 2: payroll change in the seven U.S. recessions."""
    result = FigureResult(
        figure_id="Figure 2",
        caption="Payroll change in U.S. recessions from peak employment",
    )
    for name, curve in load_all_recessions().items():
        result.series[name] = _as_series(curve.times, curve.performance)
    return result


def _fit_figure(
    figure_id: str,
    dataset: str,
    model_names: tuple[str, ...],
    *,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    confidence: float = 0.95,
    **fit_kwargs: object,
) -> FigureResult:
    curve = load_recession(dataset)
    labels = " and ".join(model_names)
    result = FigureResult(
        figure_id=figure_id,
        caption=f"{labels} fit to {dataset} U.S. recession data ({confidence:.0%} CI)",
    )
    result.series[f"{dataset} data"] = _as_series(curve.times, curve.performance)
    for model_name in model_names:
        evaluation = evaluate_predictive(
            make_model(model_name),
            curve,
            train_fraction=train_fraction,
            confidence=confidence,
            **fit_kwargs,
        )
        band = evaluation.band
        result.series[f"{model_name} fit"] = _as_series(curve.times, band.center)
        result.series[f"{model_name} CI lower"] = _as_series(curve.times, band.lower)
        result.series[f"{model_name} CI upper"] = _as_series(curve.times, band.upper)
    return result


def figure3(**kwargs: object) -> FigureResult:
    """Figure 3: quadratic model fit to the 2001-05 recession."""
    return _fit_figure("Figure 3", "2001-05", ("quadratic",), **kwargs)


def figure4(**kwargs: object) -> FigureResult:
    """Figure 4: competing-risks model fit to the 1990-93 recession."""
    return _fit_figure("Figure 4", "1990-93", ("competing_risks",), **kwargs)


def figure5(**kwargs: object) -> FigureResult:
    """Figure 5: Weibull-Exponential mixture fit to the 1990-93 recession."""
    return _fit_figure("Figure 5", "1990-93", ("wei-exp",), **kwargs)


def figure6(**kwargs: object) -> FigureResult:
    """Figure 6: Exp-Wei and Wei-Wei mixture fits to the 1981-83 recession."""
    return _fit_figure("Figure 6", "1981-83", ("exp-wei", "wei-wei"), **kwargs)


def figure_by_id(figure_id: int, **kwargs: object) -> FigureResult:
    """Dispatch ``figure_by_id(3)`` → :func:`figure3` etc."""
    dispatch = {1: figure1, 2: figure2, 3: figure3, 4: figure4, 5: figure5, 6: figure6}
    if figure_id not in dispatch:
        raise DataError(f"no figure {figure_id}; the paper has figures 1-6")
    if figure_id in (1, 2):
        return dispatch[figure_id]()
    return dispatch[figure_id](**kwargs)
