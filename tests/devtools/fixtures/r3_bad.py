"""R3 fixture: entry points that take engine plumbing outside options=."""

__all__ = ["engine_widget", "fit_widget", "serve_widget", "sweep_widget"]


def fit_widget(curve, *, options=None, cache=None, trace=None, executor=None):
    """Takes loose plumbing next to the options bundle."""
    return curve, options, cache, trace, executor


def engine_widget(curve, *, engine=None):
    """Takes an engine choice but no options bundle."""
    return curve, engine


def serve_widget(stream, *, options=None, executor=None):
    """Registered entry point that leaks an engine knob."""
    return stream, options, executor


def sweep_widget(grid, *, executor=None, n_workers=None):
    """Registered grid that reads its pool size loose, without options=."""
    return grid, executor, n_workers
