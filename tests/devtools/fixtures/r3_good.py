"""R3 fixture: entry points honoring the options= contract."""

__all__ = ["engine_widget", "fit_widget", "serve_widget", "sweep_widget"]


def fit_widget(curve, *, options=None, seed=None):
    return curve, options, seed


def engine_widget(curve, *, options=None, engine=None):
    return curve, options, engine


def serve_widget(stream, *, options=None):
    return stream, options


def sweep_widget(grid, *, options=None):
    return grid, options
