"""Wall-time regression guard for the fit engine.

Tier-1 smoke bounds on the hot paths the perf work optimized. Three
kinds of guard, by flake risk:

* **counter guards** (nfev/njev/iteration budgets, bit-identity) —
  deterministic for a fixed seed, always asserted;
* **relative guards** (batched-vs-scalar, fleet-vs-loop speedups) —
  machine-speed immune, always asserted;
* **pure wall-clock bounds** (absolute seconds) — opt-in behind the
  ``REPRO_PERF_STRICT`` environment variable, because an absolute
  bound on a loaded CI box measures the scheduler, not the code. The
  bounds themselves stay deliberately generous (~5× the measured
  single-CPU baseline) so even in strict mode they only trip on
  *catastrophic* regressions.

The full measurement story lives in
``benchmarks/bench_perf_fit_engine.py`` / ``BENCH_fit_engine.json``
and the ``repro bench`` smoke suite (``docs/benchmarks.md``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro._env import read_env
from repro.datasets.recessions import load_recession
from repro.fitting.least_squares import fit_least_squares
from repro.fitting.options import EngineOptions
from repro.models.base import ResilienceModel
from repro.models.registry import make_model
from repro.utils.integrate import adaptive_quad

#: Pure wall-clock assertions are opt-in: absolute second bounds flake
#: on loaded CI machines, so they only run when the caller asks.
wall_clock_guard = pytest.mark.skipif(
    not read_env("REPRO_PERF_STRICT"),
    reason="pure wall-clock bound; set REPRO_PERF_STRICT=1 to enforce",
)

#: Multi-start mixture fit: ~1.4 s measured baseline.
FIT_BOUND_SECONDS = 10.0
#: 20 batched AUC + 20 recovery-time evaluations: ~0.03 s baseline.
KERNEL_BOUND_SECONDS = 2.0
#: The batched AUC kernel replaces hundreds of scalar ``predict`` calls
#: per integral (measured ~90×); below 5× it has effectively regressed
#: to scalar evaluation.
AUC_MIN_SPEEDUP = 5.0
#: Residual-evaluation budget for the guarded fit: ~2000 measured with
#: the analytic-Jacobian engine (the 2-point engine needs ~4× more), so
#: 5× headroom only trips if the engine falls back to differencing or
#: the solver starts thrashing.
FIT_NFEV_BOUND = 10_000
#: Batched-engine screening budget: the same 10-start wei-exp fit
#: spends ~900 LM iterations across the whole batch and ~0.2 s of wall
#: time; the bounds only trip if the damping schedule stops making
#: progress (iterations explode) or the kernel loses its vectorization.
BATCHED_FIT_BOUND_SECONDS = 5.0
BATCHED_ITERATION_BOUND = 10_000


@pytest.fixture(scope="module")
def mixture_fit():
    curve = load_recession("1990-93")
    start = time.perf_counter()
    fit = fit_least_squares(make_model("wei-exp"), curve, n_random_starts=2)
    return fit, time.perf_counter() - start


@pytest.fixture(scope="module")
def batched_mixture_fit():
    curve = load_recession("1990-93")
    start = time.perf_counter()
    fit = fit_least_squares(
        make_model("wei-exp"), curve, n_random_starts=2,
        options=EngineOptions(cache=False), engine="batched",
    )
    return fit, time.perf_counter() - start


class TestPerfGuard:
    @wall_clock_guard
    def test_multistart_fit_wall_time(self, mixture_fit):
        _, elapsed = mixture_fit
        assert elapsed < FIT_BOUND_SECONDS, (
            f"multi-start wei-exp fit took {elapsed:.1f}s "
            f"(bound {FIT_BOUND_SECONDS}s) — catastrophic fit-path slowdown"
        )

    def test_fit_residual_evaluation_budget(self, mixture_fit):
        """nfev-regression guard: the analytic-Jacobian engine should
        answer this 10-start mixture fit in ~2k residual evaluations;
        blowing through 5× that means the closed form stopped being
        used (or stopped helping)."""
        fit, _ = mixture_fit
        assert fit.details["jac_mode"] == "analytic"
        assert fit.details["njev"] > 0, "analytic Jacobian was never called"
        assert fit.details["nfev"] < FIT_NFEV_BOUND, (
            f"wei-exp fit spent {fit.details['nfev']} residual evaluations "
            f"(bound {FIT_NFEV_BOUND}) — Jacobian path regression"
        )

    @wall_clock_guard
    def test_batched_engine_wall_time(self, batched_mixture_fit):
        _, elapsed = batched_mixture_fit
        assert elapsed < BATCHED_FIT_BOUND_SECONDS, (
            f"batched multi-start wei-exp fit took {elapsed:.1f}s "
            f"(bound {BATCHED_FIT_BOUND_SECONDS}s) — screening kernel slowdown"
        )

    def test_batched_engine_iteration_budget(self, batched_mixture_fit):
        """Screening-budget guard: the batched LM kernel answers all ten
        starts of this fit in ~900 iterations total; blowing through
        10× that means the damping schedule stopped converging."""
        fit, _ = batched_mixture_fit
        iterations = sum(fit.details["per_start_iterations"])
        assert iterations < BATCHED_ITERATION_BOUND, (
            f"batched wei-exp screening spent {iterations} LM iterations "
            f"(bound {BATCHED_ITERATION_BOUND}) — damping-schedule regression"
        )

    def test_batched_engine_matches_scipy(self, mixture_fit, batched_mixture_fit):
        """Tier-1 parity guard: the batched winner is re-solved by scipy
        from its own start, so the fitted parameters must be
        bit-identical to the per-start scipy engine's."""
        ref, _ = mixture_fit
        alt, _ = batched_mixture_fit
        assert alt.engine == "batched"
        assert alt.params == ref.params
        assert alt.sse == ref.sse
        assert alt.details["confirm_nfev"] > 0

    @wall_clock_guard
    def test_derived_quantity_wall_time(self, mixture_fit):
        fit, _ = mixture_fit
        model = fit.model
        level = 0.995 * float(model.predict(np.array([60.0]))[0])
        start = time.perf_counter()
        for _ in range(20):
            ResilienceModel.area_under_curve(model, 0.0, 60.0)
            ResilienceModel.recovery_time(model, level)
        elapsed = time.perf_counter() - start
        assert elapsed < KERNEL_BOUND_SECONDS, (
            f"20 derived-quantity rounds took {elapsed:.2f}s "
            f"(bound {KERNEL_BOUND_SECONDS}s) — numeric-kernel slowdown"
        )

    def test_batched_auc_beats_scalar_quadrature(self, mixture_fit):
        """Relative guard, immune to machine speed: the batched kernel
        must decisively beat the scalar adaptive-quad path it replaced."""
        fit, _ = mixture_fit
        model = fit.model

        def scalar_area() -> float:
            return adaptive_quad(
                lambda t: float(model.predict(np.array([t]))[0]), 0.0, 60.0
            )

        def batched_area() -> float:
            return ResilienceModel.area_under_curve(model, 0.0, 60.0)

        # Warm both paths, then take best-of-5 to shed scheduler noise.
        scalar_value, batched_value = scalar_area(), batched_area()
        assert batched_value == pytest.approx(scalar_value, abs=1e-6)

        def best_of(func) -> float:
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                func()
                best = min(best, time.perf_counter() - start)
            return best

        scalar_best, batched_best = best_of(scalar_area), best_of(batched_area)
        assert batched_best * AUC_MIN_SPEEDUP < scalar_best, (
            f"batched AUC ({batched_best * 1e3:.2f} ms) is not ≥"
            f"{AUC_MIN_SPEEDUP}× faster than scalar quad "
            f"({scalar_best * 1e3:.2f} ms) — kernel regressed to scalar"
        )


class TestFleetPerfGuard:
    """Relative guard on cross-episode batching (machine-speed immune).

    The full measurement (100k episodes, three engines, RSS proof)
    lives in ``benchmarks/bench_fleet.py`` / ``BENCH_fleet.json``; this
    tier-1 smoke only asserts that stacking episodes into one kernel
    solve still beats the per-episode scipy loop at all. Measured ~4×
    on this 32-episode slice; the 1.5× bound trips only if the fleet
    path regresses to per-episode solving.
    """

    FLEET_MIN_SPEEDUP = 1.5

    def test_cross_episode_beats_per_episode_loop(self, tmp_path):
        from repro.datasets.outage import generate_fleet
        from repro.fitting.fleet import fit_fleet

        store = generate_fleet(32, tmp_path / "fleet", seed=13)
        family = make_model("quadratic")

        start = time.perf_counter()
        fleet = fit_fleet(store, ("quadratic",), engine="batched")
        fleet_elapsed = time.perf_counter() - start

        start = time.perf_counter()
        looped = [
            fit_least_squares(
                family, curve, engine="batched", options=EngineOptions(cache=False)
            )
            for curve in store
        ]
        loop_elapsed = time.perf_counter() - start

        # Same-engine bit-identity rides along for free.
        for i, reference in enumerate(looped):
            cell = fleet.fit(i, "quadratic")
            assert tuple(cell.params) == tuple(reference.params)
            assert cell.sse == reference.sse

        assert fleet_elapsed * self.FLEET_MIN_SPEEDUP < loop_elapsed, (
            f"fit_fleet took {fleet_elapsed:.2f}s vs {loop_elapsed:.2f}s for "
            f"the per-episode loop (bound {self.FLEET_MIN_SPEEDUP}×) — "
            "cross-episode batching regressed to per-episode solving"
        )
