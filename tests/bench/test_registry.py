"""Registry invariants: coverage, uniqueness, and spec validation."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.artifact import ARTIFACT_REQUIRED_KEYS
from repro.bench.registry import (
    BenchContext,
    MetricSpec,
    Workload,
    get_workload,
    iter_workloads,
    register_workload,
    registered_scripts,
    suite_names,
    workload_names,
)
from repro.bench.workloads import BENCH_SCRIPTS
from repro.exceptions import BenchError

ROOT = Path(__file__).resolve().parents[2]


class TestScriptCoverage:
    def test_every_benchmark_script_is_registered(self):
        """The suite wraps ALL 16 paper-artifact benchmarks/bench_*.py
        scripts — a new script must get a workload (this test is the
        reminder)."""
        on_disk = sorted(
            p.name for p in (ROOT / "benchmarks").glob("bench_*.py")
        )
        assert len(on_disk) == 16
        assert on_disk == sorted(BENCH_SCRIPTS)
        assert sorted(registered_scripts()) == on_disk
        assert sorted(workload_names("scripts")) == sorted(
            registered_scripts().values()
        )

    def test_script_workloads_belong_to_scripts_suite(self):
        for script, workload_name in registered_scripts().items():
            workload = get_workload(workload_name)
            assert workload.script == script
            assert "scripts" in workload.suites

    def test_suites(self):
        assert suite_names() == ["full", "scripts", "smoke"]
        assert workload_names("smoke") == [
            "smoke.fit_engine",
            "smoke.fleet",
            "smoke.kernels",
            "smoke.serving",
            "smoke.serving_load",
            "smoke.table3",
            "smoke.trace",
        ]
        assert workload_names("full") == [
            "full.fit_engine",
            "full.fleet",
            "full.jacobian",
            "full.service",
            "full.serving",
            "full.trace",
        ]
        assert len(workload_names("scripts")) == 16
        # Each workload belongs to exactly one suite.
        assert all(len(w.suites) == 1 for w in iter_workloads())

    def test_every_committed_artifact_has_one_full_writer(self):
        assert {
            f"BENCH_{name.split('.', 1)[1]}.json"
            for name in workload_names("full")
        } == set(ARTIFACT_REQUIRED_KEYS)


class TestRegistry:
    def test_unknown_workload_is_a_clear_error(self):
        with pytest.raises(BenchError, match="unknown workload"):
            get_workload("smoke.does_not_exist")

    def test_duplicate_registration_rejected(self):
        existing = next(iter_workloads("smoke"))
        with pytest.raises(BenchError, match="already registered"):
            register_workload(existing)

    def test_iter_workloads_is_sorted(self):
        names = [w.name for w in iter_workloads()]
        assert names == sorted(names)


class TestSpecs:
    def test_metric_spec_validation(self):
        with pytest.raises(BenchError, match="kind"):
            MetricSpec("x", kind="bogus")
        with pytest.raises(BenchError, match="direction"):
            MetricSpec("x", direction="sideways")
        with pytest.raises(BenchError, match="tolerance"):
            MetricSpec("x", tolerance=0.5)

    def test_workload_rejects_duplicate_metrics(self):
        with pytest.raises(BenchError, match="twice"):
            Workload(
                name="dup",
                runner=lambda ctx: {},
                metrics=(MetricSpec("a"), MetricSpec("a")),
            )

    def test_workload_metric_lookup(self):
        workload = get_workload("smoke.fit_engine")
        assert workload.metric("scipy_nfev").kind == "counted"
        assert workload.metric("engine_speedup").direction == "higher"
        with pytest.raises(BenchError, match="does not declare"):
            workload.metric("nope")

    def test_every_declared_metric_has_a_kind(self):
        for workload in iter_workloads():
            for spec in workload.metrics:
                assert spec.kind in ("counted", "wall", "info")

    def test_context_defaults(self, tmp_path):
        from repro.fitting.options import EngineOptions

        context = BenchContext(options=EngineOptions(), workdir=tmp_path)
        assert context.workdir == tmp_path
