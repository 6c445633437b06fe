"""Every lint rule: one fixture module that must trigger it, one that
must not, plus targeted behavior checks (suppressions, allowlists,
entry-point specs)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.findings import Finding, is_suppressed, suppressions_for
from repro.devtools.lint import discover_project_root, run_lint
from repro.devtools.rules import (
    ALL_RULES,
    ENGINE_PLUMBING,
    DeterminismRule,
    EntryPointSpec,
    EnvBoundaryRule,
    ExceptionHygieneRule,
    LintConfig,
    OptionsThreadingRule,
    PicklabilityRule,
    StructureRule,
    default_config,
)

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = discover_project_root(Path(__file__))


def relpath(name: str) -> str:
    return (FIXTURES / name).relative_to(ROOT).as_posix()


def fixture_config(**overrides: object) -> LintConfig:
    base = LintConfig(
        threading_prefixes=(relpath("") + "/",),
        fit_path_prefixes=(relpath("") + "/",),
    )
    import dataclasses

    return dataclasses.replace(base, **overrides)  # type: ignore[arg-type]


def lint_fixture(name: str, rule: type, config: LintConfig | None = None):
    result = run_lint(
        [FIXTURES / name],
        config if config is not None else fixture_config(),
        root=ROOT,
        rules=[rule],
    )
    return list(result.new)


class TestEnvBoundary:
    def test_bad_fixture_triggers(self):
        findings = lint_fixture("r1_bad.py", EnvBoundaryRule)
        assert len(findings) == 5
        assert all(f.rule == "R1" for f in findings)
        messages = " ".join(f.message for f in findings)
        assert "os.environ" in messages and "os.getenv" in messages

    def test_good_fixture_clean(self):
        assert lint_fixture("r1_good.py", EnvBoundaryRule) == []

    def test_allowlist_exempts(self):
        config = fixture_config(
            env_allowlist=frozenset({relpath("r1_bad.py")})
        )
        assert lint_fixture("r1_bad.py", EnvBoundaryRule, config) == []

    def test_real_env_module_is_allowlisted(self):
        config = default_config()
        assert "src/repro/_env.py" in config.env_allowlist
        result = run_lint(
            [ROOT / "src" / "repro" / "_env.py"],
            config,
            root=ROOT,
            rules=[EnvBoundaryRule],
        )
        assert result.new == ()


class TestDeterminism:
    def test_bad_fixture_triggers(self):
        findings = lint_fixture("r2_bad.py", DeterminismRule)
        messages = [f.message for f in findings]
        assert len(findings) == 5
        assert any("numpy.random.rand" in m for m in messages)
        assert any("numpy.random.seed" in m for m in messages)
        assert any("random.choice" in m for m in messages)
        assert any("unseeded numpy.random.default_rng" in m for m in messages)
        assert any("unseeded random.Random" in m for m in messages)

    def test_good_fixture_clean(self):
        assert lint_fixture("r2_good.py", DeterminismRule) == []

    def test_src_tree_is_clean(self):
        result = run_lint(
            [ROOT / "src" / "repro"],
            default_config(),
            root=ROOT,
            rules=[DeterminismRule],
        )
        assert result.new == ()


class TestOptionsThreading:
    def entry_specs(self, module: str) -> tuple[EntryPointSpec, ...]:
        return tuple(
            EntryPointSpec(
                module,
                name,
                required=frozenset({"options"}),
                forbidden=ENGINE_PLUMBING,
            )
            for name in ("serve_widget", "sweep_widget")
        )

    def test_bad_fixture_triggers(self):
        module = relpath("r3_bad.py")
        config = fixture_config(
            entry_points=self.entry_specs(module)
            + (EntryPointSpec(module, "missing_entirely"),)
        )
        findings = lint_fixture("r3_bad.py", OptionsThreadingRule, config)
        messages = [f.message for f in findings]
        assert any(
            "fit_widget" in m and "plumbing parameter(s) cache, executor, trace" in m
            for m in messages
        )
        assert any("engine_widget" in m and "no options=" in m for m in messages)
        assert any(
            "serve_widget" in m and "only via options=, not: executor" in m
            for m in messages
        )
        assert any(
            "sweep_widget" in m and "missing required parameter(s): options" in m
            for m in messages
        )
        assert any(
            "sweep_widget" in m and "not: executor, n_workers" in m for m in messages
        )
        assert any("missing_entirely" in m and "not found" in m for m in messages)
        assert len(findings) == 6

    def test_good_fixture_clean(self):
        config = fixture_config(entry_points=self.entry_specs(relpath("r3_good.py")))
        assert lint_fixture("r3_good.py", OptionsThreadingRule, config) == []

    def test_default_registry_forbids_plumbing_everywhere(self):
        config = default_config()
        assert config.entry_points
        for spec in config.entry_points:
            if spec.module.startswith(("src/repro/datasets/",)):
                continue
            assert spec.forbidden == ENGINE_PLUMBING, spec.qualname

    def test_real_entry_points_still_exist(self):
        """The default registry matches the live tree — a rename would
        surface as a 'not found' finding."""
        config = default_config()
        modules = {spec.module for spec in config.entry_points}
        result = run_lint(
            [ROOT / module for module in modules],
            config,
            root=ROOT,
            rules=[OptionsThreadingRule],
        )
        assert result.new == ()


class TestPicklability:
    def test_bad_fixture_triggers(self):
        findings = lint_fixture("r4_bad.py", PicklabilityRule)
        messages = [f.message for f in findings]
        assert len(findings) == 3
        assert sum("lambda" in m for m in messages) == 2
        assert any("nested function local_work" in m for m in messages)

    def test_good_fixture_clean(self):
        assert lint_fixture("r4_good.py", PicklabilityRule) == []


class TestStructure:
    def test_bad_fixture_triggers(self):
        findings = lint_fixture("r5_bad.py", StructureRule)
        messages = [f.message for f in findings]
        assert len(findings) == 4
        assert any("self.retries" in m and "Config" in m for m in messages)
        assert any("object.__setattr__" in m for m in messages)
        assert any("undefined name vanished" in m for m in messages)
        assert any("rebuild is missing from __all__" in m for m in messages)

    def test_good_fixture_clean(self):
        assert lint_fixture("r5_good.py", StructureRule) == []


class TestExceptionHygiene:
    def test_bad_fixture_triggers(self):
        findings = lint_fixture("r6_bad.py", ExceptionHygieneRule)
        messages = [f.message for f in findings]
        assert len(findings) == 2
        assert any("bare except" in m for m in messages)
        assert any("swallowed ValueError" in m for m in messages)

    def test_good_fixture_clean(self):
        assert lint_fixture("r6_good.py", ExceptionHygieneRule) == []

    def test_swallow_only_flagged_in_fit_paths(self):
        config = fixture_config(fit_path_prefixes=())
        findings = lint_fixture("r6_bad.py", ExceptionHygieneRule, config)
        assert len(findings) == 1  # the bare except still fires everywhere
        assert "bare except" in findings[0].message


class TestSuppressions:
    def test_same_line_comment_suppresses(self, tmp_path):
        source = 'import os\nVALUE = os.getenv("X")  # repro-lint: disable=R1\n'
        path = tmp_path / "suppressed.py"
        path.write_text(source)
        result = run_lint([path], fixture_config(), root=tmp_path)
        assert result.new == ()
        assert result.suppressed == 1

    def test_disable_all(self):
        table = suppressions_for(["x = 1  # repro-lint: disable=all"])
        finding = Finding(path="p.py", line=1, rule="R4", message="m")
        assert is_suppressed(finding, table)

    def test_other_rule_not_suppressed(self):
        table = suppressions_for(["x = 1  # repro-lint: disable=R2"])
        finding = Finding(path="p.py", line=1, rule="R1", message="m")
        assert not is_suppressed(finding, table)

    def test_wrong_line_not_suppressed(self):
        table = suppressions_for(["# repro-lint: disable=R1", "x = 1"])
        finding = Finding(path="p.py", line=2, rule="R1", message="m")
        assert not is_suppressed(finding, table)


class TestUnusedSuppressions:
    def test_stale_suppression_flagged(self, tmp_path):
        path = tmp_path / "stale.py"
        path.write_text("x = 1  # repro-lint: disable=R1\n")
        result = run_lint([path], fixture_config(), root=tmp_path)
        assert [f.rule for f in result.new] == ["W1"]
        assert "suppression for R1 matches no finding" in result.new[0].message

    def test_stale_disable_all_flagged(self, tmp_path):
        path = tmp_path / "stale.py"
        path.write_text("x = 1  # repro-lint: disable=all\n")
        result = run_lint([path], fixture_config(), root=tmp_path)
        assert [f.rule for f in result.new] == ["W1"]
        assert "disable=all" in result.new[0].message

    def test_partially_used_suppression_flags_the_rest(self, tmp_path):
        path = tmp_path / "partial.py"
        path.write_text(
            'import os\nVALUE = os.getenv("X")  # repro-lint: disable=R1,R2\n'
        )
        result = run_lint([path], fixture_config(), root=tmp_path)
        assert result.suppressed == 1
        assert [f.rule for f in result.new] == ["W1"]
        assert "suppression for R2" in result.new[0].message

    def test_w1_token_opts_out(self, tmp_path):
        path = tmp_path / "optout.py"
        path.write_text("x = 1  # repro-lint: disable=R1,W1\n")
        result = run_lint([path], fixture_config(), root=tmp_path)
        assert result.new == ()

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        path = tmp_path / "docs.py"
        path.write_text(
            '"""Explains the marker:\n\n'
            "    x = 1  # repro-lint: disable=R1\n"
            '"""\n'
        )
        result = run_lint([path], fixture_config(), root=tmp_path)
        assert result.new == ()

    def test_partial_runs_skip_the_check(self, tmp_path):
        # A restricted rule set cannot prove a suppression stale.
        path = tmp_path / "stale.py"
        path.write_text("x = 1  # repro-lint: disable=R1\n")
        result = run_lint(
            [path], fixture_config(), root=tmp_path, rules=[EnvBoundaryRule]
        )
        assert result.new == ()


@pytest.mark.parametrize("rule", ALL_RULES)
def test_rule_metadata(rule):
    assert rule.RULE_ID.startswith("R")
    assert rule.NAME
    assert rule.DESCRIPTION


def test_syntax_error_is_a_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    result = run_lint([path], fixture_config(), root=tmp_path)
    assert len(result.new) == 1
    assert result.new[0].rule == "E1"
    assert "does not parse" in result.new[0].message
