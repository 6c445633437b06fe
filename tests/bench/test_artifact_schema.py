"""Schema validation of every committed ``BENCH_*.json`` artifact.

This is the tier-1 half of the artifact contract: the committed
snapshots under ``benchmarks/output/`` must always carry a complete
provenance block, their artifact-specific required keys, and no
non-finite numbers — plus unit coverage of the validator itself and
the canonical writer.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.artifact import (
    ARTIFACT_REQUIRED_KEYS,
    check_bench_payload,
    validate_artifact_file,
    validate_bench_payload,
    write_bench_artifact,
)
from repro.bench.provenance import REQUIRED_PROVENANCE_KEYS, provenance_block
from repro.exceptions import BenchError, ReproError

ROOT = Path(__file__).resolve().parents[2]
OUTPUT = ROOT / "benchmarks" / "output"

COMMITTED = sorted(OUTPUT.glob("BENCH_*.json"))


def _valid_payload() -> dict:
    return {"provenance": provenance_block(), "value": 1.0}


class TestCommittedArtifacts:
    def test_committed_artifacts_exist(self):
        assert {p.name for p in COMMITTED} == set(ARTIFACT_REQUIRED_KEYS), (
            "committed BENCH artifacts and the schema registry drifted apart"
        )

    @pytest.mark.parametrize(
        "path", COMMITTED, ids=[p.name for p in COMMITTED]
    )
    def test_committed_artifact_is_valid(self, path):
        payload = validate_artifact_file(path)
        for key in REQUIRED_PROVENANCE_KEYS:
            assert key in payload["provenance"]


class TestValidator:
    def test_valid_payload_passes(self):
        assert validate_bench_payload(_valid_payload()) == []

    def test_missing_provenance(self):
        problems = validate_bench_payload({"value": 1.0})
        assert any("provenance" in p for p in problems)

    def test_incomplete_provenance(self):
        payload = _valid_payload()
        del payload["provenance"]["numpy"]
        problems = validate_bench_payload(payload)
        assert any("'numpy'" in p for p in problems)

    def test_missing_required_keys_for_named_artifact(self):
        problems = validate_bench_payload(
            _valid_payload(), name="BENCH_fleet.json"
        )
        assert any("'fleet'" in p for p in problems)
        assert any("'engines'" in p for p in problems)

    def test_nan_and_inf_are_rejected_with_a_path(self):
        payload = _valid_payload()
        payload["nested"] = {"speedups": [1.0, float("nan")]}
        payload["inf"] = float("inf")
        problems = validate_bench_payload(payload)
        assert any("$.nested.speedups[1]" in p for p in problems)
        assert any("$.inf" in p for p in problems)

    def test_check_raises_bench_error(self):
        with pytest.raises(BenchError, match="provenance"):
            check_bench_payload({})
        assert issubclass(BenchError, ReproError)


class TestWriter:
    def test_write_is_canonical(self, tmp_path):
        payload = _valid_payload()
        payload["zzz"] = 1
        payload["aaa"] = 2
        path = write_bench_artifact(tmp_path / "BENCH_x.json", payload)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert text.index('"aaa"') < text.index('"zzz"')
        # Round-trips through the file validator.
        assert validate_artifact_file(path)["aaa"] == 2

    def test_write_refuses_invalid_payload(self, tmp_path):
        target = tmp_path / "BENCH_fleet.json"
        with pytest.raises(BenchError, match="BENCH_fleet.json"):
            write_bench_artifact(target, {"provenance": {}})
        assert not target.exists(), "invalid artifact must never reach disk"

    def test_write_refuses_nonfinite(self, tmp_path):
        payload = _valid_payload()
        payload["bad"] = float("nan")
        with pytest.raises(BenchError, match="non-finite"):
            write_bench_artifact(tmp_path / "BENCH_x.json", payload)
