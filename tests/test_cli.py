"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fit_arguments(self):
        args = build_parser().parse_args(
            ["fit", "quadratic", "1990-93", "--train-fraction", "0.8", "--metrics"]
        )
        assert args.model == "quadratic"
        assert args.train_fraction == 0.8
        assert args.metrics


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "1990-93" in out
        assert "2020-21" in out

    def test_fit_recession(self, capsys):
        assert main(["fit", "quadratic", "1990-93"]) == 0
        out = capsys.readouterr().out
        assert "SSE" in out
        assert "r2adj" in out

    def test_fit_with_metrics(self, capsys):
        assert main(["fit", "quadratic", "1990-93", "--metrics"]) == 0
        assert "performance_preserved" in capsys.readouterr().out

    def test_fit_csv_file(self, tmp_path, capsys, recession_1990):
        from repro.datasets.loader import curve_to_csv

        path = tmp_path / "series.csv"
        curve_to_csv(recession_1990, path)
        assert main(["fit", "quadratic", str(path)]) == 0

    def test_fit_unknown_model_errors(self, capsys):
        assert main(["fit", "transformer", "1990-93"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fit_unknown_dataset_errors(self, capsys):
        assert main(["fit", "quadratic", "2042"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_figure_2(self, capsys):
        assert main(["figure", "2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_table_2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_table_roman_numeral(self, capsys):
        assert main(["table", "II"]) == 0
        assert "Table II" in capsys.readouterr().out


class TestRecommendCommand:
    def test_recommend_l_shape(self, capsys):
        assert main(["recommend", "2020-21", "--criterion", "r2_adjusted"]) == 0
        out = capsys.readouterr().out
        assert "Classified shape: L" in out
        assert "Recommended model: partial-" in out

    def test_recommend_no_shape_gate(self, capsys):
        assert main(["recommend", "1990-93", "--no-shape-gate"]) == 0
        out = capsys.readouterr().out
        assert "Classified shape" not in out
        assert "Recommended model:" in out

    def test_recommend_unknown_dataset(self, capsys):
        assert main(["recommend", "2042"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCardCommand:
    def test_card_renders(self, capsys):
        assert main(["card", "1990-93"]) == 0
        out = capsys.readouterr().out
        assert "Resilience report card" in out
        assert "best model" in out


class TestEpisodesCommand:
    def test_episodes_on_recession(self, capsys):
        assert main(["episodes", "1990-93", "--tolerance", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "Episode scorecard" in out

    def test_episodes_custom_model(self, capsys):
        assert main(["episodes", "1990-93", "--model", "quadratic"]) == 0
        assert "Episode scorecard" in capsys.readouterr().out


class TestTableExportOptions:
    def test_table_csv_and_json(self, capsys, tmp_path):
        csv_path = tmp_path / "t2.csv"
        json_path = tmp_path / "t2.json"
        assert main(["table", "2", "--csv", str(csv_path), "--json", str(json_path)]) == 0
        assert csv_path.exists() and json_path.exists()
        assert "wrote" in capsys.readouterr().out


class TestOptionsFile:
    """``--options-file`` loads an EngineOptions JSON as the base bundle."""

    def test_fit_reads_options_file(self, tmp_path, capsys):
        from repro.fitting.options import EngineOptions

        path = tmp_path / "engine.json"
        path.write_text(
            EngineOptions(n_random_starts=2, cache=False, trace=False).to_json()
        )
        assert main(["fit", "quadratic", "1990-93", "--options-file", str(path)]) == 0
        assert "SSE" in capsys.readouterr().out

    def test_flags_override_the_file(self, tmp_path):
        from repro.cli import _engine_options

        path = tmp_path / "engine.json"
        path.write_text('{"executor": "thread", "n_workers": 2, "seed": 7}')
        args = build_parser().parse_args(
            ["table", "1", "--options-file", str(path), "--executor", "serial"]
        )
        args.tracer = None
        options = _engine_options(args)
        assert options.executor == "serial"  # flag wins
        assert options.n_workers == 2  # file survives where no flag given
        assert options.seed == 7

    def test_single_fit_takes_no_executor_flags(self, capsys):
        # One fit solves its starts in order; the executor only
        # parallelizes grids, so `fit` does not offer the knob.
        for flag in (["--executor", "thread"], ["--workers", "2"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["fit", "quadratic", "1990-93", *flag])
            assert excinfo.value.code == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit", "--help"])
        help_text = capsys.readouterr().out
        assert "--engine" in help_text and "--executor" not in help_text

    def test_unknown_key_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "engine.json"
        path.write_text('{"n_random_start": 3}')
        assert main(["fit", "quadratic", "1990-93", "--options-file", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--options-file" in err

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["fit", "quadratic", "1990-93", "--options-file", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestFigureCommands:
    @pytest.mark.parametrize("number", ["1", "3"])
    def test_more_figures(self, capsys, number):
        assert main(["figure", number]) == 0
        assert f"Figure {number}" in capsys.readouterr().out


class TestServeReplayParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve-replay"])
        assert args.command == "serve-replay"
        assert args.datasets == []
        assert args.model == "competing_risks"
        assert args.horizon == 12.0
        assert args.every == 1
        assert args.points == 10
        assert args.refit_every == 1
        assert args.sse_drift is None
        assert not args.no_interleave
        assert not args.no_finalize
        assert args.output is None

    def test_tuning_flags(self):
        args = build_parser().parse_args(
            ["serve-replay", "1980", "1990-93", "--model", "quadratic",
             "--horizon", "6", "--every", "3", "--points", "4",
             "--refit-every", "2", "--sse-drift", "0.05",
             "--no-interleave", "--no-finalize", "--executor", "serial"]
        )
        assert args.datasets == ["1980", "1990-93"]
        assert args.model == "quadratic"
        assert args.horizon == 6.0
        assert args.every == 3
        assert args.points == 4
        assert args.refit_every == 2
        assert args.sse_drift == 0.05
        assert args.no_interleave
        assert args.no_finalize
        assert args.executor == "serial"


class TestServeReplayCommand:
    def test_emits_jsonl_to_stdout(self, capsys):
        import json

        assert (
            main(
                ["serve-replay", "1980", "--model", "quadratic",
                 "--every", "2", "--points", "4", "--no-cache"]
            )
            == 0
        )
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        kinds = [record["type"] for record in records]
        assert kinds[-1] == "summary"
        assert "final" in kinds
        assert "update" in kinds
        updates = [r for r in records if r["type"] == "update"]
        assert all(r["key"] == "1980" for r in updates)
        assert all(len(r["center"]) == 4 for r in updates)

    def test_writes_jsonl_to_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "replay.jsonl"
        assert (
            main(
                ["serve-replay", "1980", "--model", "quadratic",
                 "--every", "3", "--points", "4", "--no-cache",
                 "--no-finalize", "--output", str(path)]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "wrote" in captured.err
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records[-1]["type"] == "summary"
        assert not [r for r in records if r["type"] == "final"]

    def test_unknown_dataset_errors(self, capsys):
        assert main(["serve-replay", "2042"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTraceOptions:
    def test_fit_trace_prints_summary_to_stderr(self, capsys):
        assert main(["fit", "quadratic", "1990-93", "--trace"]) == 0
        captured = capsys.readouterr()
        assert "SSE" in captured.out
        assert "Trace summary" in captured.err
        assert "fit" in captured.err

    def test_trace_file_streams_json_lines(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        # --no-cache forces real solves so per-start spans are emitted
        # even when an earlier test already warmed the default cache.
        assert (
            main(
                ["fit", "quadratic", "1990-93", "--no-cache",
                 "--trace-file", str(path)]
            )
            == 0
        )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records, "trace file should contain at least one span"
        names = {record["name"] for record in records}
        assert "fit" in names
        assert "fit.start" in names
        fit_record = next(r for r in records if r["name"] == "fit")
        assert "nfev" in fit_record["attrs"]
        assert "cache_hit" in fit_record["attrs"]

    def test_untraced_run_prints_no_summary(self, capsys, monkeypatch):
        from repro.observability.tracer import TRACE_ENV_VAR, TRACE_FILE_ENV_VAR

        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        monkeypatch.delenv(TRACE_FILE_ENV_VAR, raising=False)
        assert main(["fit", "quadratic", "1990-93"]) == 0
        assert "Trace summary" not in capsys.readouterr().err


class TestFleetCommands:
    def test_make_fleet_then_fit_fleet(self, tmp_path, capsys):
        import json

        root = tmp_path / "fleet"
        assert (
            main(
                ["make-fleet", str(root), "--episodes", "12", "--seed", "3",
                 "--scenarios", "V", "U"]
            )
            == 0
        )
        made = json.loads(capsys.readouterr().out)
        assert made["n_episodes"] == 12
        assert made["label_names"] == ["V", "U"]
        assert (root / "manifest.json").is_file()

        assert (
            main(
                ["fit-fleet", str(root), "--families", "quadratic",
                 "--engine", "batched", "--chunk-size", "8"]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_episodes"] == 12
        assert summary["engine"] == "batched"
        assert summary["per_family"]["quadratic"]["failed"] == 0

    def test_make_fleet_ragged(self, tmp_path, capsys):
        import json

        root = tmp_path / "fleet"
        assert (
            main(
                ["make-fleet", str(root), "--episodes", "6", "--ragged", "40,48"]
            )
            == 0
        )
        made = json.loads(capsys.readouterr().out)
        assert made["n_samples"] <= 6 * 48

    def test_fit_fleet_output_file(self, tmp_path, capsys):
        import json

        root = tmp_path / "fleet"
        assert main(["make-fleet", str(root), "--episodes", "6"]) == 0
        out_path = tmp_path / "summary.json"
        assert (
            main(
                ["fit-fleet", str(root), "--families", "quadratic",
                 "--engine", "batched", "--output", str(out_path)]
            )
            == 0
        )
        summary = json.loads(out_path.read_text())
        assert summary["n_episodes"] == 6

    def test_fit_fleet_missing_store_errors(self, tmp_path, capsys):
        assert main(["fit-fleet", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeCommands:
    def test_serve_load_runs_and_reports(self, capsys):
        import json

        exit_code = main(
            [
                "serve-load",
                "--streams",
                "10",
                "--observations",
                "4",
                "--connections",
                "2",
                "--forecasts",
                "2",
                "--probes",
                "3",
                "--settle",
                "0",
            ]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["streams"]["registered"] == 10
        assert report["protocol_errors"] == 0
        assert report["admission"]["rejected_register"] == 3

    def test_serve_load_reads_options_file(self, tmp_path, capsys):
        from repro.fitting.options import EngineOptions

        path = tmp_path / "engine.json"
        path.write_text(
            EngineOptions(n_random_starts=2, cache=False, trace=False).to_json()
        )
        exit_code = main(
            [
                "serve-load",
                "--streams",
                "6",
                "--observations",
                "4",
                "--connections",
                "2",
                "--forecasts",
                "1",
                "--probes",
                "1",
                "--settle",
                "0",
                "--options-file",
                str(path),
            ]
        )
        assert exit_code == 0

    def test_serve_flags_override_env_config(self):
        from repro.cli import _server_config, build_parser

        args = build_parser().parse_args(
            ["serve", "--max-streams", "77", "--family", "quadratic"]
        )
        args.tracer = None
        config = _server_config(args)
        assert config.max_streams == 77
        assert config.family == "quadratic"

    def test_serve_bad_options_file_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "engine.json"
        path.write_text('{"not_a_field": 1}')
        exit_code = main(["serve", "--options-file", str(path)])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--options-file" in err
