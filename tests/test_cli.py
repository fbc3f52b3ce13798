"""Tests for the ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "a"])
        assert args.scenario == "a"
        assert args.steps == 30
        assert args.repeats == 3

    def test_sweep_requires_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "strength"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])


class TestCommands:
    def test_layout_a(self, capsys):
        assert main(["layout", "a", "--obstacles"]) == 0
        out = capsys.readouterr().out
        assert "S" in out and "o" in out and "36 sensors" in out

    def test_layout_b(self, capsys):
        assert main(["layout", "b"]) == 0
        out = capsys.readouterr().out
        assert "196 sensors" in out

    def test_layout_unknown_scenario(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["layout", "z"])

    def test_run_small(self, capsys):
        code = main(
            ["run", "a", "--steps", "4", "--repeats", "1", "--strength", "50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "err[Source 1]" in out
        assert "steady state" in out

    def test_sweep_small(self, capsys):
        code = main(
            [
                "sweep", "strength",
                "--values", "50", "100",
                "--steps", "4",
                "--repeats", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "err src1" in out


class TestExportRunFile:
    def test_export_and_run_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        assert main(["export", "a", "--out", str(path), "--strength", "50"]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["run-file", str(path), "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "steady state" in out

    def test_run_file_steps_respected_from_document(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        main(["export", "a", "--out", str(path), "--steps", "4", "--strength", "50"])
        capsys.readouterr()
        main(["run-file", str(path), "--repeats", "1"])
        out = capsys.readouterr().out
        # 4 time steps -> rows 0..3 in the series table, no row 29.
        assert "4 steps" in out
        assert "\n3 " in out
        assert "\n29 " not in out


class TestRunFileInstrumentation:
    """run-file accepts the same --trace/--metrics/--health flags as run."""

    def _export(self, tmp_path):
        path = tmp_path / "scenario.json"
        main(["export", "a", "--out", str(path), "--steps", "4",
              "--strength", "50"])
        return path

    def test_parser_accepts_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["run-file", "x.json", "--trace", "t.jsonl", "--metrics", "--health"]
        )
        assert args.trace == "t.jsonl"
        assert args.metrics and args.health

    def test_metrics_and_health(self, tmp_path, capsys):
        path = self._export(tmp_path)
        capsys.readouterr()
        assert main(["run-file", str(path), "--repeats", "1",
                     "--metrics", "--health"]) == 0
        out = capsys.readouterr().out
        assert "run metrics" in out
        assert "localizer.iterations" in out
        assert "population health" in out

    def test_trace_written(self, tmp_path, capsys):
        import json as json_mod

        scenario_path = self._export(tmp_path)
        trace_path = tmp_path / "trace.jsonl"
        capsys.readouterr()
        assert main(["run-file", str(scenario_path), "--repeats", "1",
                     "--trace", str(trace_path)]) == 0
        lines = [json_mod.loads(line)
                 for line in trace_path.read_text().splitlines()]
        assert any(r["type"] == "run_start" for r in lines)
        assert any(r["type"] == "step" for r in lines)


class TestCheckpointResume:
    def test_run_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        assert main(["run", "a", "--steps", "4", "--repeats", "1",
                     "--strength", "50",
                     "--checkpoint-every", "2",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        capsys.readouterr()
        checkpoint = ckpt_dir / "cell-v0-r0.ckpt.json"
        assert checkpoint.exists()
        assert main(["resume", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "resumed at step 4/4" in out
        assert "steady state" in out

    def test_resume_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope.ckpt.json")]) == 1
        err = capsys.readouterr().err
        assert "cannot read checkpoint" in err

    def test_resume_mid_run_checkpoint(self, tmp_path, capsys):
        """A checkpoint taken mid-run resumes and completes the run."""
        from repro.sim.scenarios import scenario_a
        from repro.sim.session import LocalizerSession

        scenario = scenario_a(n_particles=600, n_time_steps=4)
        session = LocalizerSession(scenario, seed=3)
        session.step()
        path = tmp_path / "mid.ckpt.json"
        session.save_checkpoint(path)
        assert main(["resume", str(path), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "resumed at step 1/4" in out
        assert "checkpoint.restores" in out

    def test_checkpoint_every_without_dir_fails(self, capsys):
        with pytest.raises(SystemExit, match="needs --checkpoint-dir"):
            main(["run", "a", "--steps", "4", "--repeats", "1",
                  "--checkpoint-every", "2"])


class TestRecordReplayCli:
    def _record(self, tmp_path, capsys, extra=()):
        stream = tmp_path / "run.stream.jsonl"
        assert main(["record", "a", "--out", str(stream),
                     "--steps", "4", "--seed", "7", *extra]) == 0
        out = capsys.readouterr().out
        assert "recorded stream" in out
        assert stream.exists()
        return stream

    def test_record_then_replay_round_trip(self, tmp_path, capsys):
        stream = self._record(tmp_path, capsys)
        assert main(["replay", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "replaying stream" in out
        assert "err[Source 1]" in out

    def test_replay_reproduces_recorded_metrics(self, tmp_path, capsys):
        stream = self._record(tmp_path, capsys)
        assert main(["run", "a", "--steps", "4", "--seed", "7",
                     "--repeats", "1"]) == 0
        live = capsys.readouterr().out
        assert main(["replay", str(stream)]) == 0
        replay = capsys.readouterr().out
        live_table = live[live.index("T  "):live.index("steady state")]
        replay_table = replay[replay.index("T  "):replay.index("steady state")]
        assert live_table == replay_table

    def test_run_stream_flag_records(self, tmp_path, capsys):
        stream = tmp_path / "via-run.stream.jsonl"
        assert main(["run", "a", "--steps", "3", "--repeats", "1",
                     "--stream", str(stream)]) == 0
        assert "recorded stream" in capsys.readouterr().out
        assert stream.exists()

    def test_run_stream_flag_requires_single_serial_run(self, tmp_path):
        with pytest.raises(SystemExit, match="repeats 1"):
            main(["run", "a", "--steps", "3", "--repeats", "2",
                  "--stream", str(tmp_path / "s.jsonl")])

    def test_replay_with_swapped_faults(self, tmp_path, capsys):
        import json as jsonlib

        stream = self._record(tmp_path, capsys)
        spec = tmp_path / "faults.json"
        spec.write_text(jsonlib.dumps({
            "seed": 9,
            "models": [{"kind": "dropout", "sensor_ids": [1, 2],
                        "start": 1, "end": 3}],
        }))
        assert main(["replay", str(stream), "--faults", str(spec),
                     "--integrity"]) == 0
        assert "replaying stream" in capsys.readouterr().out

    def test_replay_checkpoint_then_resume_with_stream(self, tmp_path, capsys):
        stream = self._record(tmp_path, capsys)
        ckpt_dir = tmp_path / "ckpts"
        assert main(["replay", str(stream), "--checkpoint-every", "2",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        capsys.readouterr()
        checkpoint = ckpt_dir / "replay.ckpt.json"
        assert checkpoint.exists()
        moved = tmp_path / "moved.stream.jsonl"
        moved.write_bytes(stream.read_bytes())
        stream.unlink()
        assert main(["resume", str(checkpoint),
                     "--stream", str(moved)]) == 0
        assert "resumed at step" in capsys.readouterr().out

    def test_replay_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope.jsonl")]) == 1
        assert capsys.readouterr().err

    def test_trends_stream_filter(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        stream = self._record(tmp_path, capsys)
        assert main(["replay", str(stream), "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["report", "trends", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "stream" in out
        assert main(["report", "trends", "--ledger", str(ledger),
                     "--stream", "live"]) == 1
        err = capsys.readouterr().err
        assert "no entries" in err


GOLDEN = str(Path(__file__).resolve().parent / "data" / "golden_stream_a1.stream.jsonl")


class TestUsageErrors:
    """Out-of-range flag values exit 2 with a usage line, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "a", "--repeats", "0"],
            ["run", "a", "--steps", "0"],
            ["run", "a", "--workers", "-3"],
            ["run", "a", "--checkpoint-every", "-1"],
            ["run", "a", "--seed", "-1"],
            ["run", "a", "--strength", "-5"],
            ["run", "a", "--background", "-1"],
            ["run", "a", "--repeats", "two"],
            ["sweep", "strength", "--values", "4", "--repeats", "0"],
            ["sweep", "strength", "--values", "-4"],
            ["replay", GOLDEN, "--pace", "wall", "--speed", "0"],
            ["replay", GOLDEN, "--checkpoint-every", "-2"],
            ["resume", "x.ckpt.json", "--checkpoint-every", "-2"],
            ["serve", GOLDEN, "--shards", "0"],
            ["serve", GOLDEN, "--checkpoint-every", "-1"],
            ["serve", GOLDEN, "--steps-per-call", "0"],
            ["serve", GOLDEN, "--step-timeout", "0"],
            ["layout", "a", "--cols", "0"],
            ["layout", "a", "--cols", "3"],
            ["report", "gate", "--baseline", "b.json", "--tolerance", "-0.1"],
        ],
        ids=lambda argv: " ".join("STREAM" if a == GOLDEN else a for a in argv),
    )
    def test_bad_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "a", "--steps", "2", "--repeats", "1"],
            ["run-file", "x.json", "--repeats", "1"],
            ["sweep", "strength", "--values", "4", "--steps", "2"],
            ["replay", GOLDEN],
        ],
        ids=lambda argv: argv[0],
    )
    def test_checkpoint_every_needs_dir_everywhere(self, argv, tmp_path):
        if argv[0] == "run-file":
            main(["export", "a", "--out", str(tmp_path / "x.json"), "--steps", "2"])
            argv = ["run-file", str(tmp_path / "x.json")] + argv[2:]
        with pytest.raises(SystemExit, match="needs --checkpoint-dir"):
            main(argv + ["--checkpoint-every", "2"])


class TestServeCli:
    """Without --checkpoint-dir, serve's checkpoints live only while it runs."""

    @pytest.fixture
    def scratch_tmp(self, tmp_path, monkeypatch):
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        return scratch

    def test_serve_removes_its_temporary_directory(self, scratch_tmp, capsys):
        assert main(["serve", "--inline", GOLDEN]) == 0
        assert '"completed": 1' in capsys.readouterr().out
        assert list(scratch_tmp.iterdir()) == []

    def test_rejected_service_config_removes_it_too(self, scratch_tmp, monkeypatch):
        import repro.serve

        def reject(**kwargs):
            raise ValueError("rejected")

        monkeypatch.setattr(repro.serve, "ServiceConfig", reject)
        with pytest.raises(ValueError, match="rejected"):
            main(["serve", "--inline", GOLDEN])
        assert list(scratch_tmp.iterdir()) == []
