"""Runner integration, trace summarization, and the report/trace CLI.

Covers the diagnostics integration: per-step PopulationHealth and
ConvergenceMonitor state must land in StepRecord, in the trace's ``step``
events, and in the ``repro report`` output.
"""

import pytest

from repro.core.diagnostics import PopulationHealth
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    format_trace_report,
    phase_table,
    summarize_trace,
)
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer
from repro.sim.runner import run_scenario
from repro.sim.scenarios import scenario_a


def readings_traced(sink):
    """Readings covered by the iteration events: one per sequential-loop
    event, ``readings`` per fused-chunk event."""
    return sum(e.get("readings", 1) for e in sink.of_type("iteration"))


@pytest.fixture(scope="module")
def traced_run():
    """One short scenario-A run with full instrumentation."""
    sink = InMemorySink()
    registry = MetricsRegistry()
    scenario = scenario_a(strengths=(50.0, 50.0), n_time_steps=6)
    result = run_scenario(
        scenario, seed=3, tracer=Tracer(sink), metrics=registry
    )
    return result, sink, registry


class TestRunnerDiagnosticsIntegration:
    def test_health_recorded_per_step(self, traced_run):
        result, _sink, _registry = traced_run
        for record in result.steps:
            assert isinstance(record.health, PopulationHealth)
            assert record.health.effective_sample_size > 0
            assert 0 < record.health.ess_fraction <= 1.0 + 1e-9
        assert len(result.ess_series()) == result.n_steps
        assert all(v > 0 for v in result.ess_series())

    def test_convergence_monitor_feeds_step_records(self, traced_run):
        result, _sink, _registry = traced_run
        flags = [s.converged for s in result.steps]
        # Convergence is monotone: once declared it stays declared.
        first_true = flags.index(True) if True in flags else len(flags)
        assert all(flags[first_true:])
        assert result.converged_at == (first_true if True in flags else None)

    def test_step_events_carry_health_and_convergence(self, traced_run):
        result, sink, _registry = traced_run
        steps = sink.of_type("step")
        assert len(steps) == result.n_steps
        for event, record in zip(steps, result.steps):
            assert event["ess"] == pytest.approx(
                record.health.effective_sample_size
            )
            assert event["ess_fraction"] == pytest.approx(
                record.health.ess_fraction
            )
            assert event["spatial_spread"] == pytest.approx(
                record.health.spatial_spread
            )
            assert event["converged"] == record.converged
            assert event["n_estimates"] == len(record.estimates)

    def test_run_bracketed_by_start_and_end(self, traced_run):
        _result, sink, _registry = traced_run
        [start] = sink.of_type("run_start")
        [end] = sink.of_type("run_end")
        assert start["scenario"] == "A" and start["seed"] == 3
        assert end["n_iterations"] == readings_traced(sink)
        assert end["total_seconds"] > 0

    def test_runner_metrics(self, traced_run):
        _result, _sink, registry = traced_run
        snap = registry.snapshot()
        assert snap["runner.runs"]["value"] == 1
        assert snap["runner.run_seconds"]["count"] == 1
        assert snap["localizer.iterations"]["value"] > 0


class TestTraceSummary:
    def test_every_iteration_fully_described(self, traced_run):
        _result, sink, _registry = traced_run
        summary = summarize_trace(sink.records)
        assert summary.validate() == []
        assert summary.n_iterations == readings_traced(sink)
        assert summary.iterations_with_phases == summary.n_iterations
        assert summary.iterations_with_touched == summary.n_iterations
        assert summary.iterations_with_ess == summary.n_iterations

    def test_phase_table_sums_to_total_runtime(self, traced_run):
        """The acceptance criterion: phases cover >= 95% of measured time."""
        _result, sink, _registry = traced_run
        summary = summarize_trace(sink.records)
        assert summary.total_measured_seconds > 0
        assert summary.phase_coverage == pytest.approx(1.0, abs=0.05)
        text = phase_table(summary)
        assert "(sum of phases)" in text and "coverage" in text

    def test_health_series_in_report(self, traced_run):
        result, sink, _registry = traced_run
        summary = summarize_trace(sink.records)
        text = format_trace_report(summary)
        assert "Population health per step" in text
        assert "ESS" in text and "converged" in text
        assert "Phase-time breakdown" in text
        assert "iterations" in text
        assert summary.n_steps == result.n_steps

    def test_counts_match_events(self, traced_run):
        _result, sink, _registry = traced_run
        summary = summarize_trace(sink.records)
        iterations = sink.of_type("iteration")
        assert summary.particles_resampled == sum(
            e["resampled"] for e in iterations
        )
        assert summary.particles_injected == sum(e["injected"] for e in iterations)
        assert summary.touched_max == max(e["touched"] for e in iterations)

    def test_incomplete_trace_flagged(self):
        events = [
            {"type": "iteration", "touched": 5, "total_seconds": 0.01},
        ]
        summary = summarize_trace(events)
        problems = summary.validate()
        assert any("phase timings" in p for p in problems)
        assert any("ESS" in p for p in problems)


class TestCli:
    def test_run_trace_report_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "run", "a",
                "--steps", "3", "--repeats", "1", "--strength", "50",
                "--trace", str(trace), "--metrics", "--health",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "population health" in out
        assert "run metrics" in out
        assert "wrote trace" in out
        assert trace.exists()

        assert main(["report", str(trace)]) == 0
        report_out = capsys.readouterr().out
        assert "Phase-time breakdown" in report_out
        assert "Population health per step" in report_out
        assert "Metrics snapshot" in report_out
        # Every iteration of the run appears in the summary: 3 steps x 36
        # sensors x 1 repeat.
        assert "108" in report_out

    def test_report_round_trip_is_complete(self, tmp_path):
        from repro.__main__ import main

        trace = tmp_path / "trace.jsonl"
        main(
            ["run", "a", "--steps", "2", "--repeats", "2", "--strength", "50",
             "--trace", str(trace)]
        )
        summary = summarize_trace(str(trace))
        assert summary.validate() == []
        assert summary.n_runs == 2
        assert summary.n_iterations == 2 * 2 * 36
        assert summary.phase_coverage == pytest.approx(1.0, abs=0.05)

    def test_report_missing_events_fails(self, tmp_path, capsys):
        from repro.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 1

    def test_verbose_and_quiet_flags_parse(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["run", "a", "-vv"])
        assert args.verbose == 2 and args.quiet is False
        args = build_parser().parse_args(["run", "a", "--quiet"])
        assert args.quiet is True
        args = build_parser().parse_args(["report", "x.jsonl", "-v"])
        assert args.verbose == 1

    def test_verbose_emits_runner_logs(self, tmp_path, capsys, caplog):
        import logging

        from repro.__main__ import main

        with caplog.at_level(logging.INFO, logger="repro"):
            main(["run", "a", "--steps", "2", "--repeats", "1",
                  "--strength", "50", "-v"])
        messages = [r.message for r in caplog.records]
        assert any("run start" in m for m in messages)
        assert any("run end" in m for m in messages)

    def test_library_logger_has_null_handler(self):
        import logging

        import repro  # noqa: F401 - import installs the handler

        handlers = logging.getLogger("repro").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)
