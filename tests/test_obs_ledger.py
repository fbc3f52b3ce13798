"""Observability v2: run ledger, flight recorder, gate CLI, telemetry gaps.

Covers the contracts the ledger/trends/flight layer adds on top of the
PR-3 tracing core:

* :class:`repro.obs.ledger.Ledger` round-trips manifests through JSONL
  series files and reads them *leniently* (corrupt lines skipped);
* :class:`repro.obs.sinks.JsonlSink` append-mode streams survive
  interleaved writers and truncated tails;
* ``MetricsRegistry.merge`` with conflicting histogram bucket layouts
  keeps the destination's bounds without losing observations;
* ``summarize_trace`` tolerates truncated and out-of-order streams;
* the flight recorder dumps its ring on an exception escaping
  ``LocalizerSession.step``;
* killed sweep cells still deliver their worker-side trace events and a
  :class:`repro.exp.engine.CellFailure` with the real traceback;
* the ``repro report trends/compare/gate`` CLI exit codes distinguish
  success (0), regression (1), and broken input (trends/compare: 1;
  gate: 2 so CI can tell a real regression from a misconfigured gate).
"""

import json
import multiprocessing

import pytest

from repro.core.config import LocalizerConfig
from repro.exp.engine import run_cells
from repro.exp.spec import SweepSpec
from repro.obs.flight import FlightRecorder, load_flight_dump
from repro.obs.ledger import Ledger, RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import summarize_trace
from repro.obs.sinks import InMemorySink, JsonlSink, read_jsonl_lenient
from repro.obs.trace import Tracer
from repro.physics.source import RadiationSource
from repro.sensors.placement import grid_placement
from repro.sim.scenario import Scenario
from repro.sim.session import LocalizerSession


def tiny_scenario(**kwargs) -> Scenario:
    defaults = dict(
        name="obs-ledger-tiny",
        area=(60.0, 60.0),
        sources=[RadiationSource(22.0, 38.0, 10.0, label="S1")],
        sensors=grid_placement(
            4, 4, 60.0, 60.0, efficiency=1e-4, background_cpm=5.0,
            margin_fraction=0.0,
        ),
        background_cpm=5.0,
        n_time_steps=3,
        localizer_config=LocalizerConfig(
            area=(60.0, 60.0), n_particles=400, assumed_background_cpm=5.0
        ),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def make_manifest(name="series-a", **metrics) -> RunManifest:
    return RunManifest.create(
        kind="session", name=name,
        metrics=metrics or {"final_ospa": 1.0},
        seeds=[7],
    )


class TestLedger:
    def test_round_trip_and_series_listing(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger")
        ledger.append(make_manifest(final_ospa=1.0))
        ledger.append(make_manifest(final_ospa=2.0))
        ledger.append(make_manifest(name="series-b", speedup=3.5))

        assert sorted(ledger.series()) == ["series-a", "series-b"]
        history = ledger.read("series-a")
        assert [m.metrics["final_ospa"] for m in history] == [1.0, 2.0]
        assert ledger.latest("series-a")[0].metrics["final_ospa"] == 2.0
        for manifest in history:
            assert manifest.format.startswith("repro-manifest")
            assert manifest.kind == "session"
            assert list(manifest.seeds) == [7]

    def test_read_skips_corrupt_lines(self, tmp_path):
        ledger = Ledger(tmp_path)
        path = ledger.append(make_manifest())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"format": "something-else v9"}\n')
        ledger.append(make_manifest(final_ospa=4.0))
        history = ledger.read("series-a")
        assert [m.metrics["final_ospa"] for m in history] == [1.0, 4.0]

    def test_env_var_selects_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "from-env"))
        ledger = Ledger()
        ledger.append(make_manifest())
        assert (tmp_path / "from-env" / "series-a.jsonl").exists()

    def test_create_drops_non_finite_metrics(self):
        manifest = RunManifest.create(
            kind="bench", name="x",
            metrics={"good": 1.0, "bad": float("nan"), "worse": float("inf")},
        )
        assert manifest.metrics == {"good": 1.0}

    def test_from_dict_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            RunManifest.from_dict({"format": "not-a-manifest", "kind": "x"})


class TestJsonlSinkInterleaved:
    def test_two_append_writers_interleave_without_loss(self, tmp_path):
        """Two autoflush append-mode sinks sharing one file: every record
        from both writers survives, none are torn."""
        path = tmp_path / "shared.jsonl"
        a = JsonlSink(path, mode="a", autoflush=True)
        b = JsonlSink(path, mode="a", autoflush=True)
        for i in range(20):
            (a if i % 2 == 0 else b).write({"type": "tick", "writer": i % 2, "i": i})
        a.close()
        b.close()
        records, skipped = read_jsonl_lenient(path)
        assert skipped == 0
        assert len(records) == 20
        assert sorted(r["i"] for r in records) == list(range(20))

    def test_truncated_tail_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"type": "tick", "i": 0})
            sink.write({"type": "tick", "i": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "tick", "i": 2')  # writer killed mid-record
        records, skipped = read_jsonl_lenient(path)
        assert [r["i"] for r in records] == [0, 1]
        assert skipped == 1


class TestHistogramMergeLayouts:
    def test_conflicting_layouts_keep_destination_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        dest = a.histogram("latency", buckets=[1.0, 10.0])
        dest.observe(0.5)
        src = b.histogram("latency", buckets=[5.0])
        src.observe(3.0)
        src.observe(50.0)
        a.merge(b)
        # Destination layout survives; every raw observation is kept.
        assert tuple(dest.bucket_bounds) == (1.0, 10.0)
        assert sorted(dest.values) == [0.5, 3.0, 50.0]
        counts = dest.bucket_counts()  # cumulative per upper bound
        assert counts["le_1"] == 1   # 0.5
        assert counts["le_10"] == 2  # + 3.0 (re-binned from the 5.0 layout)
        assert counts["inf"] == 3    # + 50.0

    def test_fresh_destination_inherits_source_layout(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        src = b.histogram("latency", buckets=[2.0])
        src.observe(1.0)
        a.merge(b)
        assert tuple(a.histogram("latency").bucket_bounds) == (2.0,)
        assert a.histogram("latency").values == [1.0]


class TestSummarizeTraceRobustness:
    def _traced_events(self):
        sink = InMemorySink()
        LocalizerSession(tiny_scenario(), seed=11, tracer=Tracer(sink)).run()
        return sink.records

    def test_truncated_stream_still_summarizes(self):
        events = self._traced_events()
        full = summarize_trace(events)
        half = summarize_trace(events[: len(events) // 2])
        assert 0 < half.n_iterations < full.n_iterations
        assert half.malformed_events == 0

    def test_order_independent_totals(self):
        events = self._traced_events()
        forward = summarize_trace(events)
        backward = summarize_trace(list(reversed(events)))
        assert backward.n_iterations == forward.n_iterations
        assert backward.n_steps == forward.n_steps
        assert backward.total_measured_seconds == pytest.approx(
            forward.total_measured_seconds
        )

    def test_malformed_events_counted_and_skipped(self):
        events = self._traced_events()
        polluted = events + [
            {"type": "iteration", "touched": "garbage"},
            {"type": "step", "step": "not-an-int"},
            "not even a dict",
        ]
        summary = summarize_trace(polluted)
        assert summary.malformed_events == 3
        assert summary.n_iterations == summarize_trace(events).n_iterations
        assert any(
            "malformed" in warning for warning in summary.validate()
        )

    def test_jsonl_garbage_lines_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            for event in self._traced_events():
                sink.write(event)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("%% corrupted line %%\n")
        summary = summarize_trace(str(path))
        assert summary.skipped_lines == 1
        assert summary.n_iterations > 0


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=5)
        for i in range(12):
            recorder.write({"type": "tick", "i": i})
        assert len(recorder.events) == 5
        assert recorder.n_dropped == 7
        assert [e["i"] for e in recorder.events] == [7, 8, 9, 10, 11]

    def test_session_dumps_on_unhandled_exception(self, tmp_path, monkeypatch):
        flight_path = tmp_path / "crash.flight.json"
        session = LocalizerSession(
            tiny_scenario(), seed=11, flight_path=flight_path
        )
        session.step()  # populate the ring with real trace events

        def boom(*args, **kwargs):
            raise RuntimeError("injected mid-run failure")

        monkeypatch.setattr(session.network, "measure_time_step", boom)
        with pytest.raises(RuntimeError, match="injected mid-run failure"):
            session.step()

        document = load_flight_dump(flight_path)
        assert document["reason"] == "exception"
        assert document["exception"]["type"] == "RuntimeError"
        assert "injected mid-run failure" in document["exception"]["message"]
        assert document["n_events"] > 0
        assert any(e.get("type") == "iteration" for e in document["events"])


class TestKilledCellTelemetry:
    def test_killed_cell_events_and_traceback_survive(self, tmp_path):
        """A worker hard-killed mid-cell (os._exit via the fault hook)
        still delivers its spooled trace events, a CellFailure with the
        real exception, and a bitwise-correct result via retry/fallback."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fault-injection hook needs the fork start method")
        spec = SweepSpec.single(tiny_scenario(), n_repeats=3, base_seed=5)
        sink = InMemorySink()
        failures = []
        results = run_cells(
            spec.cells(),
            workers=2,
            tracer=Tracer(sink),
            failures=failures,
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            _fault_steps={1: 1},
        )
        assert len(results) == 3
        assert failures, "hard-killed cell produced no CellFailure"
        killed = [f for f in failures if f.cell_index == 1]
        assert killed, "no failure recorded for the killed cell"
        for failure in killed:
            assert failure.exception_type  # e.g. BrokenProcessPool
            assert failure.traceback and failure.exception_type in failure.traceback
            assert failure.span.startswith("cell-1-")
        # The killed attempt's partial worker events were recovered from
        # the spool and replayed into the parent stream, span-tagged.
        spans = {r.get("span") for r in sink.records if r.get("span")}
        assert any(span.startswith("cell-1-a") for span in spans)
        # The failure itself is in the trace stream for `repro report`.
        failure_events = [r for r in sink.records if r["type"] == "cell_failure"]
        assert any(e["cell"] == 1 for e in failure_events)
        # And the results still honor the determinism contract.
        serial = run_cells(spec.cells(), workers=0)
        for killed_run, reference in zip(results, serial):
            assert killed_run.error_series(0) == reference.error_series(0)


class TestReportCliExitCodes:
    def _gate_series(self, tmp_path, regress):
        ledger = Ledger(tmp_path / "ledger")
        ledger.append(make_manifest(name="gate", final_ospa=1.0, iter_seconds=0.1))
        current = 3.0 if regress else 1.0
        path = ledger.append(
            make_manifest(name="gate", final_ospa=current, iter_seconds=0.1)
        )
        return path

    def test_gate_ok_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        series = self._gate_series(tmp_path, regress=False)
        assert main(["report", "gate", "--baseline", str(series)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_gate_regression_exits_one(self, tmp_path, capsys):
        from repro.__main__ import main

        series = self._gate_series(tmp_path, regress=True)
        assert main(["report", "gate", "--baseline", str(series)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_gate_broken_input_exits_two(self, tmp_path, capsys):
        from repro.__main__ import main

        missing = tmp_path / "nope.jsonl"
        assert main(["report", "gate", "--baseline", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.strip()
        assert "Traceback" not in err

    @pytest.mark.parametrize("side", ["baseline", "current"])
    def test_gate_missing_named_metric_exits_two(self, tmp_path, capsys, side):
        from repro.__main__ import main

        full = make_manifest(name="bench", parity_ok=1.0, speedup=3.0)
        partial = make_manifest(name="bench", parity_ok=1.0)
        docs = {"baseline": full, "current": full, side: partial}
        paths = {}
        for name, manifest in docs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(manifest.to_dict()))
        code = main(
            ["report", "gate", "--baseline", str(paths["baseline"]),
             "--current", str(paths["current"]),
             "--metrics", "parity_ok", "speedup"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "speedup" in captured.err and side in captured.err
        assert "OK" not in captured.out

    def test_gate_json_output(self, tmp_path, capsys):
        from repro.__main__ import main

        series = self._gate_series(tmp_path, regress=True)
        assert main(
            ["report", "gate", "--baseline", str(series), "--json"]
        ) == 1
        document = json.loads(capsys.readouterr().out)
        regressed = [c for c in document["checks"] if c["regressed"]]
        assert [c["metric"] for c in regressed] == ["final_ospa"]

    def test_trends_missing_ledger_exits_one(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            ["report", "trends", "--ledger", str(tmp_path / "absent")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.strip()
        assert "Traceback" not in err

    def test_trends_json_lists_entries(self, tmp_path, capsys):
        from repro.__main__ import main

        self._gate_series(tmp_path, regress=False)
        code = main(
            ["report", "trends", "gate",
             "--ledger", str(tmp_path / "ledger"), "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["series"] == "gate"
        assert len(document["entries"]) == 2

    def test_compare_manifest_files(self, tmp_path, capsys):
        from repro.__main__ import main

        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        baseline.write_text(
            json.dumps(make_manifest(name="c", final_ospa=1.0).to_dict())
        )
        current.write_text(
            json.dumps(make_manifest(name="c", final_ospa=0.9).to_dict())
        )
        assert main(
            ["report", "compare", str(baseline), str(current)]
        ) == 0

    def test_trace_malformed_file_exits_one(self, tmp_path, capsys):
        from repro.__main__ import main

        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("definitely not a trace\n")
        assert main(["report", "trace", str(bogus)]) == 1
        err = capsys.readouterr().err
        assert err.strip()
        assert "Traceback" not in err

    def test_trace_json_output(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "trace.jsonl"
        with JsonlSink(trace) as sink:
            events = InMemorySink()
            LocalizerSession(
                tiny_scenario(), seed=11, tracer=Tracer(events)
            ).run()
            for event in events.records:
                sink.write(event)
        assert main(["report", "trace", str(trace), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["n_iterations"] > 0
        assert document["skipped_lines"] == 0


class TestRunnerLedgerIntegration:
    def test_run_repeated_appends_one_manifest_per_run(self, tmp_path):
        from repro.sim.runner import run_repeated

        ledger = Ledger(tmp_path)
        scenario = tiny_scenario()
        run_repeated(
            scenario, n_repeats=2, base_seed=9, ledger=ledger,
            manifest_name="runner-test",
        )
        history = ledger.read("runner-test")
        assert len(history) == 2
        assert [m.context.get("run_index") for m in history] == [0, 1]
        assert all(m.kind == "session" for m in history)
        assert all("final_ospa" in m.metrics for m in history)

    def test_parallel_and_serial_manifests_agree_on_metrics(self, tmp_path):
        from repro.sim.runner import run_repeated

        scenario = tiny_scenario()
        serial_ledger = Ledger(tmp_path / "serial")
        parallel_ledger = Ledger(tmp_path / "parallel")
        run_repeated(
            scenario, n_repeats=2, base_seed=9,
            ledger=serial_ledger, manifest_name="m",
        )
        run_repeated(
            scenario, n_repeats=2, base_seed=9, workers=2,
            ledger=parallel_ledger, manifest_name="m",
        )
        for s, p in zip(serial_ledger.read("m"), parallel_ledger.read("m")):
            s_metrics = {
                k: v for k, v in s.metrics.items() if k != "iter_seconds"
            }
            p_metrics = {
                k: v for k, v in p.metrics.items() if k != "iter_seconds"
            }
            assert s_metrics == p_metrics
            assert s.config_hash == p.config_hash
            assert s.seeds == p.seeds
