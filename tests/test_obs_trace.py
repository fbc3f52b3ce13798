"""Tests for sinks, the tracer, and localizer/estimator instrumentation."""

import json
import math

import numpy as np
import pytest

import repro.core.estimator as estimator_module
import repro.core.localizer as localizer_module
from repro.core.config import LocalizerConfig
from repro.core.localizer import MultiSourceLocalizer
from repro.obs.sinks import InMemorySink, JsonlSink, NullSink, read_jsonl
from repro.obs.trace import NULL_TRACER, Tracer, jsonl_tracer


def make_localizer(
    tracer=None, metrics=None, n_particles=400, seed=5, backend=None
):
    config = LocalizerConfig(
        area=(100.0, 100.0),
        n_particles=n_particles,
        assumed_background_cpm=5.0,
        backend=backend,
    )
    return MultiSourceLocalizer(
        config, rng=np.random.default_rng(seed), tracer=tracer, metrics=metrics
    )


class TestSinks:
    def test_null_sink_drops(self):
        sink = NullSink()
        sink.write({"type": "x"})  # nothing observable, must not raise

    def test_in_memory_sink_collects_and_filters(self):
        sink = InMemorySink()
        sink.write({"type": "a", "v": 1})
        sink.write({"type": "b", "v": 2})
        assert len(sink) == 2
        assert sink.of_type("a") == [{"type": "a", "v": 1}]
        sink.clear()
        assert len(sink) == 0

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"type": "a", "x": np.float64(1.5), "n": np.int64(2)})
            sink.write({"type": "b", "inf": float("inf")})
        records = read_jsonl(path)
        assert records[0] == {"type": "a", "x": 1.5, "n": 2}
        assert records[1]["inf"] == math.inf

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2|not valid JSON"):
            read_jsonl(path)


class TestTracer:
    def test_null_default_disabled(self):
        assert Tracer().enabled is False
        assert NULL_TRACER.enabled is False

    def test_emit_adds_type_and_seq(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        assert tracer.enabled
        tracer.emit("alpha", value=1)
        tracer.emit("beta", value=2)
        assert sink.records[0]["type"] == "alpha"
        assert [r["seq"] for r in sink.records] == [1, 2]

    def test_span_times_block(self):
        sink = InMemorySink()
        with Tracer(sink).span("work", label="x") as extra:
            extra["n"] = 3
        [event] = sink.records
        assert event["type"] == "work"
        assert event["seconds"] >= 0
        assert event["label"] == "x" and event["n"] == 3

    def test_jsonl_tracer_writes_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = jsonl_tracer(path)
        tracer.emit("hello", v=1)
        tracer.close()
        assert read_jsonl(path) == [{"type": "hello", "seq": 1, "v": 1}]


class TestLocalizerInstrumentation:
    def test_iteration_event_schema(self):
        sink = InMemorySink()
        localizer = make_localizer(tracer=Tracer(sink))
        localizer.observe_reading(50.0, 50.0, 40.0, sensor_id=7)
        [event] = sink.of_type("iteration")
        assert event["iteration"] == 1
        assert event["readings"] == 1
        assert event["sensor_ids"] == [7]
        assert event["touched"] > 0
        assert event["ess_before"] > 0 and event["ess_after"] > 0
        assert event["resampled"] >= 0 and event["injected"] >= 0
        assert set(event["phases"]) == {"select", "weight", "resample"}
        # Phases are contiguous perf_counter splits: they sum to the total.
        assert sum(event["phases"].values()) == pytest.approx(
            event["total_seconds"], rel=1e-9
        )

    def test_empty_subset_event(self):
        sink = InMemorySink()
        localizer = make_localizer(tracer=Tracer(sink))
        # A sensor far outside the area touches nothing within fusion range.
        localizer.observe_reading(1e6, 1e6, 5.0)
        [event] = sink.of_type("iteration")
        assert event["touched"] == 0
        assert event["resampled"] == 0 and event["injected"] == 0
        assert event["ess_before"] == pytest.approx(event["ess_after"])
        assert "select" in event["phases"]

    def test_extract_event_from_estimates(self):
        sink = InMemorySink()
        localizer = make_localizer(tracer=Tracer(sink))
        for _ in range(3):
            localizer.observe_reading(50.0, 50.0, 60.0)
        sink.clear()
        localizer.estimates()
        [event] = sink.of_type("extract")
        assert event["n_seeds"] > 0
        assert event["meanshift_sweeps"] >= 1
        assert event["n_modes"] >= event["n_estimates"]
        assert set(event["phases"]) == {"seed", "shift", "merge", "filter"}
        assert sum(event["phases"].values()) == pytest.approx(
            event["total_seconds"], rel=1e-9
        )

    def test_interference_refresh_does_not_emit_nested_extract(self):
        sink = InMemorySink()
        config = LocalizerConfig(
            area=(100.0, 100.0),
            n_particles=400,
            assumed_background_cpm=5.0,
            interference_subtraction=True,
            interference_refresh=1,
        )
        localizer = MultiSourceLocalizer(
            config, rng=np.random.default_rng(3), tracer=Tracer(sink)
        )
        for _ in range(4):
            localizer.observe_reading(50.0, 50.0, 60.0)
        # The refresh runs mean-shift inside observe_reading, but only
        # explicit estimates() calls may emit extract events.
        assert sink.of_type("extract") == []
        assert len(sink.of_type("iteration")) == 4

    def test_metrics_updated_per_iteration(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        localizer = make_localizer(metrics=registry)
        localizer.observe_reading(50.0, 50.0, 40.0)
        localizer.observe_reading(1e6, 1e6, 5.0)
        snap = registry.snapshot()
        assert snap["localizer.iterations"]["value"] == 2
        assert snap["localizer.empty_subsets"]["value"] == 1
        assert snap["localizer.touched"]["count"] == 2
        assert snap["localizer.resampled_particles"]["value"] > 0


class TestZeroOverheadContract:
    """The null path must never read clocks or compute diagnostics."""

    def test_observe_reads_no_clock_when_untraced(self, monkeypatch):
        def boom():
            raise AssertionError("perf_counter called on the null path")

        monkeypatch.setattr(localizer_module, "perf_counter", boom)
        localizer = make_localizer()  # default: NULL_TRACER
        localizer.observe_reading(50.0, 50.0, 40.0)
        assert localizer.iteration == 1

    def test_extract_reads_no_clock_when_untraced(self, monkeypatch):
        def boom():
            raise AssertionError("perf_counter called on the null path")

        monkeypatch.setattr(estimator_module, "perf_counter", boom)
        localizer = make_localizer()
        localizer.observe_reading(50.0, 50.0, 40.0)
        localizer.estimates()

    def test_fused_batch_reads_no_clock_when_untraced(self, monkeypatch):
        def boom(*_args):
            raise AssertionError("instrumentation ran on the null path")

        monkeypatch.setattr(localizer_module, "perf_counter", boom)
        localizer = make_localizer(backend="fast")
        monkeypatch.setattr(
            type(localizer.particles), "effective_sample_size", boom
        )
        localizer.observe_batch(fused_readings(12))
        assert localizer.iteration == 12

    def test_null_tracer_emit_is_noop_even_with_fields(self):
        NULL_TRACER.emit("iteration", anything=object())  # must not raise

    def test_jsonl_trace_is_parseable_line_by_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = jsonl_tracer(path)
        localizer = make_localizer(tracer=tracer)
        for _ in range(2):
            localizer.observe_reading(50.0, 50.0, 40.0)
        localizer.estimates()
        tracer.close()
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 3
        for line in lines:
            json.loads(line)


def fused_readings(n):
    """``n`` readings spread over the area (two fused chunks for n > 8)."""
    from repro.sensors.measurement import Measurement

    rng = np.random.default_rng(11)
    return [
        Measurement(
            sensor_id=i, x=float(x), y=float(y), cpm=float(rng.poisson(20.0)),
            time_step=0, sequence=i,
        )
        for i, (x, y) in enumerate(rng.uniform(0.0, 100.0, size=(n, 2)))
    ]


class TestFusedTrace:
    """Chunks trace as one event each, without rerouting the loop."""

    def test_chunk_event_schema(self):
        sink = InMemorySink()
        localizer = make_localizer(tracer=Tracer(sink), backend="fast")
        localizer.observe_batch(fused_readings(12))
        events = sink.of_type("iteration")
        assert [e["readings"] for e in events] == [8, 4]
        assert [e["sensor_ids"] for e in events] == [
            list(range(8)), list(range(8, 12))
        ]
        assert events[-1]["iteration"] == localizer.iteration == 12
        for event in events:
            assert set(event["phases"]) == {"select", "weight", "resample"}
            assert sum(event["phases"].values()) == pytest.approx(
                event["total_seconds"], rel=1e-9
            )
            assert event["touched"] > 0
            assert event["resampled"] >= event["duplicates"] >= 0
            assert event["ess_before"] > 0 and event["ess_after"] > 0

    @pytest.mark.parametrize("backend", ["default", "fast"])
    def test_traced_session_report_is_complete(self, backend):
        from repro.obs.report import summarize_trace
        from repro.sim.scenarios import scenario_a
        from repro.sim.session import SessionSpec

        sink = InMemorySink()
        session = SessionSpec(
            scenario=scenario_a(n_time_steps=3), seed=2, backend=backend
        ).open(tracer=Tracer(sink))
        session.run()
        summary = summarize_trace(sink.records)
        assert summary.validate() == []
        assert summary.phase_coverage >= 0.99
        assert summary.n_iterations == session.localizer.iteration
        events = sink.of_type("iteration")
        # One event per chunk: FUSED_CHUNK readings on fast, one on default.
        if backend == "fast":
            assert len(events) < summary.n_iterations
        else:
            assert len(events) == summary.n_iterations
        assert sum(len(e["sensor_ids"]) for e in events) == summary.n_iterations
