"""Tests for the parallel experiment engine (repro.exp)."""

import multiprocessing

import pytest

from repro.core.config import LocalizerConfig
from repro.exp.engine import run_cells, run_sweep
from repro.exp.spec import SweepSpec, Variant
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer
from repro.physics.source import RadiationSource
from repro.sensors.placement import grid_placement
from repro.sim.rng import RUN_SEED_STRIDE, derive_run_seed
from repro.sim.runner import run_repeated
from repro.sim.scenario import Scenario


def tiny_scenario(**kwargs) -> Scenario:
    defaults = dict(
        name="exp-tiny",
        area=(60.0, 60.0),
        sources=[RadiationSource(22.0, 38.0, 10.0, label="S1")],
        sensors=grid_placement(
            4, 4, 60.0, 60.0, efficiency=1e-4, background_cpm=5.0,
            margin_fraction=0.0,
        ),
        background_cpm=5.0,
        n_time_steps=4,
        localizer_config=LocalizerConfig(
            area=(60.0, 60.0), n_particles=400, assumed_background_cpm=5.0
        ),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestSweepSpec:
    def test_cells_are_variant_major_with_derived_seeds(self):
        scenario = tiny_scenario()
        spec = SweepSpec.of_scenarios(
            [("a", scenario), ("b", scenario)], n_repeats=3, base_seed=42
        )
        cells = spec.cells()
        assert len(cells) == spec.n_cells == 6
        assert [c.variant_name for c in cells] == ["a", "a", "a", "b", "b", "b"]
        assert [c.repeat_index for c in cells] == [0, 1, 2, 0, 1, 2]
        # Compared variants share the repeat-r seed (paper protocol).
        assert [c.seed for c in cells[:3]] == [c.seed for c in cells[3:]]
        assert [c.seed for c in cells[:3]] == [
            derive_run_seed(42, r) for r in range(3)
        ]

    def test_seed_derivation_contract_is_frozen(self):
        assert derive_run_seed(7, 0) == 7
        assert derive_run_seed(7, 3) == 7 + 3 * RUN_SEED_STRIDE
        with pytest.raises(ValueError, match=">= 0"):
            derive_run_seed(7, -1)

    def test_single_wraps_one_scenario(self):
        spec = SweepSpec.single(tiny_scenario(), n_repeats=2, base_seed=5)
        assert spec.variant_names() == ["exp-tiny"]
        assert spec.n_cells == 2

    def test_config_grid_replaces_localizer_config(self):
        scenario = tiny_scenario()
        configs = {
            "small": LocalizerConfig(
                area=(60.0, 60.0), n_particles=200, assumed_background_cpm=5.0
            ),
            "big": LocalizerConfig(
                area=(60.0, 60.0), n_particles=800, assumed_background_cpm=5.0
            ),
        }
        spec = SweepSpec.config_grid(scenario, configs, n_repeats=1)
        assert spec.variant_names() == ["small", "big"]
        by_name = {v.name: v for v in spec.variants}
        assert by_name["small"].scenario.localizer_config.n_particles == 200
        assert by_name["big"].scenario.localizer_config.n_particles == 800
        assert by_name["big"].scenario.name == "exp-tiny[big]"
        # The original scenario is untouched (variants are copies).
        assert scenario.localizer_config.n_particles == 400

    def test_validation(self):
        scenario = tiny_scenario()
        with pytest.raises(ValueError, match="at least one variant"):
            SweepSpec(variants=())
        with pytest.raises(ValueError, match="n_repeats"):
            SweepSpec.single(scenario, n_repeats=0)
        with pytest.raises(ValueError, match="unique"):
            SweepSpec(
                variants=(Variant("x", scenario), Variant("x", scenario)),
                n_repeats=1,
            )


class TestParallelDeterminism:
    def test_run_repeated_parallel_matches_serial_bitwise(self):
        """The headline regression: workers=4 == serial, exactly."""
        scenario = tiny_scenario()
        serial = run_repeated(scenario, n_repeats=4, base_seed=123)
        parallel = run_repeated(scenario, n_repeats=4, base_seed=123, workers=4)
        assert serial.n_repeats == parallel.n_repeats == 4
        for s_run, p_run in zip(serial.runs, parallel.runs):
            for source_index in range(len(serial.source_labels)):
                assert s_run.error_series(source_index) == p_run.error_series(
                    source_index
                )
            assert s_run.estimate_count_series() == p_run.estimate_count_series()
            assert s_run.final_estimates() == p_run.final_estimates()

    def test_run_sweep_variants_are_independent_of_workers(self):
        scenario = tiny_scenario()
        spec = SweepSpec.of_scenarios(
            [("a", scenario), ("b", tiny_scenario(n_time_steps=3))],
            n_repeats=2,
            base_seed=9,
        )
        serial = run_sweep(spec, workers=0)
        parallel = run_sweep(spec, workers=2)
        assert serial.variant_names() == parallel.variant_names()
        for name in serial.variant_names():
            for s_run, p_run in zip(serial[name].runs, parallel[name].runs):
                assert s_run.error_series(0) == p_run.error_series(0)
                assert s_run.final_estimates() == p_run.final_estimates()


class TestObservabilityMerge:
    def test_worker_metrics_merge_into_parent_registry(self):
        scenario = tiny_scenario()
        serial_metrics = MetricsRegistry()
        run_repeated(scenario, n_repeats=2, base_seed=1, metrics=serial_metrics)
        parallel_metrics = MetricsRegistry()
        run_repeated(
            scenario, n_repeats=2, base_seed=1, workers=2, metrics=parallel_metrics
        )
        assert parallel_metrics.counter("sweep.cells").value == 2
        # Deterministic localizer counters agree with the serial run.
        shared = set(serial_metrics.names()) & set(parallel_metrics.names())
        assert shared, "expected overlapping metric names"
        snapshot_s = serial_metrics.snapshot()
        snapshot_p = parallel_metrics.snapshot()
        for name in shared:
            if snapshot_s[name]["kind"] == "counter":
                assert snapshot_p[name]["value"] == snapshot_s[name]["value"], name

    def test_trace_replay_preserves_order_and_run_index(self):
        scenario = tiny_scenario()

        def collect(workers):
            sink = InMemorySink()
            run_repeated(
                scenario,
                n_repeats=3,
                base_seed=2,
                workers=workers,
                tracer=Tracer(sink),
            )
            return sink.records

        serial_records = collect(0)
        parallel_records = collect(2)
        # The parallel stream adds pool lifecycle events (pool_build /
        # pool_close); the *cell* events must replay identically.
        assert [
            r["type"]
            for r in parallel_records
            if not r["type"].startswith("pool_")
        ] == [r["type"] for r in serial_records]
        starts = [r for r in parallel_records if r["type"] == "run_start"]
        assert [r["run_index"] for r in starts] == [0, 1, 2]
        ends = [r for r in parallel_records if r["type"] == "run_end"]
        assert [r["run_index"] for r in ends] == [0, 1, 2]
        # Replayed events get fresh parent-side sequence numbers.
        seqs = [r["seq"] for r in parallel_records]
        assert seqs == sorted(seqs)


class TestFailureHandling:
    def test_worker_failure_falls_back_to_serial(self, monkeypatch):
        """A cell whose worker dies twice still produces a result in-process."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("monkeypatched worker function needs fork start method")
        import repro.exp.engine as engine

        real = engine._execute_cell
        calls = {"n": 0}

        def flaky(payload):
            # Worker-side executions (forked children inherit this patch)
            # always fail; the parent's fallback call runs the real thing.
            if multiprocessing.parent_process() is not None:
                raise RuntimeError("injected worker failure")
            calls["n"] += 1
            return real(payload)

        monkeypatch.setattr(engine, "_execute_cell", flaky)
        scenario = tiny_scenario(n_time_steps=2)
        spec = SweepSpec.single(scenario, n_repeats=2, base_seed=3)
        metrics = MetricsRegistry()
        results = run_cells(spec.cells(), workers=2, metrics=metrics)
        assert len(results) == 2
        assert calls["n"] == 2  # both cells ran in the parent
        assert metrics.counter("sweep.retries").value == 2
        assert metrics.counter("sweep.serial_fallbacks").value == 2
        # And the fallback results still honor the determinism contract.
        serial = run_cells(spec.cells(), workers=0)
        for fb_run, s_run in zip(results, serial):
            assert fb_run.error_series(0) == s_run.error_series(0)

    def test_workers_zero_is_plain_serial(self):
        spec = SweepSpec.single(tiny_scenario(n_time_steps=2), n_repeats=2)
        results = run_cells(spec.cells(), workers=0)
        assert len(results) == 2
        assert all(r.n_steps == 2 for r in results)


class TestRetryBackoff:
    def test_deterministic_in_seed_and_attempt(self):
        from repro.exp.engine import retry_backoff_seconds

        assert retry_backoff_seconds(42, 1) == retry_backoff_seconds(42, 1)
        assert retry_backoff_seconds(42, 1) != retry_backoff_seconds(43, 1)
        assert retry_backoff_seconds(42, 1) != retry_backoff_seconds(42, 2)

    def test_bounds_scale_with_attempt_and_cap(self):
        from repro.sim.rng import (
            RETRY_BACKOFF_BASE,
            RETRY_BACKOFF_MAX,
            retry_backoff_seconds,
        )

        for attempt in (1, 2, 3):
            for seed in range(20):
                delay = retry_backoff_seconds(seed, attempt)
                low = min(RETRY_BACKOFF_MAX, 0.5 * RETRY_BACKOFF_BASE * attempt)
                high = min(RETRY_BACKOFF_MAX, 1.5 * RETRY_BACKOFF_BASE * attempt)
                assert low <= delay <= high
        assert retry_backoff_seconds(7, 1000) == RETRY_BACKOFF_MAX

    def test_rejects_bad_attempt(self):
        from repro.exp.engine import retry_backoff_seconds

        with pytest.raises(ValueError):
            retry_backoff_seconds(1, 0)


class TestFaultGrid:
    def test_fault_grid_replaces_schedules_and_shares_seeds(self):
        from repro.faults import DropoutWindow, FaultSchedule

        scenario = tiny_scenario()
        schedule = FaultSchedule(
            models=(DropoutWindow(sensor_ids=(0,), start=0, end=2),), seed=4
        )
        spec = SweepSpec.fault_grid(
            scenario,
            {"clean": None, "dropout": schedule},
            n_repeats=2,
            base_seed=9,
        )
        assert spec.variant_names() == ["clean", "dropout"]
        by_name = {v.name: v for v in spec.variants}
        assert by_name["clean"].scenario.faults is None
        assert by_name["clean"].scenario.name == "exp-tiny[clean]"
        assert by_name["dropout"].scenario.faults == schedule
        # Repeat r of every variant shares the derived seed: compared
        # schedules see identical ground-truth noise.
        cells = spec.cells()
        seeds = {}
        for cell in cells:
            seeds.setdefault(cell.repeat_index, set()).add(cell.seed)
        assert all(len(s) == 1 for s in seeds.values())

    def test_fault_free_control_cell_matches_plain_run(self):
        from repro.faults import FaultSchedule

        scenario = tiny_scenario(n_time_steps=3)
        spec = SweepSpec.fault_grid(
            scenario,
            {"control": FaultSchedule()},
            n_repeats=1,
            base_seed=5,
        )
        faulted = run_cells(spec.cells(), workers=0)
        plain = run_cells(
            SweepSpec.single(scenario, n_repeats=1, base_seed=5).cells(),
            workers=0,
        )
        assert faulted[0].error_series(0) == plain[0].error_series(0)
