"""Unit and integration tests for the repro.sim package."""

import pytest

from repro.core.config import LocalizerConfig
from repro.network.transport import OutOfOrderDelivery
from repro.physics.source import RadiationSource
from repro.sensors.placement import grid_placement
from repro.sim.rng import seeded_rng, spawn_rngs
from repro.sim.runner import run_repeated, run_scenario
from repro.sim.scenario import Scenario
from repro.sim.scenarios import (
    SCENARIO_A3_SOURCES,
    SCENARIO_A_SOURCES,
    SCENARIO_B_SOURCES,
    scenario_a,
    scenario_a_three_sources,
    scenario_b,
    scenario_c,
    scenario_c_fusion_policy,
)


class TestRng:
    def test_seeded_rng_deterministic(self):
        assert seeded_rng(42).uniform() == seeded_rng(42).uniform()

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(7, 2)
        assert a.uniform() != b.uniform()

    def test_spawn_reproducible(self):
        first = [g.uniform() for g in spawn_rngs(7, 3)]
        second = [g.uniform() for g in spawn_rngs(7, 3)]
        assert first == second

    def test_spawn_count_validated(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)


def tiny_scenario(**kwargs) -> Scenario:
    defaults = dict(
        name="tiny",
        area=(100.0, 100.0),
        sources=[RadiationSource(47, 71, 50.0, label="S1")],
        sensors=grid_placement(
            4, 4, 100, 100, efficiency=1e-4, background_cpm=5.0, margin_fraction=0.0
        ),
        background_cpm=5.0,
        n_time_steps=5,
        localizer_config=LocalizerConfig(
            n_particles=1500,
            area=(100.0, 100.0),
            assumed_efficiency=1e-4,
            assumed_background_cpm=5.0,
        ),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestScenario:
    def test_validation_source_outside_area(self):
        with pytest.raises(ValueError, match="outside"):
            tiny_scenario(sources=[RadiationSource(150, 50, 1.0)])

    def test_needs_sources_and_sensors(self):
        with pytest.raises(ValueError):
            tiny_scenario(sources=[])
        with pytest.raises(ValueError):
            tiny_scenario(sensors=[])

    def test_default_config_built(self):
        scenario = tiny_scenario(localizer_config=None)
        assert scenario.localizer_config is not None
        assert scenario.localizer_config.area == scenario.area

    def test_without_obstacles_twin(self):
        scenario = scenario_a(with_obstacle=True)
        twin = scenario.without_obstacles()
        assert len(scenario.obstacles) == 1
        assert twin.obstacles == []
        assert twin.sources == scenario.sources

    def test_describe(self):
        text = tiny_scenario().describe()
        assert "1 sources" in text and "16 sensors" in text

    def test_source_positions_array(self):
        positions = tiny_scenario().source_positions()
        assert positions.shape == (1, 2)


class TestPaperScenarios:
    def test_scenario_a_layout(self):
        scenario = scenario_a()
        assert len(scenario.sensors) == 36
        assert scenario.area == (100.0, 100.0)
        assert [s.position for s in scenario.sources] == list(SCENARIO_A_SOURCES)

    def test_scenario_a_obstacle_is_u_shape(self):
        scenario = scenario_a(with_obstacle=True)
        assert len(scenario.obstacles) == 1
        assert scenario.obstacles[0].mu == pytest.approx(0.0693, rel=1e-3)

    def test_scenario_a_strength_mismatch_rejected(self):
        with pytest.raises(ValueError):
            scenario_a(strengths=(1.0, 2.0, 3.0))

    def test_scenario_a3(self):
        scenario = scenario_a_three_sources()
        assert [s.position for s in scenario.sources] == list(SCENARIO_A3_SOURCES)

    def test_scenario_b_layout(self):
        scenario = scenario_b()
        assert len(scenario.sensors) == 196
        assert len(scenario.sources) == 9
        assert len(scenario.obstacles) == 3
        assert scenario.localizer_config.n_particles == 15000
        strengths = [s.strength for s in scenario.sources]
        assert min(strengths) >= 10.0 and max(strengths) <= 100.0

    def test_scenario_b_obstacle_ablation(self):
        assert scenario_b(with_obstacles=False).obstacles == []

    def test_scenario_c_layout(self):
        scenario = scenario_c(seed=1)
        assert len(scenario.sensors) == 195
        assert isinstance(scenario.delivery, OutOfOrderDelivery)
        # Sources identical to Scenario B.
        assert [s.position for s in scenario.sources] == [
            (x, y) for x, y, _ in SCENARIO_B_SOURCES
        ]

    def test_scenario_c_deterministic_placement(self):
        a = scenario_c(seed=5)
        b = scenario_c(seed=5)
        assert [(s.x, s.y) for s in a.sensors] == [(s.x, s.y) for s in b.sensors]

    def test_scenario_c_fusion_policy(self):
        scenario = scenario_c(seed=1)
        policy = scenario_c_fusion_policy(scenario)
        sensor = scenario.sensors[0]
        assert policy.range_for(sensor.sensor_id, sensor.x, sensor.y) > 0


class TestRunner:
    def test_records_every_step(self):
        result = run_scenario(tiny_scenario(), seed=0)
        assert result.n_steps == 5
        assert all(s.n_measurements == 16 for s in result.steps)

    def test_deterministic_given_seed(self):
        a = run_scenario(tiny_scenario(), seed=3)
        b = run_scenario(tiny_scenario(), seed=3)
        assert a.error_series(0) == b.error_series(0)
        assert a.false_positive_series() == b.false_positive_series()

    def test_different_seeds_differ(self):
        a = run_scenario(tiny_scenario(), seed=3)
        b = run_scenario(tiny_scenario(), seed=4)
        assert a.error_series(0) != b.error_series(0)

    def test_converges_on_easy_source(self):
        result = run_scenario(tiny_scenario(), seed=0)
        assert result.error_series(0)[-1] < 10.0

    def test_snapshots_captured_on_request(self):
        result = run_scenario(tiny_scenario(), seed=0, snapshot_steps=(1, 3))
        assert result.steps[1].snapshot is not None
        assert result.steps[3].snapshot is not None
        assert result.steps[0].snapshot is None

    def test_out_of_order_tail_folded_into_last_step(self):
        from repro.network.link import UniformLatencyLink

        scenario = tiny_scenario(
            delivery=OutOfOrderDelivery(UniformLatencyLink(0.0, 2.0))
        )
        result = run_scenario(scenario, seed=0)
        assert result.n_steps == scenario.n_time_steps

    def test_iteration_seconds_recorded(self):
        result = run_scenario(tiny_scenario(), seed=0)
        assert result.mean_iteration_seconds() > 0


class TestRunRepeated:
    def test_aggregates_runs(self):
        agg = run_repeated(tiny_scenario(), n_repeats=3, base_seed=0)
        assert agg.n_repeats == 3
        assert len(agg.mean_error_series(0)) == 5
        assert len(agg.mean_false_positive_series()) == 5

    def test_all_mean_series_keys(self):
        agg = run_repeated(tiny_scenario(), n_repeats=2, base_seed=0)
        series = agg.all_mean_series()
        assert set(series) == {"err[S1]", "FP", "FN"}

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            run_repeated(tiny_scenario(), n_repeats=0)
