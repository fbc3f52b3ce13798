"""End-to-end integration tests: the paper's headline claims, in miniature.

Each test runs the full stack (physics -> sensors -> transport -> localizer
-> metrics) and asserts the qualitative result the paper reports.  These
use reduced particle counts and time steps to stay fast; the full-scale
numbers live in benchmarks/.
"""

import os

import numpy as np
import pytest

from repro.core.fusion import InfiniteFusionRange
from repro.eval.aggregate import mean_over_steps
from repro.network.link import LossyLink, PerfectLink, UniformLatencyLink
from repro.network.transport import OutOfOrderDelivery, ShuffledDelivery
from repro.sim.runner import run_scenario
from repro.sim.scenarios import scenario_a, scenario_a_three_sources


def small_a(**kwargs):
    kwargs.setdefault("n_particles", 2000)
    kwargs.setdefault("n_time_steps", 15)
    return scenario_a(**kwargs)


class TestHeadlineAccuracy:
    def test_two_sources_converge_without_knowing_k(self):
        result = run_scenario(small_a(strengths=(50.0, 50.0)), seed=2)
        for i in range(2):
            tail = mean_over_steps(result.error_series(i), first_step=8)
            assert tail < 10.0, f"source {i + 1} tail error {tail}"

    @pytest.mark.skipif(
        (os.environ.get("REPRO_BACKEND") or "default") != "default",
        reason="single-seed accuracy thresholds are calibrated against the "
        "float64 reference; accelerated backends are tolerance-parity and "
        "can land this seed on the other side of the bar",
    )
    def test_three_sources(self):
        scenario = scenario_a_three_sources(
            strengths=(50.0, 50.0, 50.0), n_particles=3000, n_time_steps=15
        )
        result = run_scenario(scenario, seed=2)
        for i in range(3):
            tail = mean_over_steps(result.error_series(i), first_step=10)
            assert tail < 12.0, f"source {i + 1} tail error {tail}"

    def test_error_decreases_from_start(self):
        result = run_scenario(small_a(strengths=(50.0, 50.0)), seed=2)
        early = np.mean(
            [min(e, 40.0) for e in result.error_series(0)[:2]]
            + [min(e, 40.0) for e in result.error_series(1)[:2]]
        )
        late = np.mean(
            [min(e, 40.0) for e in result.error_series(0)[-3:]]
            + [min(e, 40.0) for e in result.error_series(1)[-3:]]
        )
        assert late <= early + 1.0

    def test_false_counts_settle(self):
        result = run_scenario(small_a(strengths=(50.0, 50.0)), seed=2)
        fp_tail = np.mean(result.false_positive_series()[8:])
        fn_tail = np.mean(result.false_negative_series()[8:])
        assert fp_tail <= 1.5
        assert fn_tail <= 1.0


class TestFusionRangeMatters:
    def test_without_fusion_range_multi_source_fails(self):
        # Fig. 2: a classic PF (infinite fusion range) cannot hold two
        # clusters; at least one source ends badly localized.
        scenario = small_a(strengths=(50.0, 50.0))
        with_fr = run_scenario(scenario, seed=4)
        without_fr = run_scenario(
            scenario, seed=4, fusion_policy=InfiniteFusionRange()
        )
        worst_with = max(
            mean_over_steps(with_fr.error_series(i), 8) for i in range(2)
        )
        worst_without = max(
            mean_over_steps(without_fr.error_series(i), 8) for i in range(2)
        )
        assert worst_without > worst_with


class TestTransportRobustness:
    def test_shuffled_delivery_still_converges(self):
        scenario = small_a(strengths=(50.0, 50.0)).with_delivery(ShuffledDelivery())
        result = run_scenario(scenario, seed=2)
        for i in range(2):
            assert mean_over_steps(result.error_series(i), 8) < 12.0

    def test_out_of_order_delivery_still_converges(self):
        scenario = small_a(strengths=(50.0, 50.0)).with_delivery(
            OutOfOrderDelivery(UniformLatencyLink(0.0, 2.0))
        )
        result = run_scenario(scenario, seed=2)
        for i in range(2):
            assert mean_over_steps(result.error_series(i), 8) < 12.0

    def test_lossy_network_still_converges(self):
        scenario = small_a(strengths=(50.0, 50.0)).with_delivery(
            OutOfOrderDelivery(LossyLink(PerfectLink(), 0.3))
        )
        result = run_scenario(scenario, seed=2)
        for i in range(2):
            assert mean_over_steps(result.error_series(i), 8) < 12.0

    def test_failed_sensors_tolerated(self):
        from repro.sensors.placement import fail_sensors

        scenario = small_a(strengths=(50.0, 50.0))
        fail_sensors(scenario.sensors, 0.15, np.random.default_rng(0))
        result = run_scenario(scenario, seed=2)
        for i in range(2):
            assert mean_over_steps(result.error_series(i), 8) < 12.0


class TestObstacles:
    def test_unknown_obstacle_does_not_break_localization(self):
        # The localizer's model is free space; the truth has a U-shaped
        # obstacle it was never told about.
        result = run_scenario(
            small_a(strengths=(50.0, 50.0), with_obstacle=True), seed=2
        )
        for i in range(2):
            assert mean_over_steps(result.error_series(i), 8) < 12.0

    def test_obstacle_attenuates_readings(self):
        clear = small_a(strengths=(50.0, 50.0))
        blocked = small_a(strengths=(50.0, 50.0), with_obstacle=True)
        field_clear = clear.field_with_obstacles()
        field_blocked = blocked.field_with_obstacles()
        # A point across the U wall from source 1 sees less intensity.
        assert field_blocked.intensity_at(47.0, 20.0) < field_clear.intensity_at(
            47.0, 20.0
        )


class TestDeterminism:
    def test_full_run_reproducible(self):
        a = run_scenario(small_a(), seed=11)
        b = run_scenario(small_a(), seed=11)
        assert a.error_series(0) == b.error_series(0)
        assert a.error_series(1) == b.error_series(1)
        assert a.false_positive_series() == b.false_positive_series()
        assert [len(s.estimates) for s in a.steps] == [
            len(s.estimates) for s in b.steps
        ]
