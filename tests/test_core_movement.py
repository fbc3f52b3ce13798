"""Tests for movement models and the tracking extension."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.config import LocalizerConfig
from repro.core.localizer import MultiSourceLocalizer
from repro.core.movement import DriftModel, RandomWalkModel, StaticModel
from repro.physics.intensity import RadiationField
from repro.physics.source import RadiationSource
from repro.sensors.network import SensorNetwork
from repro.sensors.placement import grid_placement


class TestStaticModel:
    def test_identity(self):
        xs, ys, ss = np.arange(3.0), np.arange(3.0), np.ones(3)
        out = StaticModel()(xs, ys, ss, np.random.default_rng(0))
        np.testing.assert_array_equal(out[0], xs)
        np.testing.assert_array_equal(out[1], ys)
        np.testing.assert_array_equal(out[2], ss)


class TestRandomWalkModel:
    def test_zero_sigma_is_identity(self):
        xs, ys, ss = np.arange(5.0), np.arange(5.0), np.ones(5)
        out = RandomWalkModel(0.0)(xs, ys, ss, np.random.default_rng(0))
        np.testing.assert_array_equal(out[0], xs)

    def test_diffusion_statistics(self):
        n = 20000
        xs, ys, ss = np.zeros(n), np.zeros(n), np.ones(n)
        out = RandomWalkModel(2.0)(xs, ys, ss, np.random.default_rng(0))
        assert abs(out[0].mean()) < 0.1
        assert out[0].std() == pytest.approx(2.0, rel=0.05)
        np.testing.assert_array_equal(out[2], ss)  # strengths untouched

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            RandomWalkModel(-1.0)


class TestDriftModel:
    def test_pure_drift(self):
        xs, ys, ss = np.zeros(4), np.zeros(4), np.ones(4)
        out = DriftModel(1.5, -0.5)(xs, ys, ss, np.random.default_rng(0))
        np.testing.assert_allclose(out[0], 1.5)
        np.testing.assert_allclose(out[1], -0.5)

    def test_drift_plus_diffusion(self):
        n = 20000
        xs, ys, ss = np.zeros(n), np.zeros(n), np.ones(n)
        out = DriftModel(3.0, 0.0, sigma=1.0)(xs, ys, ss, np.random.default_rng(0))
        assert out[0].mean() == pytest.approx(3.0, abs=0.05)
        assert out[0].std() == pytest.approx(1.0, rel=0.05)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            DriftModel(0, 0, sigma=-0.1)


class TestTrackingIntegration:
    def test_random_walk_tracks_moving_source(self):
        """A source moving 2 units/step is tracked within ~8 units."""
        efficiency, background = 1e-4, 5.0
        sensors = grid_placement(
            6, 6, 100, 100, efficiency=efficiency, background_cpm=background,
            margin_fraction=0.0,
        )
        config = LocalizerConfig(
            n_particles=3000,
            area=(100.0, 100.0),
            assumed_efficiency=efficiency,
            assumed_background_cpm=background,
        )
        localizer = MultiSourceLocalizer(
            config,
            rng=np.random.default_rng(0),
            movement_model=RandomWalkModel(0.3),
        )
        rng = np.random.default_rng(1)
        final_x = 0.0
        for t in range(20):
            x = 20.0 + 2.0 * t
            final_x = x
            source = RadiationSource(x, 50.0, 100.0)
            network = SensorNetwork(sensors, RadiationField([source]), rng)
            for measurement in network.measure_time_step(t):
                localizer.observe(measurement)
        estimates = localizer.estimates()
        assert estimates, "tracker lost the source entirely"
        best = min(e.distance_to(final_x, 50.0) for e in estimates)
        assert best < 8.0, f"tracking error {best:.1f}"


class TestMovementSessionPinned:
    """A random-walk session's numbers, pinned on both backends.

    A movement model runs the observe loop one reading at a time with the
    prediction between selection and weighting; these digests (step
    records without their timing field, then the final particle arrays)
    were captured before prediction moved into the chunk loop and must
    not change.  The ``fast`` digest depends on numpy's float32 kernels.
    """

    @pytest.mark.parametrize(
        "backend, expected",
        [
            (
                "default",
                "11260458b9ba8432fd5dbce406bec244eb4f70e04218ec6f2b7323b79b999c6d",
            ),
            (
                "fast",
                "db4e30c4d72a83758100ee83da9f3ddbf682765a0a600b117b5b97a6bc33daf2",
            ),
        ],
    )
    def test_random_walk_session_digest(self, backend, expected):
        from repro.sim.scenarios import scenario_a
        from repro.sim.serialization import step_record_to_dict
        from repro.sim.session import SessionSpec

        session = SessionSpec(
            scenario=scenario_a(n_time_steps=4, n_particles=1000),
            seed=3,
            backend=backend,
        ).open()
        session.localizer.movement_model = RandomWalkModel(0.5)
        result = session.run()
        digest = hashlib.sha256()
        for record in result.steps:
            doc = step_record_to_dict(record)
            doc.pop("mean_iteration_seconds")
            digest.update(json.dumps(doc, sort_keys=True).encode())
        particles = session.localizer.particles
        for values in (
            particles.xs, particles.ys, particles.strengths, particles.weights
        ):
            digest.update(values.tobytes())
        assert session.localizer.iteration == 144
        assert digest.hexdigest() == expected
