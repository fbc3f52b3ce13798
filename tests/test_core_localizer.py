"""Unit and behavioural tests for MultiSourceLocalizer."""

import numpy as np
import pytest

from repro.core.config import LocalizerConfig
from repro.core.fusion import FixedFusionRange, InfiniteFusionRange
from repro.core.localizer import MultiSourceLocalizer
from repro.core.particles import ParticleSet
from repro.physics.intensity import RadiationField
from repro.physics.source import RadiationSource
from repro.sensors.measurement import Measurement
from repro.sensors.network import SensorNetwork
from repro.sensors.placement import grid_placement

EFFICIENCY = 1e-4
BACKGROUND = 5.0


def make_localizer(seed=0, **overrides) -> MultiSourceLocalizer:
    config = LocalizerConfig(
        n_particles=overrides.pop("n_particles", 2000),
        area=(100.0, 100.0),
        assumed_efficiency=EFFICIENCY,
        assumed_background_cpm=BACKGROUND,
    ).with_overrides(**overrides)
    return MultiSourceLocalizer(config, rng=np.random.default_rng(seed))


def run_network(localizer, sources, n_steps=10, seed=1):
    sensors = grid_placement(
        6, 6, 100, 100, efficiency=EFFICIENCY, background_cpm=BACKGROUND,
        margin_fraction=0.0,
    )
    network = SensorNetwork(
        sensors, RadiationField(sources), np.random.default_rng(seed)
    )
    for t in range(n_steps):
        for m in network.measure_time_step(t):
            localizer.observe(m)
    return localizer


class TestConstruction:
    def test_default_fusion_policy_from_config(self):
        localizer = make_localizer(fusion_range=33.0)
        assert isinstance(localizer.fusion_policy, FixedFusionRange)
        assert localizer.fusion_policy.d == 33.0

    def test_custom_particles_must_match_config(self):
        config = LocalizerConfig(n_particles=100)
        particles = ParticleSet.uniform_random(
            50, (100, 100), (1, 100), np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="100"):
            MultiSourceLocalizer(config, particles=particles)

    def test_repr(self):
        assert "iteration=0" in repr(make_localizer())


class TestObserve:
    def test_iteration_counter(self):
        localizer = make_localizer()
        localizer.observe_reading(50.0, 50.0, 5.0)
        localizer.observe(Measurement(0, 20.0, 20.0, 7.0, 0, 0))
        assert localizer.iteration == 2

    def test_fusion_range_limits_touched(self):
        localizer = make_localizer()
        localizer.observe_reading(50.0, 50.0, 5.0)
        # With d = 28 over a 100x100 area, roughly pi*28^2/1e4 ~ 25% of a
        # uniform population is touched.
        fraction = localizer.last_touched / len(localizer.particles)
        assert 0.15 < fraction < 0.35

    def test_infinite_fusion_touches_everything(self):
        config = LocalizerConfig(
            n_particles=500,
            assumed_efficiency=EFFICIENCY,
            assumed_background_cpm=BACKGROUND,
        )
        localizer = MultiSourceLocalizer(
            config,
            fusion_policy=InfiniteFusionRange(),
            rng=np.random.default_rng(0),
        )
        localizer.observe_reading(50.0, 50.0, 5.0)
        assert localizer.last_touched == 500

    def test_empty_disc_is_noop(self):
        config = LocalizerConfig(
            n_particles=10, fusion_range=1.0,
            assumed_efficiency=EFFICIENCY, assumed_background_cpm=BACKGROUND,
        )
        particles = ParticleSet(
            xs=np.full(10, 90.0), ys=np.full(10, 90.0), strengths=np.full(10, 5.0)
        )
        localizer = MultiSourceLocalizer(
            config, particles=particles, rng=np.random.default_rng(0)
        )
        localizer.observe_reading(10.0, 10.0, 5.0)
        assert localizer.last_touched == 0
        np.testing.assert_array_equal(localizer.particles.xs, 90.0)

    def test_negative_cpm_rejected(self):
        with pytest.raises(ValueError):
            make_localizer().observe_reading(0.0, 0.0, -1.0)

    def test_weights_stay_normalized(self):
        localizer = make_localizer()
        run_network(localizer, [RadiationSource(47, 71, 50.0)], n_steps=3)
        assert localizer.particles.total_weight() == pytest.approx(1.0)


class TestSingleSourceConvergence:
    def test_localizes_single_source(self):
        localizer = make_localizer()
        run_network(localizer, [RadiationSource(47, 71, 50.0)], n_steps=10)
        estimates = localizer.estimates()
        assert len(estimates) >= 1
        best = min(estimates, key=lambda e: e.distance_to(47, 71))
        assert best.distance_to(47, 71) < 6.0
        assert best.strength == pytest.approx(50.0, rel=0.5)

    def test_estimated_source_count(self):
        localizer = make_localizer()
        run_network(localizer, [RadiationSource(47, 71, 50.0)], n_steps=10)
        assert localizer.estimated_source_count() == len(localizer.estimates())

    def test_particles_concentrate_near_source(self):
        localizer = make_localizer()
        run_network(localizer, [RadiationSource(47, 71, 50.0)], n_steps=10)
        p = localizer.particles
        near = p.indices_within(47, 71, 15.0)
        assert len(near) / len(p) > 0.3


class TestMultiSourceConvergence:
    def test_localizes_two_sources_without_knowing_k(self):
        localizer = make_localizer(n_particles=3000)
        sources = [RadiationSource(47, 71, 50.0), RadiationSource(81, 42, 50.0)]
        run_network(localizer, sources, n_steps=12)
        estimates = localizer.estimates()
        for source in sources:
            best = min(e.distance_to(source.x, source.y) for e in estimates)
            assert best < 8.0

    def test_no_sources_no_estimates(self):
        localizer = make_localizer()
        # Background-only network: after convergence, strength hypotheses
        # collapse and no estimates survive the filters.
        run_network(localizer, [RadiationSource(50, 50, 0.0)], n_steps=8)
        assert localizer.estimates() == []


class TestMovementModel:
    def test_movement_model_applied(self):
        calls = []

        def drift(xs, ys, strengths, rng):
            calls.append(len(xs))
            return xs + 1.0, ys, strengths

        config = LocalizerConfig(
            n_particles=100, assumed_efficiency=EFFICIENCY,
            assumed_background_cpm=BACKGROUND,
        )
        localizer = MultiSourceLocalizer(
            config, rng=np.random.default_rng(0), movement_model=drift
        )
        before = localizer.particles.xs.copy()
        localizer.observe_reading(50.0, 50.0, 5.0)
        assert calls and calls[0] > 0
        # Some particles moved right by ~1 before the resampling step.
        assert localizer.iteration == 1


class TestResampleSelectionReuse:
    """A chunk's first admitted reading resamples its own selection.

    Weight updates move no particle, so the first reading's fusion disc is
    unchanged when its full-disc resample runs; every later reading
    re-queries, because earlier resamples move particles in and out.
    """

    @pytest.mark.parametrize("backend", ["default", "fast"])
    def test_grid_queries_per_session(self, backend):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.sinks import InMemorySink
        from repro.obs.trace import Tracer
        from repro.sim.scenarios import scenario_a
        from repro.sim.session import SessionSpec

        sink, registry = InMemorySink(), MetricsRegistry()
        session = SessionSpec(
            scenario=scenario_a(n_time_steps=3, n_particles=1000),
            seed=4,
            backend=backend,
        ).open(tracer=Tracer(sink), metrics=registry)
        localizer = session.localizer
        observe_batch = localizer.observe_batch
        queries = []

        def counted(batch):
            # Only the observe loop's queries: estimate extraction between
            # steps queries the grid too.
            before = localizer.particles.grid_queries
            observe_batch(batch)
            queries.append(localizer.particles.grid_queries - before)

        localizer.observe_batch = counted
        session.run()

        readings = localizer.iteration
        non_empty = readings - registry.counter("localizer.empty_subsets").value
        chunks = [e for e in sink.of_type("iteration") if e["touched"] > 0]
        assert non_empty > 0
        # One selection per admitted reading, plus one resample re-query
        # per non-empty reading except each chunk's first.
        assert sum(queries) == readings + non_empty - len(chunks)
        if backend == "default":
            assert sum(queries) == readings
        else:
            assert len(chunks) < non_empty


class TestSnapshotAndDiagnostics:
    def test_snapshot_is_a_copy(self):
        localizer = make_localizer()
        snap = localizer.particle_snapshot()
        snap.xs[:] = -1.0
        assert localizer.particles.xs.min() >= 0.0

    def test_effective_sample_size_reported(self):
        localizer = make_localizer()
        assert localizer.effective_sample_size() == pytest.approx(
            len(localizer.particles)
        )


class TestEchoFilter:
    def test_echo_filter_disabled_passes_everything(self):
        localizer = make_localizer(echo_residual_fraction=0.0)
        run_network(localizer, [RadiationSource(47, 71, 50.0)], n_steps=5)
        raw = len(localizer.estimates())
        assert raw >= 1  # at minimum the true source

    def test_reading_cache_updates(self):
        localizer = make_localizer()
        localizer.observe_reading(10.0, 10.0, 100.0)
        localizer.observe_reading(10.0, 10.0, 0.0)
        key = (10.0, 10.0)
        # EMA(0.3): 100 then 0.7*100 = 70.
        assert localizer._reading_ema[key] == pytest.approx(70.0)
