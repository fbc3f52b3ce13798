"""End-to-end parity tests for the always-on exact fast paths.

Grid selection and estimate caching must be bit-identical to the
reference implementations they replace.  The grid drivers here run the
same measurement stream through a production localizer and a reference
localizer whose particle set answers every disc query with the
brute-force :meth:`ParticleSet.indices_within` scan, with identical rngs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import LocalizerConfig
from repro.core.localizer import MultiSourceLocalizer
from repro.obs.metrics import MetricsRegistry
from repro.physics.intensity import RadiationField
from repro.physics.source import RadiationSource
from repro.sensors.network import SensorNetwork
from repro.sensors.placement import grid_placement

EFFICIENCY = 1e-4
BACKGROUND = 5.0


def base_config(**overrides) -> LocalizerConfig:
    return LocalizerConfig(
        n_particles=overrides.pop("n_particles", 1500),
        area=(100.0, 100.0),
        assumed_efficiency=EFFICIENCY,
        assumed_background_cpm=BACKGROUND,
    ).with_overrides(**overrides)


def measurement_stream(sources, n_steps=6, seed=1):
    sensors = grid_placement(
        6, 6, 100, 100, efficiency=EFFICIENCY, background_cpm=BACKGROUND,
        margin_fraction=0.0,
    )
    network = SensorNetwork(
        sensors, RadiationField(sources), np.random.default_rng(seed)
    )
    stream = []
    for t in range(n_steps):
        stream.extend(network.measure_time_step(t))
    return stream


def brute_force_selection(localizer):
    """Route every grid disc query of ``localizer`` to the brute-force scan."""
    particles = localizer.particles
    particles.indices_within_grid = (
        lambda x, y, radius, cell_size: particles.indices_within(x, y, radius)
    )
    return localizer


def run_pair(config, stream, seed=0, **localizer_kwargs):
    """The same stream through grid and brute-force localizers, same rng seed."""
    fast = MultiSourceLocalizer(
        config, rng=np.random.default_rng(seed), **localizer_kwargs
    )
    ref = brute_force_selection(
        MultiSourceLocalizer(
            config, rng=np.random.default_rng(seed), **localizer_kwargs
        )
    )
    for m in stream:
        fast.observe(m)
        ref.observe(m)
    return fast, ref


SOURCES = [
    RadiationSource(25.0, 30.0, 9.0),
    RadiationSource(75.0, 70.0, 7.0),
]


class TestGridSelectionParity:
    """Grid-backed selection is exact: identical trajectories, bit for bit."""

    def test_bit_identical_population(self):
        stream = measurement_stream(SOURCES)
        # Only the selection differs between the runs (backend="default"
        # so a REPRO_BACKEND override cannot leak tolerance-level drift
        # into this bitwise comparison); the grid must then be invisible
        # to the filter.
        config = base_config(backend="default")
        fast, ref = run_pair(config, stream)
        assert fast.particles.grid_queries > 0
        assert ref.particles.grid_queries == 0
        np.testing.assert_array_equal(fast.particles.xs, ref.particles.xs)
        np.testing.assert_array_equal(fast.particles.ys, ref.particles.ys)
        np.testing.assert_array_equal(fast.particles.weights, ref.particles.weights)
        np.testing.assert_array_equal(
            fast.particles.strengths, ref.particles.strengths
        )

    def test_bit_identical_estimates(self):
        stream = measurement_stream(SOURCES)
        config = base_config(backend="default")
        fast, ref = run_pair(config, stream)
        fast_est = fast.estimates()
        ref_est = ref.estimates()
        assert len(fast_est) == len(ref_est)
        for a, b in zip(fast_est, ref_est):
            assert a.x == b.x and a.y == b.y and a.strength == b.strength

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_trajectory_parity_property(self, seed):
        rng = np.random.default_rng(seed)
        sources = [
            RadiationSource(
                float(rng.uniform(10, 90)), float(rng.uniform(10, 90)),
                float(rng.uniform(4, 10)),
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        stream = measurement_stream(sources, n_steps=3, seed=seed)
        config = base_config(
            n_particles=800,
            backend="default",
            fusion_range=float(rng.uniform(15, 45)),
        )
        fast, ref = run_pair(config, stream, seed=seed)
        np.testing.assert_array_equal(fast.particles.xs, ref.particles.xs)
        np.testing.assert_array_equal(fast.particles.weights, ref.particles.weights)


class TestEstimateCache:
    def test_repeated_calls_reuse_extraction(self):
        stream = measurement_stream(SOURCES)
        metrics = MetricsRegistry()
        localizer = MultiSourceLocalizer(
            base_config(), rng=np.random.default_rng(0), metrics=metrics
        )
        for m in stream:
            localizer.observe(m)
        first = localizer.estimates()
        misses = metrics.counter("localizer.estimate_cache_misses").value
        second = localizer.estimates()
        assert metrics.counter("localizer.estimate_cache_hits").value >= 1
        assert metrics.counter("localizer.estimate_cache_misses").value == misses
        assert [(e.x, e.y) for e in first] == [(e.x, e.y) for e in second]

    def test_cache_invalidated_by_resampling(self):
        """After a mutation the cache must recompute, not serve stale modes."""
        stream = measurement_stream(SOURCES)
        metrics = MetricsRegistry()
        localizer = MultiSourceLocalizer(
            base_config(), rng=np.random.default_rng(0), metrics=metrics
        )
        for m in stream[:-5]:
            localizer.observe(m)
        before = localizer.estimates()
        misses_before = metrics.counter("localizer.estimate_cache_misses").value
        revision_before = localizer.particles.revision
        # More observations resample (mutate) the population...
        for m in stream[-5:]:
            localizer.observe(m)
        assert localizer.particles.revision > revision_before
        # ...so the next estimates() call is a miss and recomputes.
        after = localizer.estimates()
        assert (
            metrics.counter("localizer.estimate_cache_misses").value
            > misses_before
        )
        assert isinstance(after, list)
        del before  # only the recomputation mattered

    def test_cached_estimates_match_uncached(self):
        stream = measurement_stream(SOURCES)
        localizer = MultiSourceLocalizer(base_config(), rng=np.random.default_rng(0))
        for m in stream:
            localizer.observe(m)
        miss = localizer.estimates()
        # A second call serves the cached candidates through the echo filter
        # and must be identical to the extraction that filled the cache.
        hit = localizer.estimates()
        assert [(e.x, e.y, e.strength) for e in hit] == [
            (e.x, e.y, e.strength) for e in miss
        ]


class TestGridMetrics:
    def test_grid_counters_populate(self):
        stream = measurement_stream(SOURCES, n_steps=3)
        metrics = MetricsRegistry()
        localizer = MultiSourceLocalizer(
            base_config(), rng=np.random.default_rng(0), metrics=metrics
        )
        for m in stream:
            localizer.observe(m)
        assert metrics.counter("localizer.grid_rebuilds").value >= 1
        assert metrics.counter("localizer.grid_queries").value >= len(stream)
        hist = metrics.histogram("localizer.grid_candidate_fraction").snapshot()
        assert hist["count"] >= 1
        # The grid's whole point: queries scan well under the full population.
        assert hist["max"] <= 1.0


class TestFullFastPathAccuracy:
    def test_all_fast_paths_localize_sources(self):
        """Defaults (every fast path on) still find the true sources."""
        stream = measurement_stream(SOURCES, n_steps=10)
        localizer = MultiSourceLocalizer(
            base_config(n_particles=3000), rng=np.random.default_rng(2)
        )
        for m in stream:
            localizer.observe(m)
        estimates = localizer.estimates()
        assert len(estimates) >= 2
        for source in SOURCES:
            best = min(
                np.hypot(e.x - source.x, e.y - source.y) for e in estimates
            )
            assert best < 12.0
