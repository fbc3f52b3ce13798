"""The pluggable array-backend layer: registry, parity, and scratch reuse.

Three contract families:

* **Registry** -- the one list of backend names, name resolution
  precedence (config field over ``REPRO_BACKEND`` over the default),
  and validation.
* **Parity** -- the default backend must be *bitwise* identical to the
  pre-backend code (it routes through the unmodified reference kernels by
  construction, and a dual-run regression pins that); the float32 fast
  backend is tolerance-parity on every kernel, property-tested across
  delivered counts, tempering exponents, credibility weights, and
  quarantine-induced skips.
* **Scratch** -- the fast backend's per-step allocation count must reach
  zero once warm (the SoA buffers are preallocated and reused).
"""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import meanshift
from repro.core.backend import (
    REFERENCE_BACKEND,
    ArrayBackend,
    FastNumpyBackend,
    NumpyBackend,
    get_backend,
    resolve_backend_name,
)
from repro.core.config import BACKEND_NAMES, LocalizerConfig
from repro.core.estimator import extract_estimates
from repro.core.localizer import MultiSourceLocalizer
from repro.core.particles import ParticleSet
from repro.core.weighting import reweight_in_place
from repro.obs.metrics import MetricsRegistry
from repro.physics.intensity import RadiationField
from repro.physics.source import RadiationSource
from repro.sensors.measurement import Measurement
from repro.sensors.network import SensorNetwork
from repro.sensors.placement import grid_placement

EFFICIENCY = 1e-4
BACKGROUND = 5.0

#: Seeds of the paired fast-vs-default accuracy contract.
ACCURACY_SEEDS = range(1, 11)
#: Declared margin (length units) on the median paired difference of
#: steady-state worst-source error, fast minus default.  Seeds 1-10 give
#: a median of about 0.67; the all-at-once fusion regression sat near 20.
PAIRED_MEDIAN_MARGIN = 1.5
#: A steady-state worst-source error above this counts as a missed source.
MISS_ERROR = 20.0


def base_config(**overrides) -> LocalizerConfig:
    return LocalizerConfig(
        n_particles=overrides.pop("n_particles", 1200),
        area=(100.0, 100.0),
        assumed_efficiency=EFFICIENCY,
        assumed_background_cpm=BACKGROUND,
    ).with_overrides(**overrides)


def measurement_stream(n_steps=4, seed=3):
    sensors = grid_placement(
        5, 5, 100, 100, efficiency=EFFICIENCY, background_cpm=BACKGROUND,
        margin_fraction=0.0,
    )
    sources = [
        RadiationSource(30.0, 35.0, 40.0),
        RadiationSource(70.0, 65.0, 55.0),
    ]
    network = SensorNetwork(
        sensors, RadiationField(sources), np.random.default_rng(seed)
    )
    steps = []
    for t in range(n_steps):
        steps.append(network.measure_time_step(t))
    return steps


# --- registry / resolution ------------------------------------------------------


class TestRegistry:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("default", "fast")
        for name in BACKEND_NAMES:
            assert resolve_backend_name(name) == name
            assert get_backend(name).name == name

    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name(None) == "default"
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert resolve_backend_name(None) == "fast"
        # The config field shadows the env var.
        assert resolve_backend_name("default") == "default"

    def test_unknown_name_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown"):
            resolve_backend_name("turbo")
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        with pytest.raises(ValueError, match="unknown"):
            resolve_backend_name(None)

    def test_config_validates_backend(self):
        with pytest.raises(ValueError):
            base_config(backend="turbo")
        assert base_config(backend="fast").backend == "fast"

    def test_get_backend_instances(self):
        default = get_backend("default")
        assert isinstance(default, NumpyBackend)
        assert not default.accelerated
        assert default.describe() == {"name": "default", "dtype": "float64"}
        fast = get_backend("fast")
        assert isinstance(fast, FastNumpyBackend)
        assert fast.accelerated
        assert fast.describe() == {"name": "fast", "dtype": "float32"}
        # Fresh scratch per instance: no cross-localizer aliasing.
        assert get_backend("fast") is not fast


# --- bitwise parity of the default backend --------------------------------------


class TestDefaultBitwise:
    def test_default_backend_matches_direct_call(self, monkeypatch):
        """Dispatch through the backend == calling the kernels directly."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        config = base_config()
        steps = measurement_stream()
        through = MultiSourceLocalizer(
            config.with_overrides(backend="default"),
            rng=np.random.default_rng(5),
        )
        direct = MultiSourceLocalizer(config, rng=np.random.default_rng(5))
        assert not direct.backend.accelerated
        for batch in steps:
            for m in batch:
                through.observe(m)
                direct.observe(m)
        np.testing.assert_array_equal(
            through.particles.weights, direct.particles.weights
        )
        np.testing.assert_array_equal(through.particles.xs, direct.particles.xs)

    def test_reweight_backend_none_is_reference(self, monkeypatch):
        """``backend=None`` and a non-accelerated backend are the same code."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        config = base_config()
        rng = np.random.default_rng(11)
        a = MultiSourceLocalizer(config, rng=np.random.default_rng(0)).particles
        b = a.copy() if hasattr(a, "copy") else None
        weights_before = a.weights.copy()
        indices = np.arange(len(a))
        reweight_in_place(
            a, indices, 12.0, 40.0, 40.0,
            efficiency=EFFICIENCY, background_cpm=BACKGROUND,
        )
        expected = a.weights.copy()
        a.weights[:] = weights_before
        reweight_in_place(
            a, indices, 12.0, 40.0, 40.0,
            efficiency=EFFICIENCY, background_cpm=BACKGROUND,
            backend=get_backend("default"),
        )
        np.testing.assert_array_equal(a.weights, expected)

    def test_observe_batch_default_is_bitwise_loop(self, monkeypatch):
        """observe_batch under the default backend == the observe loop."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        config = base_config()
        steps = measurement_stream()
        batched = MultiSourceLocalizer(config, rng=np.random.default_rng(5))
        looped = MultiSourceLocalizer(config, rng=np.random.default_rng(5))
        for batch in steps:
            batched.observe_batch(batch)
            for m in batch:
                looped.observe(m)
        np.testing.assert_array_equal(
            batched.particles.weights, looped.particles.weights
        )
        np.testing.assert_array_equal(batched.particles.xs, looped.particles.xs)


# --- tolerance parity of the fast backend ---------------------------------------


def _batch_inputs(localizer, n_delivered, counts, credibility=None):
    particles = localizer.particles
    rng = np.random.default_rng(17)
    sensor_x = rng.uniform(0, 100, n_delivered)
    sensor_y = rng.uniform(0, 100, n_delivered)
    return particles, sensor_x, sensor_y, np.asarray(counts, dtype=float)


def _ragged_subsets(particles, sensor_x, sensor_y, radius=30.0):
    """Per-reading particle rows cycling through disc, empty and everyone."""
    kinds = (
        lambda x, y: particles.indices_within(x, y, radius),
        lambda x, y: np.empty(0, dtype=np.int64),
        lambda x, y: np.arange(len(particles)),
    )
    return [
        kinds[b % len(kinds)](x, y)
        for b, (x, y) in enumerate(zip(sensor_x, sensor_y))
    ]


count_lists = st.lists(
    st.one_of(
        st.just(0.0),
        st.just(1.0),
        st.floats(min_value=2.0, max_value=5000.0),
    ),
    min_size=1,
    max_size=6,
)


class TestFastParity:
    @given(
        counts=count_lists,
        tempering=st.sampled_from([0.0, 0.25, 1.0]),
        credibility=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_log_likelihood_matches_reference(
        self, counts, tempering, credibility
    ):
        config = base_config(n_particles=400)
        localizer = MultiSourceLocalizer(config, rng=np.random.default_rng(2))
        particles, sx, sy, counts = _batch_inputs(
            localizer, len(counts), counts
        )
        subsets = _ragged_subsets(particles, sx, sy)
        cred = np.full(len(counts), credibility)
        interference = np.linspace(0.0, 3.0, len(counts))
        reference = ArrayBackend().log_likelihood_batch(
            particles, subsets, sx, sy, counts,
            efficiency=EFFICIENCY, background_cpm=BACKGROUND,
            under_prediction_tempering=tempering,
            interference_cpm=interference, credibility_weights=cred,
        )
        fast = get_backend("fast").log_likelihood_batch(
            particles, subsets, sx, sy, counts,
            efficiency=EFFICIENCY, background_cpm=BACKGROUND,
            under_prediction_tempering=tempering,
            interference_cpm=interference, credibility_weights=cred,
        )
        assert len(fast) == len(reference) == len(subsets)
        for subset, ref_row, fast_row in zip(subsets, reference, fast):
            assert ref_row.shape == fast_row.shape == (len(subset),)
            finite = np.isfinite(ref_row)
            assert np.array_equal(finite, np.isfinite(fast_row))
            if not finite.any():
                continue
            # float32 forward model: relative agreement, scaled by magnitude.
            np.testing.assert_allclose(
                np.asarray(fast_row, dtype=float)[finite],
                ref_row[finite],
                rtol=5e-4,
                atol=5e-3 * max(1.0, float(np.abs(ref_row[finite]).max())),
            )

    def test_empty_batch(self):
        config = base_config(n_particles=200)
        localizer = MultiSourceLocalizer(config, rng=np.random.default_rng(2))
        for backend in (ArrayBackend(), get_backend("fast")):
            out = backend.log_likelihood_batch(
                localizer.particles, [],
                np.empty(0), np.empty(0), np.empty(0),
                efficiency=EFFICIENCY, background_cpm=BACKGROUND,
            )
            assert out == []
            # A batch whose only reading selected nothing.
            (row,) = backend.log_likelihood_batch(
                localizer.particles, [np.empty(0, dtype=np.int64)],
                np.array([50.0]), np.array([50.0]), np.array([3.0]),
                efficiency=EFFICIENCY, background_cpm=BACKGROUND,
            )
            assert row.shape == (0,)

    def test_apply_is_bitwise_reference(self):
        """The fast apply is the reference arithmetic on scratch buffers:
        the same float64 likelihood gives the same weights bit for bit,
        including a fully deflated subset and an all-impossible reading."""
        from repro.core.particles import ParticleSet

        config = base_config(n_particles=500)
        src = MultiSourceLocalizer(config, rng=np.random.default_rng(2)).particles
        src.weights[:40] = 0.0  # a deflated region gets backfilled
        rng = np.random.default_rng(9)
        updates = [
            (np.arange(0, 40), rng.normal(-5.0, 3.0, 40)),
            (np.arange(100, 400, 3), rng.normal(-50.0, 30.0, 100)),
            (np.arange(200, 210), np.full(10, -np.inf)),
        ]
        results = []
        for backend in (ArrayBackend(), get_backend("fast")):
            particles = ParticleSet(
                src.xs.copy(), src.ys.copy(), src.strengths.copy(),
                src.weights.copy(),
            )
            for indices, log_like in updates:
                backend.apply_log_likelihood(particles, indices, log_like)
            results.append(particles.weights)
        np.testing.assert_array_equal(results[1], results[0])

    def test_fused_weight_update_matches_sequential(self):
        """The whole fused update (batch likelihood + per-row apply).

        Applies one step's worth of rows through the fast backend and
        through the reference backend on cloned populations; the
        resulting weight distributions must agree to float32 tolerance.
        (End-to-end trajectories legitimately diverge once resampling
        draws on the perturbed weights, so the comparison stops at the
        weight path -- the same boundary the bench parity check uses.)
        """
        from repro.core.particles import ParticleSet

        config = base_config(n_particles=500)
        localizer = MultiSourceLocalizer(config, rng=np.random.default_rng(2))
        src = localizer.particles
        clones = [
            ParticleSet(
                src.xs.copy(), src.ys.copy(), src.strengths.copy(),
                src.weights.copy(),
            )
            for _ in range(2)
        ]
        rng = np.random.default_rng(17)
        n_delivered = 5
        sx = rng.uniform(0, 100, n_delivered)
        sy = rng.uniform(0, 100, n_delivered)
        counts = rng.integers(0, 40, n_delivered).astype(float)
        subsets = _ragged_subsets(src, sx, sy)
        for backend, particles in zip(
            (ArrayBackend(), get_backend("fast")), clones
        ):
            rows = backend.log_likelihood_batch(
                particles, subsets, sx, sy, counts,
                efficiency=EFFICIENCY, background_cpm=BACKGROUND,
                under_prediction_tempering=config.under_prediction_tempering,
            )
            for indices, row in zip(subsets, rows):
                backend.apply_log_likelihood(particles, indices, row)
                particles.normalize()
        reference, fast = clones
        np.testing.assert_allclose(
            fast.weights, reference.weights, rtol=2e-2, atol=1e-9
        )

    def test_quarantined_sensor_skipped_in_batch(self):
        """A zero-credibility reading is dropped, not fused."""
        config = base_config(integrity_enabled=True)
        steps = measurement_stream(n_steps=1)
        fast = MultiSourceLocalizer(
            config.with_overrides(backend="fast"),
            rng=np.random.default_rng(5),
        )
        # Poison one sensor hard enough to be quarantined immediately.
        bad = Measurement(
            sensor_id=steps[0][0].sensor_id,
            x=steps[0][0].x, y=steps[0][0].y,
            cpm=10_000_000.0, time_step=0, sequence=999,
        )
        before = fast.iteration
        fast.observe_batch(list(steps[0]) + [bad] * 3)
        assert fast.iteration > before  # honest readings fused

    def test_fused_session_accuracy_tracks_default(self, monkeypatch):
        """Paired multi-seed accuracy: fast tracks the float64 reference.

        Each seed runs scenario A twice on identical measurements: the
        reference (default backend, dense mean-shift) and the fast backend
        with the truncation gate lowered so its own mean-shift kernel runs.
        The score is the steady-state worst-source error (max over steps
        3+); a miss is a score above :data:`MISS_ERROR`.  Contract: the
        median of the paired fast - default differences stays within
        :data:`PAIRED_MEDIAN_MARGIN`, and fast misses no more seeds than
        the reference.  Regression: fusing a whole step's readings into
        one likelihood pass starved later readings of the particle
        diversity the intermediate resamples restore, spiking worst-source
        error to 25+ on seeds the sequential loop localizes to <5.
        """
        import dataclasses

        from repro.sim.scenarios import scenario_a
        from repro.sim.session import LocalizerSession

        def steady_state_worst(seed, **overrides):
            sc = scenario_a(n_time_steps=8)
            sc = dataclasses.replace(
                sc,
                localizer_config=sc.localizer_config.with_overrides(**overrides),
            )
            result = LocalizerSession(sc, seed=seed).run()
            return max(
                max(result.error_series(i)[t] for i in range(len(sc.sources)))
                for t in range(3, result.n_steps)
            )

        reference = np.array(
            [steady_state_worst(s, backend="default") for s in ACCURACY_SEEDS]
        )
        # Lowered only after the reference runs, so the default side keeps
        # its dense sweep.
        monkeypatch.setattr(meanshift, "TRUNCATION_MIN_PARTICLES", 256)
        fast = np.array(
            [steady_state_worst(s, backend="fast") for s in ACCURACY_SEEDS]
        )
        scores = {"default": reference.round(2), "fast": fast.round(2)}
        assert np.sum(fast > MISS_ERROR) <= np.sum(reference > MISS_ERROR), scores
        # A miss scores MISS_ERROR in the pairing (an OSPA-style cutoff),
        # so a seed both backends miss differences to zero, not to NaN.
        paired = np.minimum(fast, MISS_ERROR) - np.minimum(reference, MISS_ERROR)
        assert np.median(paired) <= PAIRED_MEDIAN_MARGIN, scores

    def test_meanshift_extraction_parity(self, monkeypatch):
        monkeypatch.setattr(meanshift, "TRUNCATION_MIN_PARTICLES", 256)
        config = base_config(n_particles=3000)
        steps = measurement_stream(n_steps=3)
        localizer = MultiSourceLocalizer(
            config.with_overrides(backend="fast"),
            rng=np.random.default_rng(5),
        )
        for batch in steps:
            localizer.observe_batch(batch)
        particles = localizer.particles
        fast = extract_estimates(
            particles,
            config.with_overrides(backend="fast"),
            np.random.default_rng(7),
        )
        reference = extract_estimates(
            particles, config, np.random.default_rng(7), backend=REFERENCE_BACKEND
        )
        assert len(fast) == len(reference)
        for ref in reference:
            delta = min(
                float(np.hypot(e.x - ref.x, e.y - ref.y)) for e in fast
            )
            assert delta < 0.5

    def test_meanshift_equal_shifts_do_not_warn(self, monkeypatch):
        # A 1-D cluster at x = 2**17, where float32 spacing (1/64) exceeds
        # the convergence tolerance: shifts are quantized, so a row sees
        # two equal consecutive shifts (contraction ratio exactly 1) on its
        # way in.  Such a row is never boosted, and the kernel must not
        # evaluate r / (1 - r) for it.
        monkeypatch.setattr(meanshift, "TRUNCATION_MIN_PARTICLES", 0)
        config = LocalizerConfig(area=(100.0, 100.0))
        center, spread = 2.0**17, 3.0 * config.bandwidth
        xs = center + np.linspace(-3 * spread, 3 * spread, 400)
        weights = np.exp(-0.5 * ((xs - center) / spread) ** 2)
        particles = ParticleSet(xs, np.zeros(400), np.ones(400), weights / weights.sum())
        seeds = np.column_stack([center + np.linspace(-2 * spread, 2 * spread, 9), np.zeros(9)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            modes, _ = FastNumpyBackend().meanshift_modes(particles, seeds, config)
        assert np.all(np.abs(modes[:, 0] - center) < 0.5 * spread)
        assert np.all(modes[:, 1] == 0.0)

    def test_prefix_sum_parity(self):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.0, 1.0, 4097)
        total = float(weights.sum())
        reference = ArrayBackend().prefix_sum(weights, total)
        fast = get_backend("fast").prefix_sum(weights, total)
        assert fast[-1] == 1.0
        np.testing.assert_allclose(fast, reference, rtol=0, atol=1e-12)


# --- scratch reuse / observability ----------------------------------------------


class TestScratch:
    def test_zero_allocations_once_warm(self):
        config = base_config(backend="fast")
        registry = MetricsRegistry()
        localizer = MultiSourceLocalizer(
            config, rng=np.random.default_rng(5), metrics=registry
        )
        steps = measurement_stream(n_steps=4)
        for batch in steps:
            localizer.observe_batch(batch)
        pool = localizer.backend.scratch
        assert pool.reuses > 0
        # Warm steady state: repeating an identical batch allocates nothing.
        localizer.observe_batch(steps[-1])
        assert pool.allocations_this_step == 0
        assert registry.gauge("backend.allocations_per_step").value == 0
        assert registry.counter("backend.scratch_reuse").value > 0
        batch_sizes = registry.histogram("backend.weight_update_batch_size")
        assert batch_sizes.count > 0

    def test_scratch_pool_growth_and_dtype(self):
        from repro.core.backend import ScratchPool

        pool = ScratchPool()
        a = pool.get("x", (4, 8), np.float32)
        assert a.shape == (4, 8) and a.dtype == np.float32
        b = pool.get("x", (2, 8), np.float32)
        assert b.base is a.base or b.base is a  # reused storage
        assert pool.allocations == 1 and pool.reuses == 1
        c = pool.get("x", (1000,), np.float32)
        assert pool.allocations == 2  # outgrew: reallocated
        d = pool.get("x", (3,), np.float64)
        assert d.dtype == np.float64  # dtype change reallocates
        pool.begin_step()
        assert pool.allocations_this_step == 0


# --- checkpoint interplay -------------------------------------------------------


class TestCheckpointBackend:
    def _localizer_state(self, backend=None):
        config = base_config(backend=backend)
        localizer = MultiSourceLocalizer(config, rng=np.random.default_rng(5))
        for batch in measurement_stream(n_steps=1):
            localizer.observe_batch(batch)
        return config, localizer.export_state()

    def test_backend_recorded_in_state(self):
        _config, state = self._localizer_state(backend="fast")
        assert state["meta"]["backend"] == {"name": "fast", "dtype": "float32"}

    def test_mismatch_warns(self, caplog):
        config, state = self._localizer_state(backend="fast")
        with caplog.at_level(logging.WARNING, logger="repro.core.localizer"):
            MultiSourceLocalizer.from_state(
                config.with_overrides(backend="default"), state
            )
        assert any("backend" in r.message for r in caplog.records)

    def test_session_strict_backend_errors(self, tmp_path, monkeypatch):
        from repro.sim.scenarios import scenario_a
        from repro.sim.serialization import CheckpointError
        from repro.sim.session import LocalizerSession, SessionSpec

        # The mismatch below relies on the session resolving "default";
        # neutralize any REPRO_BACKEND override from the environment.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        scenario = scenario_a(n_time_steps=4)
        session = LocalizerSession(scenario, seed=1)
        session.step()
        path = tmp_path / "run.ckpt.json"
        session.save_checkpoint(path)
        # Same backend: strict restore is fine.
        resumed = SessionSpec(checkpoint_path=path, strict_backend=True).open()
        assert resumed.step_index == 1
        # Different backend: strict restore refuses.
        with pytest.raises(CheckpointError, match="backend"):
            SessionSpec(
                checkpoint_path=path, strict_backend=True, backend="fast"
            ).open()
        # Non-strict restore under a new backend proceeds (with a warning).
        resumed = SessionSpec(checkpoint_path=path, backend="fast").open()
        assert resumed.localizer.backend.name == "fast"
        resumed.run()

    def test_run_start_and_manifest_record_backend(self, tmp_path, monkeypatch):
        from repro.obs.trace import Tracer
        from repro.obs.sinks import InMemorySink
        from repro.sim.scenarios import scenario_a
        from repro.sim.session import LocalizerSession

        # This test pins the recorded identity of the *default* backend.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        sink = InMemorySink()
        scenario = scenario_a(n_time_steps=2)
        session = LocalizerSession(scenario, seed=1, tracer=Tracer(sink))
        session.step()
        starts = sink.of_type("run_start")
        assert starts and starts[0]["backend"] == "default"
        assert starts[0]["backend_dtype"] == "float64"
        manifest = session.manifest()
        assert manifest.context["backend"] == "default"
        assert manifest.context["backend_dtype"] == "float64"
