"""Unit and property tests for selective resampling."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import LocalizerConfig
from repro.core.particles import ParticleSet
from repro.core.resampling import resample_subset, systematic_resample_indices


class TestSystematicResample:
    def test_uniform_weights_cover_population(self):
        rng = np.random.default_rng(0)
        idx = systematic_resample_indices(np.ones(100), 100, rng)
        # Systematic resampling of uniform weights picks each index once.
        assert sorted(idx) == list(range(100))

    def test_concentrated_weight_dominates(self):
        weights = np.full(10, 0.01)
        weights[3] = 10.0
        rng = np.random.default_rng(0)
        idx = systematic_resample_indices(weights, 100, rng)
        assert np.mean(idx == 3) > 0.9

    def test_degenerate_weights_fall_back_to_uniform(self):
        rng = np.random.default_rng(0)
        idx = systematic_resample_indices(np.zeros(10), 50, rng)
        assert len(idx) == 50
        assert set(idx).issubset(set(range(10)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 200))
    def test_indices_always_valid(self, seed, n_draws):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0, 1, 37)
        idx = systematic_resample_indices(weights, n_draws, rng)
        assert len(idx) == n_draws
        assert idx.min() >= 0 and idx.max() < 37

    def test_proportionality(self):
        # Index 0 holds 75% of the weight -> ~75% of a large draw.
        weights = np.array([3.0, 1.0])
        rng = np.random.default_rng(0)
        idx = systematic_resample_indices(weights, 1000, rng)
        assert np.mean(idx == 0) == pytest.approx(0.75, abs=0.01)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 400), st.floats(0.0, 0.9))
    def test_systematic_draws_are_nondecreasing(self, seed, n_draws, zero_share):
        """resample_subset finds duplicates by comparing neighbours, which
        needs sorted draws whenever the mass is positive -- also with
        zero-weight rows and cumulative sums that round past 1."""
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0, 1, 60) ** 6
        weights[rng.uniform(size=60) < zero_share] = 0.0
        weights[int(rng.integers(60))] = 1.0  # positive mass
        drawn = systematic_resample_indices(weights, n_draws, rng)
        assert np.all(np.diff(drawn) >= 0)


def make_particles(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return ParticleSet(
        xs=rng.uniform(0, 100, n),
        ys=rng.uniform(0, 100, n),
        strengths=rng.uniform(1, 100, n),
    )


class TestResampleSubset:
    def test_untouched_particles_unchanged(self):
        p = make_particles()
        config = LocalizerConfig(n_particles=200)
        frozen_xs = p.xs[100:].copy()
        frozen_w = p.weights[100:].copy()
        resample_subset(p, np.arange(100), config, np.random.default_rng(1))
        np.testing.assert_array_equal(p.xs[100:], frozen_xs)
        np.testing.assert_array_equal(p.weights[100:], frozen_w)

    def test_high_weight_particles_multiply(self):
        p = make_particles()
        p.weights[:] = 1e-9
        p.weights[7] = 1.0
        config = LocalizerConfig(n_particles=200, injection_fraction=0.0)
        resample_subset(p, np.arange(100), config, np.random.default_rng(1))
        # Nearly all resampled particles should descend from particle 7
        # (exact position for the first, jittered for duplicates).
        near7 = np.abs(p.xs[:100] - p.xs[7]) < 15.0
        assert near7.mean() > 0.9

    def test_duplicates_are_jittered(self):
        p = make_particles()
        p.weights[:100] = 1e-12
        p.weights[0] = 1.0
        config = LocalizerConfig(n_particles=200, injection_fraction=0.0)
        resample_subset(p, np.arange(100), config, np.random.default_rng(1))
        # All descend from one particle, yet positions must not collapse.
        assert len(np.unique(p.xs[:100])) > 50

    def test_no_jitter_when_sigma_zero(self):
        p = make_particles()
        p.weights[:100] = 1e-12
        p.weights[0] = 1.0
        original_x = p.xs[0]
        config = LocalizerConfig(
            n_particles=200,
            injection_fraction=0.0,
            resample_noise_sigma=0.0,
            strength_noise_rel=0.0,
        )
        resample_subset(p, np.arange(100), config, np.random.default_rng(1))
        np.testing.assert_allclose(p.xs[:100], original_x)

    def test_injection_places_random_particles(self):
        p = make_particles()
        # Concentrate the subset at one point; injection must break it.
        p.xs[:100] = 50.0
        p.ys[:100] = 50.0
        config = LocalizerConfig(
            n_particles=200,
            injection_fraction=0.2,
            resample_noise_sigma=0.0,
            strength_noise_rel=0.0,
        )
        resample_subset(p, np.arange(100), config, np.random.default_rng(1))
        displaced = np.hypot(p.xs[:100] - 50, p.ys[:100] - 50) > 20
        assert 10 <= displaced.sum() <= 30  # ~20 slots

    def test_local_injection_stays_in_disc(self):
        p = make_particles()
        config = LocalizerConfig(
            n_particles=200,
            injection_fraction=0.3,
            injection_scope="local",
            resample_noise_sigma=0.0,
        )
        center = (50.0, 50.0)
        indices = np.arange(100)
        resample_subset(
            p, indices, config, np.random.default_rng(1),
            injection_center=center, injection_radius=10.0,
        )
        # Injected particles are within the disc; everything else was
        # resampled from the subset (so may be anywhere the subset was).
        # We can only assert nothing landed outside the area and at least
        # some points are inside the small disc.
        inside = np.hypot(p.xs[:100] - 50, p.ys[:100] - 50) <= 10.0
        assert inside.sum() >= 20

    def test_positions_clipped_to_area(self):
        p = make_particles()
        p.xs[:100] = 99.9  # jitter will push some beyond 100
        config = LocalizerConfig(n_particles=200, resample_noise_sigma=5.0)
        resample_subset(p, np.arange(100), config, np.random.default_rng(1))
        assert p.xs[:100].max() <= 100.0
        assert p.xs[:100].min() >= 0.0

    def test_strengths_clipped_to_range(self):
        p = make_particles()
        config = LocalizerConfig(n_particles=200, strength_noise_rel=2.0)
        resample_subset(p, np.arange(100), config, np.random.default_rng(1))
        assert p.strengths[:100].min() >= config.strength_min
        assert p.strengths[:100].max() <= config.strength_max

    def test_reset_mode_assigns_global_mean_weight(self):
        p = make_particles()
        p.weights[:100] *= 0.001
        config = LocalizerConfig(n_particles=200, resample_weight_mode="reset")
        resample_subset(p, np.arange(100), config, np.random.default_rng(1))
        np.testing.assert_allclose(p.weights[:100], 1.0 / 200)

    def test_preserve_mode_keeps_subset_mass(self):
        p = make_particles()
        p.normalize()
        before = p.weights[:100].sum()
        config = LocalizerConfig(n_particles=200, resample_weight_mode="preserve")
        resample_subset(p, np.arange(100), config, np.random.default_rng(1))
        assert p.weights[:100].sum() == pytest.approx(before)

    def test_empty_subset_is_noop(self):
        p = make_particles()
        snapshot = p.xs.copy()
        config = LocalizerConfig(n_particles=200)
        resample_subset(p, np.array([], dtype=int), config, np.random.default_rng(1))
        np.testing.assert_array_equal(p.xs, snapshot)

    def test_zero_mass_subset_resample_is_pinned(self):
        """The degenerate fallback draws unsorted indices, so its duplicate
        marking must stay first-occurrence.  Arrays and the RNG state
        afterwards are pinned to the values the np.unique marking gave."""
        p = make_particles(60, seed=3)
        indices = np.arange(10, 50)
        p.weights[indices] = 0.0
        config = LocalizerConfig(area=(100.0, 100.0), injection_fraction=0.2)
        rng = np.random.default_rng(11)
        stats = resample_subset(
            p, indices, config, rng,
            injection_center=(40.0, 60.0), injection_radius=12.0,
        )
        assert stats == (40, 16, 8)
        digest = hashlib.sha256()
        for values in (p.xs, p.ys, p.strengths, p.weights):
            digest.update(values.tobytes())
        assert digest.hexdigest() == (
            "01062175512937ba6b51896cbfa07038f37fee21be6a5d5be90377d2d7c8afd4"
        )
        assert rng.bit_generator.state["state"] == {
            "state": 245854669541285421773912514577433157877,
            "inc": 7937318808080196428804369945471644491,
        }
