"""Unit and property tests for mean-shift mode finding."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grid import SpatialGridIndex
from repro.core.meanshift import (
    disc_rows,
    gaussian_kernel_weights,
    mean_shift,
    mean_shift_modes,
    padded_candidate_rows,
    select_seeds,
    truncated_mean_shift_modes,
)


def two_cluster_data(seed=0, n=200, centers=((20.0, 20.0), (80.0, 80.0)), spread=2.0):
    rng = np.random.default_rng(seed)
    points = np.vstack(
        [rng.normal(c, spread, size=(n // len(centers), 2)) for c in centers]
    )
    weights = np.ones(len(points))
    return points, weights


class TestGaussianKernel:
    def test_peak_at_center(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        k = gaussian_kernel_weights(points, np.array([0.0, 0.0]), 1.0)
        assert k[0] == pytest.approx(1.0)
        assert k[0] > k[1] > k[2]

    def test_known_value(self):
        points = np.array([[1.0, 0.0]])
        k = gaussian_kernel_weights(points, np.array([0.0, 0.0]), 1.0)
        assert k[0] == pytest.approx(np.exp(-0.5))

    def test_bandwidth_widens(self):
        points = np.array([[3.0, 0.0]])
        narrow = gaussian_kernel_weights(points, np.zeros(2), 1.0)[0]
        wide = gaussian_kernel_weights(points, np.zeros(2), 10.0)[0]
        assert wide > narrow


class TestMeanShiftSingle:
    def test_converges_to_cluster_center(self):
        points, weights = two_cluster_data()
        mode = mean_shift(np.array([25.0, 25.0]), points, weights, bandwidth=5.0)
        assert np.linalg.norm(mode - [20, 20]) < 2.0

    def test_nearest_mode_wins(self):
        points, weights = two_cluster_data()
        mode = mean_shift(np.array([75.0, 75.0]), points, weights, bandwidth=5.0)
        assert np.linalg.norm(mode - [80, 80]) < 2.0

    def test_weighted_pull(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0]])
        # With all weight on the second point, the mode is that point.
        mode = mean_shift(
            np.array([5.0, 0.0]), points, np.array([1e-12, 1.0]), bandwidth=20.0
        )
        assert mode[0] == pytest.approx(10.0, abs=1e-3)


class TestMeanShiftModes:
    def test_finds_both_clusters(self):
        points, weights = two_cluster_data()
        seeds = np.array([[10.0, 10.0], [90.0, 90.0], [30.0, 30.0]])
        modes, densities = mean_shift_modes(seeds, points, weights, bandwidth=5.0)
        assert modes.shape == (3, 2)
        assert densities.shape == (3,)
        assert np.linalg.norm(modes[0] - [20, 20]) < 2.0
        assert np.linalg.norm(modes[1] - [80, 80]) < 2.0

    def test_densities_positive_at_clusters(self):
        points, weights = two_cluster_data()
        seeds = np.array([[20.0, 20.0]])
        _modes, densities = mean_shift_modes(seeds, points, weights, bandwidth=5.0)
        assert densities[0] > 0

    def test_stranded_seed_stays_put(self):
        points, weights = two_cluster_data()
        far = np.array([[500.0, 500.0]])
        modes, densities = mean_shift_modes(far, points, weights, bandwidth=2.0)
        np.testing.assert_allclose(modes[0], [500.0, 500.0])
        assert densities[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_single_seed_driver(self):
        points, weights = two_cluster_data(seed=3)
        seed = np.array([30.0, 25.0])
        single = mean_shift(seed.copy(), points, weights, bandwidth=5.0, tol=1e-4)
        batch, _ = mean_shift_modes(
            seed[None, :], points, weights, bandwidth=5.0, tol=1e-4
        )
        np.testing.assert_allclose(batch[0], single, atol=1e-2)

    def test_zero_weight_rejected(self):
        points = np.zeros((5, 2))
        with pytest.raises(ValueError, match="positive total weight"):
            mean_shift_modes(np.zeros((1, 2)), points, np.zeros(5), 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            mean_shift_modes(np.zeros((1, 2)), np.zeros((5, 2)), np.ones(4), 1.0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_modes_have_higher_density_than_seeds(self, seed):
        # Mean-shift is hill climbing: density at the converged point is at
        # least the density at the start.
        points, weights = two_cluster_data(seed=seed % 17)
        rng = np.random.default_rng(seed)
        start = rng.uniform(0, 100, size=(4, 2))
        from repro.core.meanshift import _density_at

        start_density = _density_at(start, points, weights, 5.0)
        modes, _ = mean_shift_modes(start, points, weights, bandwidth=5.0)
        end_density = _density_at(modes, points, weights, 5.0)
        assert np.all(end_density >= start_density - 1e-9)


class TestSelectSeeds:
    def test_returns_all_when_few_points(self):
        points = np.random.default_rng(0).uniform(0, 10, (5, 2))
        seeds = select_seeds(points, np.ones(5), 10)
        assert len(seeds) == 5

    def test_requested_count_or_fewer(self):
        points = np.random.default_rng(0).uniform(0, 10, (100, 2))
        seeds = select_seeds(points, np.ones(100), 16)
        assert 1 <= len(seeds) <= 16

    def test_top_weight_points_included(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 10, (100, 2))
        weights = np.ones(100)
        weights[42] = 100.0
        seeds = select_seeds(points, weights, 10)
        assert any(np.allclose(s, points[42]) for s in seeds)

    def test_deterministic_without_rng(self):
        points = np.random.default_rng(0).uniform(0, 10, (50, 2))
        weights = np.random.default_rng(1).uniform(0, 1, 50)
        a = select_seeds(points, weights, 8)
        b = select_seeds(points, weights, 8)
        np.testing.assert_array_equal(a, b)

    def test_full_budget_when_top_and_strided_overlap(self):
        # Regression: the strided coverage subsample can land exactly on
        # top-weight indices; np.unique then silently returned fewer than
        # n_seeds.  The highest weights sit at the strided positions here.
        n = 100
        points = np.random.default_rng(0).uniform(0, 10, (n, 2))
        weights = np.full(n, 1.0)
        n_seeds = 16
        strided = np.linspace(0, n - 1, n_seeds - n_seeds // 2).astype(int)
        weights[strided[: n_seeds // 2]] = 100.0
        seeds = select_seeds(points, weights, n_seeds)
        assert len(seeds) == n_seeds

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 200),
        n_seeds=st.integers(1, 64),
    )
    def test_exact_seed_count_property(self, seed, n, n_seeds):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 10, (n, 2))
        weights = rng.uniform(0, 1, n)
        seeds = select_seeds(points, weights, n_seeds)
        assert len(seeds) == min(n_seeds, n)


class TestTruncatedMeanShift:
    def clustered(self, seed=0, n=3000, area=200.0):
        rng = np.random.default_rng(seed)
        points = np.vstack(
            [
                rng.normal((40, 40), 5, size=(n // 3, 2)),
                rng.normal((150, 160), 5, size=(n // 3, 2)),
                rng.uniform(0, area, size=(n - 2 * (n // 3), 2)),
            ]
        )
        weights = rng.uniform(0.1, 1.0, len(points))
        return points, weights

    def run_both(self, points, weights, bandwidth=8.0, sigmas=4.0, **kwargs):
        seeds = select_seeds(points, weights, 48)
        dense_modes, dense_density = mean_shift_modes(
            seeds.copy(), points, weights, bandwidth=bandwidth
        )
        grid = SpatialGridIndex(points[:, 0], points[:, 1], 12.0)
        trunc_modes, trunc_density = truncated_mean_shift_modes(
            seeds.copy(), points, weights, bandwidth=bandwidth, grid=grid,
            truncation_sigmas=sigmas, **kwargs,
        )
        return dense_modes, dense_density, trunc_modes, trunc_density

    def test_modes_match_dense_within_tolerance(self):
        points, weights = self.clustered()
        dm, dd, tm, td = self.run_both(points, weights)
        assert np.linalg.norm(tm - dm, axis=1).max() < 0.05
        assert np.abs(td - dd).max() < 1e-4 * dd.max()

    def test_tiling_does_not_change_results(self):
        # Each seed's segment is reduced on its own, so tiling is bitwise.
        points, weights = self.clustered(seed=1)
        _, _, one_tile, one_density = self.run_both(points, weights)
        for tile_candidates in (500, 1):
            _, _, tiled, tiled_density = self.run_both(
                points, weights, tile_candidates=tile_candidates
            )
            assert np.array_equal(tiled, one_tile)
            assert np.array_equal(tiled_density, one_density)

    def test_stranded_seed_stays_put(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        weights = np.ones(2)
        grid = SpatialGridIndex(points[:, 0], points[:, 1], 2.0)
        # A seed far beyond the truncation radius gathers no candidates.
        modes, density = truncated_mean_shift_modes(
            np.array([[500.0, 500.0]]), points, weights, bandwidth=1.0,
            grid=grid, truncation_sigmas=3.0,
        )
        np.testing.assert_allclose(modes[0], [500.0, 500.0])
        assert density[0] == 0.0

    def test_stats_reported(self):
        points, weights = self.clustered(seed=2, n=1200)
        seeds = select_seeds(points, weights, 24)
        grid = SpatialGridIndex(points[:, 0], points[:, 1], 12.0)
        stats = {}
        truncated_mean_shift_modes(
            seeds, points, weights, bandwidth=8.0, grid=grid, stats=stats
        )
        assert stats["n_seeds"] == len(seeds)
        assert stats["sweeps"] >= 1
        assert stats["gathers"] >= len(seeds)
        assert stats["candidates"] > 0

    def test_rejects_bad_inputs(self):
        points, weights = self.clustered(seed=3, n=60)
        grid = SpatialGridIndex(points[:, 0], points[:, 1], 12.0)
        with pytest.raises(ValueError, match="truncation_sigmas"):
            truncated_mean_shift_modes(
                points[:2], points, weights, bandwidth=8.0, grid=grid,
                truncation_sigmas=0.0,
            )
        with pytest.raises(ValueError, match="positive total weight"):
            truncated_mean_shift_modes(
                points[:2], points, np.zeros(len(points)), bandwidth=8.0, grid=grid
            )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_parity_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(200, 1500))
        points = rng.uniform(0, 150, (n, 2))
        weights = rng.uniform(0.01, 1.0, n)
        bandwidth = float(rng.uniform(4.0, 12.0))
        dm, dd, tm, td = self.run_both(points, weights, bandwidth=bandwidth)
        # On near-uniform data the density surface is almost flat, so the
        # stopping points can drift a little along a plateau; they must still
        # agree far inside the downstream merge radius (>= bandwidth >= 4).
        assert np.linalg.norm(tm - dm, axis=1).max() < 2.0


class TestFloat64DriversPinned:
    """Bitwise pins of both float64 drivers: the digest of ``(modes,
    densities)`` and the work counts.  Any change to the per-element
    arithmetic or to the summation order (the candidate order fed to
    ``np.add.reduceat``) moves the digest.  Each population carries one
    stranded seed far outside it.  Like perfbench's golden digests, the
    digests depend on numpy's float64 kernels and BLAS."""

    STRANDED = [[1000.0, 1000.0]]

    @staticmethod
    def digest(modes, densities):
        return hashlib.sha256(modes.tobytes() + densities.tobytes()).hexdigest()

    def test_truncated_driver(self):
        # Above the 4096-particle gate where the default backend uses it.
        points, weights = TestTruncatedMeanShift().clustered(n=6000)
        seeds = np.vstack([select_seeds(points, weights, 96), self.STRANDED])
        grid = SpatialGridIndex(points[:, 0], points[:, 1], 12.0)
        stats = {}
        modes, densities = truncated_mean_shift_modes(
            seeds, points, weights, bandwidth=8.0, grid=grid, stats=stats
        )
        assert modes[-1].tolist() == self.STRANDED[0] and densities[-1] == 0.0
        assert self.digest(modes, densities) == (
            "33dff6dd3b4622351824cbea9861a6aa8b4ae4394de288f99137ce2916a856fe"
        )
        assert stats == {
            "sweeps": 100, "n_seeds": 97, "gathers": 160, "candidates": 1712344
        }

    def test_dense_driver(self):
        points, weights = TestTruncatedMeanShift().clustered(seed=1, n=2000)
        seeds = np.vstack([select_seeds(points, weights, 48), self.STRANDED])
        stats = {}
        modes, densities = mean_shift_modes(
            seeds, points, weights, bandwidth=8.0, stats=stats
        )
        assert modes[-1].tolist() == self.STRANDED[0] and densities[-1] == 0.0
        assert self.digest(modes, densities) == (
            "39e348ed086556bed5ba2b82108ff3b7f9d626ec59910e9931689f93f38e2790"
        )
        # Every active seed evaluates the kernel at all 2000 points.
        assert stats == {"sweeps": 62, "n_seeds": 49, "candidates": 1272000}


class TestPaddedCandidateRows:
    """The fast mean-shift's gathers are per-center exact disc queries."""

    def test_rows_equal_query_disc(self):
        rng = np.random.default_rng(7)
        grid = SpatialGridIndex(
            rng.uniform(0, 100, 150), rng.uniform(0, 100, 150), 6.0
        )
        # Two centers fall off the grid, so empty rows are covered.
        centers = np.vstack([rng.uniform(0, 100, (8, 2)), [[500, 500], [-90, 5]]])
        idx_rows, counts, capacity = padded_candidate_rows(grid, centers, 15.0)
        assert capacity >= max(counts.max(), 1)
        assert capacity & (capacity - 1) == 0
        assert idx_rows.shape == (len(centers), capacity)
        for i, (x, y) in enumerate(centers):
            want = grid.query_disc(x, y, 15.0)
            assert counts[i] == len(want)
            np.testing.assert_array_equal(idx_rows[i, : counts[i]], want)
            assert not idx_rows[i, counts[i]:].any()

    def test_per_center_radii(self):
        rng = np.random.default_rng(8)
        grid = SpatialGridIndex(
            rng.uniform(0, 60, 200), rng.uniform(0, 60, 200), 5.0
        )
        xs = rng.uniform(0, 60, 5)
        ys = rng.uniform(0, 60, 5)
        radii = np.array([0.0, 3.0, 10.0, 25.0, 80.0])
        flat, counts = disc_rows(grid, xs, ys, radii)
        rows = np.split(flat, np.cumsum(counts)[:-1])
        for x, y, r, row in zip(xs, ys, radii, rows):
            np.testing.assert_array_equal(row, grid.query_disc(x, y, r))
        empty_flat, empty_counts = disc_rows(grid, [], [], 5.0)
        assert len(empty_flat) == len(empty_counts) == 0
