"""Unit and property tests for the uniform spatial grid index."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grid import SpatialGridIndex
from repro.core.particles import ParticleSet


def build(points, cell=5.0):
    points = np.asarray(points, dtype=float)
    return SpatialGridIndex(points[:, 0], points[:, 1], cell)


def index_state(index):
    """Copies of everything an index derives from its coordinates."""
    return {
        name: np.copy(getattr(index, name))
        for name in SpatialGridIndex.__slots__
        if name not in ("xs", "ys", "queries", "candidates_scanned")
    }


class TestConstruction:
    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            build([[0.0, 0.0]], cell=0.0)
        with pytest.raises(ValueError):
            build([[0.0, 0.0]], cell=-1.0)
        with pytest.raises(ValueError):
            build([[0.0, 0.0]], cell=np.inf)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpatialGridIndex(np.array([]), np.array([]), 1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            SpatialGridIndex(np.zeros(3), np.zeros(2), 1.0)

    def test_len_and_repr(self):
        index = build([[0.0, 0.0], [9.0, 9.0]], cell=3.0)
        assert len(index) == 2
        assert "cell=3.00" in repr(index)


class TestQueryDisc:
    def test_matches_brute_force_simple(self):
        points = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]])
        index = build(points, cell=4.0)
        np.testing.assert_array_equal(index.query_disc(0, 0, 5.0), [0])
        np.testing.assert_array_equal(index.query_disc(10, 10, 15.0), [0, 1, 2])

    def test_boundary_inclusive(self):
        index = build([[0.0, 0.0], [3.0, 4.0]], cell=2.0)
        assert 1 in index.query_disc(0, 0, 5.0)
        assert 1 not in index.query_disc(0, 0, 5.0 - 1e-9)

    def test_far_query_returns_empty(self):
        index = build([[0.0, 0.0], [1.0, 1.0]], cell=1.0)
        assert len(index.query_disc(1e6, 1e6, 10.0)) == 0

    def test_zero_radius_hits_exact_point(self):
        index = build([[5.0, 5.0], [6.0, 6.0]], cell=2.0)
        np.testing.assert_array_equal(index.query_disc(5.0, 5.0, 0.0), [0])

    def test_result_sorted_ascending(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 50, (300, 2))
        index = build(points, cell=4.0)
        out = index.query_disc(25, 25, 20.0)
        assert np.all(np.diff(out) > 0)

    def test_stats_reported(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0, 50, (200, 2))
        index = build(points, cell=5.0)
        stats = {}
        selected = index.query_disc(25, 25, 10.0, stats=stats)
        assert stats["selected"] == len(selected)
        assert stats["candidates"] >= stats["selected"]
        assert index.queries == 1
        assert index.candidates_scanned == stats["candidates"]

    def test_candidates_are_superset(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(0, 100, (500, 2))
        index = build(points, cell=8.0)
        exact = set(index.query_disc(40, 60, 15.0).tolist())
        candidates = set(index.query_candidates(40, 60, 15.0).tolist())
        assert exact <= candidates

    def test_negative_radius_rejected(self):
        index = build([[0.0, 0.0]], cell=1.0)
        with pytest.raises(ValueError):
            index.query_disc(0, 0, -1.0)

    def test_single_cell_degenerate(self):
        index = SpatialGridIndex(np.full(7, 3.25), np.full(7, -1.5), 5.0)
        assert (index.n_cols, index.n_rows) == (1, 1)
        np.testing.assert_array_equal(index.query_disc(3.25, -1.5, 0.0), np.arange(7))
        assert len(index.query_disc(100.0, 100.0, 50.0)) == 0

    def test_all_centers_off_grid(self):
        index = build([[0.0, 0.0], [1.0, 1.0]], cell=1.0)
        for x, y in [(1e6, 1e6), (-1e6, -1e6)]:
            assert len(index.query_disc(x, y, 5.0)) == 0
        # Off-grid exits still count one query each and scan nothing.
        assert index.queries == 2
        assert index.candidates_scanned == 0

    def test_stats_cover_every_exit_path(self):
        rng = np.random.default_rng(13)
        index = SpatialGridIndex(
            rng.uniform(0, 40, 80), rng.uniform(0, 40, 80), 4.0
        )
        # Off-grid exit.
        stats = {}
        index.query_disc(1e5, 1e5, 1.0, stats=stats)
        assert (stats["candidates"], stats["selected"]) == (0, 0)
        # Candidates-but-no-survivors exit.
        stats = {}
        index.query_disc(20.0, 20.0, 1e-12, stats=stats)
        assert stats["candidates"] > 0
        assert stats["selected"] == 0
        # Normal exit.
        stats = {}
        selected = index.query_disc(20.0, 20.0, 30.0, stats=stats)
        assert stats["selected"] == len(selected) > 0
        assert stats["candidates"] >= stats["selected"]


coords = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)


class TestBruteForceParity:
    """The grid query must be bit-identical to ParticleSet.indices_within."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 300),
        x=coords,
        y=coords,
        radius=st.floats(min_value=0.0, max_value=150.0, allow_nan=False),
        cell=st.floats(min_value=0.25, max_value=60.0, allow_nan=False),
    )
    def test_query_equals_brute_force(self, seed, n, x, y, radius, cell):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-100, 100, n)
        ys = rng.uniform(-100, 100, n)
        particles = ParticleSet(xs, ys, np.ones(n))
        brute = particles.indices_within(x, y, radius)
        fast = particles.indices_within_grid(x, y, radius, cell)
        np.testing.assert_array_equal(brute, fast)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 250),
        radius_kind=st.sampled_from(["zero", "tiny", "huge", "mixed"]),
        cell=st.floats(min_value=0.5, max_value=40.0, allow_nan=False),
    )
    def test_extreme_radii_equal_brute_force(self, seed, n, radius_kind, cell):
        rng = np.random.default_rng(seed)
        particles = ParticleSet(
            rng.uniform(-100, 100, n), rng.uniform(-100, 100, n), np.ones(n)
        )
        radius = {"zero": 0.0, "tiny": 1e-9, "huge": 1e4}.get(
            radius_kind, float(rng.uniform(0.0, 150.0))
        )
        # Centers roam past the population bbox so off-grid and
        # partially-overlapping discs are routinely exercised; one center
        # sits exactly on a particle so zero and tiny radii can hit.
        centers = list(zip(rng.uniform(-300, 300, 8), rng.uniform(-300, 300, 8)))
        centers.append((particles.xs[0], particles.ys[0]))
        for x, y in centers:
            np.testing.assert_array_equal(
                particles.indices_within(x, y, radius),
                particles.indices_within_grid(x, y, radius, cell),
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_clustered_populations(self, seed):
        rng = np.random.default_rng(seed)
        points = np.vstack(
            [
                rng.normal((20, 20), 2, size=(100, 2)),
                rng.normal((80, 80), 2, size=(100, 2)),
            ]
        )
        particles = ParticleSet(points[:, 0], points[:, 1], np.ones(200))
        for center, radius in [((20, 20), 6.0), ((50, 50), 45.0), ((0, 0), 1.0)]:
            np.testing.assert_array_equal(
                particles.indices_within(*center, radius),
                particles.indices_within_grid(*center, radius, 4.0),
            )


class TestParticleSetIntegration:
    def test_grid_cached_until_positions_change(self):
        rng = np.random.default_rng(0)
        particles = ParticleSet.uniform_random(100, (50, 50), (1, 10), rng)
        first = particles.grid(5.0)
        assert particles.grid(5.0) is first
        assert particles.grid_rebuilds == 1
        # Weight-only mutations do not invalidate the spatial index.
        particles.normalize()
        assert particles.grid(5.0) is first
        # Position mutations do.
        particles.xs[0] += 1.0
        particles.mark_moved()
        assert particles.grid(5.0) is not first
        assert particles.grid_rebuilds == 2

    def test_cell_size_change_rebuilds(self):
        rng = np.random.default_rng(1)
        particles = ParticleSet.uniform_random(50, (50, 50), (1, 10), rng)
        particles.grid(5.0)
        particles.grid(10.0)
        assert particles.grid_rebuilds == 2

    def test_revision_counter(self):
        particles = ParticleSet(np.zeros(2), np.zeros(2), np.ones(2))
        start = particles.revision
        particles.mark_reweighted()
        assert particles.revision == start + 1
        particles.mark_moved()
        assert particles.revision == start + 2
        particles.normalize()
        assert particles.revision == start + 3
        particles.clip_to_area((10.0, 10.0))
        assert particles.revision == start + 4


class TestIncrementalMaintenance:
    """apply_moves must leave the index array-equal to a fresh build."""

    def _particles(self, seed=21, n=400):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 100, n)
        ys = rng.uniform(0, 100, n)
        xs[0], ys[0] = 0.0, 0.0
        xs[1], ys[1] = 100.0, 100.0
        return ParticleSet(xs, ys, np.ones(n)), rng

    @staticmethod
    def _assert_index_equal(index, fresh):
        np.testing.assert_equal(index_state(index), index_state(fresh))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_moved=st.integers(1, 80))
    def test_incremental_equals_rebuild(self, seed, n_moved):
        particles, rng = self._particles(seed=seed)
        index = particles.grid(7.0)
        moved = rng.choice(np.arange(2, len(particles)), n_moved, replace=False)
        particles.xs[moved] = rng.uniform(5, 95, n_moved)
        particles.ys[moved] = rng.uniform(5, 95, n_moved)
        particles.mark_moved(indices=moved)
        merged = particles.grid(7.0)
        assert merged is index
        assert particles.grid_rebuilds == 1
        assert particles.grid_incremental_updates == 1
        fresh = SpatialGridIndex(particles.xs, particles.ys, 7.0)
        self._assert_index_equal(merged, fresh)

    def test_threshold_falls_back_to_rebuild(self):
        particles, rng = self._particles()
        index = particles.grid(7.0)
        moved = np.arange(2, 2 + int(0.5 * len(particles)))
        particles.xs[moved] = rng.uniform(5, 95, len(moved))
        particles.mark_moved(indices=moved)
        rebuilt = particles.grid(7.0)
        assert rebuilt is not index
        assert particles.grid_rebuilds == 2
        assert particles.grid_incremental_updates == 0

    def test_bbox_change_falls_back(self):
        particles, rng = self._particles()
        index = particles.grid(7.0)
        # Moving the bbox-min holder changes the constructor's origin.
        particles.xs[0] = 50.0
        particles.mark_moved(indices=np.array([0]))
        rebuilt = particles.grid(7.0)
        assert rebuilt is not index
        assert particles.grid_rebuilds == 2
        self._assert_index_equal(
            rebuilt, SpatialGridIndex(particles.xs, particles.ys, 7.0)
        )

    def test_unbounded_move_falls_back(self):
        particles, rng = self._particles()
        particles.grid(7.0)
        particles.xs[5] += 1.0
        particles.mark_moved()
        particles.grid(7.0)
        assert particles.grid_rebuilds == 2
        assert particles.grid_incremental_updates == 0

    def test_post_incremental_update_queries_match(self):
        particles, rng = self._particles(seed=14, n=300)
        index = particles.grid(6.0)
        moved = np.arange(2, 30)
        particles.xs[moved] = rng.uniform(10, 90, len(moved))
        particles.ys[moved] = rng.uniform(10, 90, len(moved))
        particles.mark_moved(indices=moved)
        assert particles.grid(6.0) is index  # merged in place
        assert particles.grid_incremental_updates == 1
        fresh = SpatialGridIndex(particles.xs, particles.ys, 6.0)
        for x, y in zip(rng.uniform(0, 100, 14), rng.uniform(0, 100, 14)):
            np.testing.assert_array_equal(
                index.query_disc(x, y, 15.0), fresh.query_disc(x, y, 15.0)
            )
            np.testing.assert_array_equal(
                index.query_candidates(x, y, 15.0),
                fresh.query_candidates(x, y, 15.0),
            )

    def test_repeated_subset_moves_accumulate(self):
        particles, rng = self._particles()
        index = particles.grid(7.0)
        for start in (2, 40, 80):
            moved = np.arange(start, start + 20)
            particles.xs[moved] = rng.uniform(5, 95, 20)
            particles.mark_moved(indices=moved)
        merged = particles.grid(7.0)
        assert merged is index
        assert particles.grid_incremental_updates == 1
        self._assert_index_equal(
            merged, SpatialGridIndex(particles.xs, particles.ys, 7.0)
        )


class TestDeferredQueries:
    """Queries between re-bins: a stale index plus the moved rows.

    ``indices_within_grid`` answers from the grid as last binned, minus
    the rows moved since, plus a direct test of those rows.  Two
    populations take the same random moves in lockstep: ``lazy`` is only
    ever queried (so moved rows pile up until the deferral fraction forces
    a re-bin), ``synced`` is also re-binned through ``grid()`` after
    every move.  After every move both must answer exactly like the
    brute-force scan, and ``synced``'s index must equal a fresh build.
    """

    CELLS = (7.0, 7.0, 7.0, 3.5)  # mostly one cell size, sometimes another

    @staticmethod
    def _move(kind, particles, rng):
        n = len(particles)
        if kind == "subset":
            rows = rng.choice(n, int(rng.integers(1, n // 10)), replace=False)
            particles.xs[rows] = rng.uniform(5, 95, len(rows))
            particles.ys[rows] = rng.uniform(5, 95, len(rows))
            particles.mark_moved(indices=rows)
        elif kind == "bbox":
            # Push one row past the current bounding box, or pull the
            # bbox-min holder inward: either changes the grid geometry.
            row = int(rng.integers(n))
            if rng.uniform() < 0.5:
                particles.xs[row] = particles.xs.max() + rng.uniform(1, 20)
            else:
                row = int(np.argmin(particles.ys))
                particles.ys[row] = 50.0
            particles.mark_moved(indices=np.array([row]))
        elif kind == "unbounded":
            particles.xs += rng.normal(0, 0.5, n)
            particles.mark_moved()
        else:  # "clip": jitter a subset out of the area, then clamp it back
            rows = rng.choice(n, int(rng.integers(1, n // 20)), replace=False)
            particles.xs[rows] += rng.normal(0, 40, len(rows))
            particles.ys[rows] += rng.normal(0, 40, len(rows))
            particles.clip_to_area((100.0, 100.0), indices=rows)

    @staticmethod
    def _queries(particles, rng):
        hit = int(rng.integers(len(particles)))
        return [
            (particles.xs[hit], particles.ys[hit], 0.0),  # zero radius, on a point
            (particles.xs[hit], particles.ys[hit], 1e-9),  # tiny
            (50.0, 50.0, 1e6),  # huge
            (-500.0, 800.0, 10.0),  # off-grid
            (*rng.uniform(-20, 120, 2), float(rng.uniform(0, 40))),
            (*rng.uniform(0, 100, 2), float(rng.uniform(0, 15))),
        ]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_deferred_queries_equal_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        xs = rng.uniform(0, 100, n)
        ys = rng.uniform(0, 100, n)
        lazy = ParticleSet(xs.copy(), ys.copy(), np.ones(n))
        synced = ParticleSet(xs.copy(), ys.copy(), np.ones(n))
        kinds = ["subset"] * 6 + ["bbox", "unbounded", "clip", "clip"]
        for step in range(30):
            kind = kinds[int(rng.integers(len(kinds)))]
            move_seed = int(rng.integers(2**31))
            for particles in (lazy, synced):
                self._move(kind, particles, np.random.default_rng(move_seed))
            np.testing.assert_array_equal(lazy.xs, synced.xs)
            cell = self.CELLS[step % len(self.CELLS)]
            for x, y, radius in self._queries(lazy, rng):
                brute = lazy.indices_within(x, y, radius)
                for particles in (lazy, synced):
                    np.testing.assert_array_equal(
                        particles.indices_within_grid(x, y, radius, cell), brute
                    )
                    np.testing.assert_array_equal(
                        particles.indices_within_cached(x, y, radius), brute
                    )
            TestIncrementalMaintenance._assert_index_equal(
                synced.grid(cell),
                SpatialGridIndex(synced.xs, synced.ys, cell),
            )

    def test_small_moves_rebin_once(self):
        """8 sequential 2% moves, each queried: at most one re-bin."""
        rng = np.random.default_rng(8)
        n = 1000
        particles = ParticleSet(
            rng.uniform(0, 100, n), rng.uniform(0, 100, n), np.ones(n)
        )
        particles.xs[:2] = (0.0, 100.0)  # pin the bounding box
        particles.ys[:2] = (0.0, 100.0)
        particles.indices_within_grid(50.0, 50.0, 10.0, 7.0)
        order = rng.permutation(np.arange(2, n))
        for k in range(8):
            rows = order[k * 20:(k + 1) * 20]
            particles.xs[rows] = rng.uniform(5, 95, len(rows))
            particles.ys[rows] = rng.uniform(5, 95, len(rows))
            particles.mark_moved(indices=rows)
            x, y = rng.uniform(0, 100, 2)
            np.testing.assert_array_equal(
                particles.indices_within_grid(x, y, 12.0, 7.0),
                particles.indices_within(x, y, 12.0),
            )
        assert particles.grid_rebuilds == 1
        assert particles.grid_incremental_updates <= 1


class TestOffsetTable:
    """The cell-offset table under random re-bins, refusals and rebuilds.

    One index is driven through ``apply_moves`` directly.  After every
    step it must equal a fresh build over the current coordinates, its
    table must slice the sort order into exactly each cell's rows, and
    every query -- with the moved rows passed to a stale index, and on
    the re-binned one -- must equal the brute-force scan.
    """

    N = 300

    @staticmethod
    def _brute(xs, ys, x, y, radius):
        return ParticleSet(xs, ys, np.ones(len(xs))).indices_within(x, y, radius)

    @staticmethod
    def _assert_table(index):
        starts = index._starts
        n_cells = index.n_cols * index.n_rows
        assert len(starts) == n_cells + 1
        assert starts[0] == 0 and starts[-1] == len(index)
        cells = np.repeat(np.arange(n_cells), np.diff(starts))
        np.testing.assert_array_equal(index._cids[index._order], cells)
        for c in np.flatnonzero(np.diff(starts)):
            assert np.all(np.diff(index._order[starts[c]:starts[c + 1]]) > 0)

    def _assert_queries(self, index, rng, moved=None):
        """Disc queries equal brute force; unmoved, candidates equal a
        fresh build's."""
        if moved is None:
            fresh = SpatialGridIndex(index.xs.copy(), index.ys.copy(), index.cell_size)
        for x, y, radius in [
            (*rng.uniform(-10, 110, 2), float(rng.uniform(0, 30))),
            (*rng.uniform(0, 100, 2), float(rng.uniform(0, 8))),
            (index.xs[7], index.ys[7], 0.0),
            (50.0, 50.0, 500.0),
            (-400.0, 40.0, 20.0),
        ]:
            brute = self._brute(index.xs, index.ys, x, y, radius)
            np.testing.assert_array_equal(
                index.query_disc(x, y, radius, moved=moved), brute
            )
            if moved is None:
                np.testing.assert_array_equal(
                    index.query_candidates(x, y, radius),
                    fresh.query_candidates(x, y, radius),
                )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), cell=st.sampled_from([3.0, 7.0, 12.5]))
    def test_random_rebins_refusals_and_rebuilds(self, seed, cell):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 100, self.N)
        ys = rng.uniform(0, 100, self.N)
        xs[:2] = ys[:2] = (0.0, 100.0)  # bounding-box holders
        index = SpatialGridIndex(xs, ys, cell)
        for _ in range(20):
            kind = rng.choice(["move", "move", "move", "refuse", "rebuild"])
            if kind == "rebuild":
                index = SpatialGridIndex(xs, ys, cell)
            else:
                n_moved = int(rng.integers(1, 90))
                rows = np.sort(rng.choice(np.arange(2, self.N), n_moved, replace=False))
                if kind == "refuse":
                    rows[0] = 0  # move the bbox-min holder inward
                xs[rows] = rng.uniform(1, 99, len(rows))
                ys[rows] = rng.uniform(1, 99, len(rows))
                mask = np.zeros(self.N, dtype=bool)
                mask[rows] = True
                self._assert_queries(index, rng, moved=(mask, rows))
                before = index_state(index)
                if kind == "refuse":
                    assert not index.apply_moves(rows)
                    np.testing.assert_equal(index_state(index), before)
                    # The owner rebuilds; restore the holder first so later
                    # moves keep the geometry.
                    xs[0] = ys[0] = 0.0
                    index = SpatialGridIndex(xs, ys, cell)
                else:
                    assert index.apply_moves(rows)
            fresh = SpatialGridIndex(xs.copy(), ys.copy(), cell)
            np.testing.assert_equal(index_state(index), index_state(fresh))
            self._assert_table(index)
            self._assert_queries(index, rng)

    def test_sparse_grid_keeps_no_table(self):
        """Far-apart points with a tiny cell: no offset table, exact
        queries through the sorted cell ids, and every re-bin refused."""
        rng = np.random.default_rng(4)
        xs = rng.uniform(0, 1e4, 50)
        ys = rng.uniform(0, 1e4, 50)
        index = SpatialGridIndex(xs, ys, 0.5)
        assert index._starts is None and index._sorted_keys is None
        for x, y in zip(xs[:5], ys[:5]):
            np.testing.assert_array_equal(
                index.query_disc(x, y, 300.0), self._brute(xs, ys, x, y, 300.0)
            )
        xs[10] += 0.25
        before = index_state(index)
        assert not index.apply_moves(np.array([10]))
        np.testing.assert_equal(index_state(index), before)
