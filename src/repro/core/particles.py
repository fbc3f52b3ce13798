"""The shared particle population.

Particles are stored structure-of-arrays (positions, strengths, weights as
NumPy arrays) so that selection, weighting, resampling and mean-shift are
all vectorized.  One :class:`ParticleSet` represents hypotheses about *all*
sources at once -- the set never grows with the number of sources, which is
the paper's first headline property.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.grid import SpatialGridIndex

#: Moved share of the population up to which a disc query answers from the
#: stale grid plus a direct test of the moved rows; past it, the query
#: re-bins first.  On the Table-1 fast cell a re-bin then merges about
#: 2000 rows (0.26 ms) and a deferred query tests about 950 moved rows;
#: grid time per step measured flat from 1/8 to 1/4 and 6% higher at 1/16.
DEFERRED_FRACTION = 1 / 8
#: Moved share up to which a re-bin merges the moved rows into the index
#: (``SpatialGridIndex.apply_moves``); past it one full rebuild (0.34 ms
#: at 15000 points) is cheaper.  Raising it to 1/2 measured no change.
INCREMENTAL_FRACTION = 0.25


class ParticleSet:
    """A weighted population of (x, y, strength) hypotheses.

    The set carries a monotonically increasing **revision counter**: every
    in-place mutation (reweighting, resampling, movement, injection) bumps
    it, which is what lets downstream consumers -- the localizer's
    estimate cache, the fast backend's float32 mirrors -- invalidate
    themselves lazily instead of recomputing per call; position mutations
    also record which rows moved, which is what the spatial grid index
    catches up on.  Code that writes the coordinate or weight arrays
    directly must call :meth:`mark_moved` / :meth:`mark_reweighted`
    afterwards.
    """

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        strengths: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        strengths = np.asarray(strengths, dtype=float)
        n = len(xs)
        if not (len(ys) == len(strengths) == n):
            raise ValueError(
                f"array length mismatch: xs={n}, ys={len(ys)}, strengths={len(strengths)}"
            )
        if n == 0:
            raise ValueError("a particle set cannot be empty")
        if np.any(strengths < 0):
            raise ValueError("particle strengths must be non-negative")
        if weights is None:
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(weights, dtype=float)
            if len(weights) != n:
                raise ValueError(f"weights length {len(weights)} != {n}")
            if np.any(weights < 0):
                raise ValueError("particle weights must be non-negative")
        self.xs = xs
        self.ys = ys
        self.strengths = strengths
        self.weights = weights
        self._revision = 0
        self._position_revision = 0
        # Lazily built spatial index, kept at its last binning while
        # positions move (see indices_within_grid).
        self._grid: Optional[SpatialGridIndex] = None
        # Rows moved since the index was last binned: a boolean mask while
        # every position mutation since then declared its rows
        # (mark_moved(indices=...)), None when one did not or no index
        # exists -- only a full rebuild catches up then.
        self._moved: Optional[np.ndarray] = None
        # np.flatnonzero(self._moved), cached until the next mark_moved.
        self._moved_rows: Optional[np.ndarray] = None
        #: Cumulative grid instrumentation (rebuilds / queries / candidate
        #: counts survive index rebuilds; read by the localizer's metrics).
        #: ``grid_rebuilds`` counts *full* rebuilds; incremental merges
        #: count separately.
        self.grid_rebuilds = 0
        self.grid_incremental_updates = 0
        self.grid_queries = 0
        self.grid_candidates = 0

    # --- construction ---------------------------------------------------------

    @classmethod
    def uniform_random(
        cls,
        n: int,
        area: Tuple[float, float],
        strength_range: Tuple[float, float],
        rng: np.random.Generator,
        strength_init: str = "log",
    ) -> "ParticleSet":
        """The paper's initialization: uniform over the area, no prior.

        Strengths are drawn log-uniformly by default (the hypothesis range
        spans three decades); pass ``strength_init="uniform"`` for a
        literal uniform draw.
        """
        if n < 1:
            raise ValueError(f"need at least one particle, got {n}")
        lo, hi = strength_range
        if not 0 < lo <= hi:
            raise ValueError(f"bad strength range [{lo}, {hi}]")
        xs = rng.uniform(0.0, area[0], size=n)
        ys = rng.uniform(0.0, area[1], size=n)
        if strength_init == "log":
            strengths = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
        elif strength_init == "uniform":
            strengths = rng.uniform(lo, hi, size=n)
        else:
            raise ValueError(f"unknown strength_init {strength_init!r}")
        return cls(xs, ys, strengths)

    # --- checkpoint support -------------------------------------------------

    def export_state(self) -> dict:
        """Arrays plus revision counters, for checkpointing.

        The returned arrays are **copies** (a checkpoint must not alias a
        population that keeps mutating).  Revision counters ride along so
        revision-keyed caches (the localizer's estimate cache) stay valid
        across a restore.
        """
        return {
            "xs": self.xs.copy(),
            "ys": self.ys.copy(),
            "strengths": self.strengths.copy(),
            "weights": self.weights.copy(),
            "revision": self._revision,
            "position_revision": self._position_revision,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ParticleSet":
        """Rebuild a population from :meth:`export_state` output.

        The spatial grid index is left to rebuild lazily (it is an exact
        function of positions); grid instrumentation counters start at
        zero in the restored set.
        """
        particles = cls(
            np.asarray(state["xs"], dtype=float),
            np.asarray(state["ys"], dtype=float),
            np.asarray(state["strengths"], dtype=float),
            np.asarray(state["weights"], dtype=float),
        )
        particles._revision = int(state["revision"])
        particles._position_revision = int(state["position_revision"])
        return particles

    # --- mutation tracking ------------------------------------------------------

    @property
    def revision(self) -> int:
        """Bumped by every in-place mutation; keys downstream caches."""
        return self._revision

    def mark_reweighted(self) -> None:
        """Record a weights-only mutation (positions unchanged)."""
        self._revision += 1

    def mark_moved(self, indices: Optional[np.ndarray] = None) -> None:
        """Record a mutation that (possibly) changed particle positions.

        ``indices``, when given, promises the mutation touched *only*
        those rows (a selective resample, a bounded-subset move); the
        cached grid index can then keep answering queries and be
        re-binned incrementally instead of rebuilt from scratch.  Omit it
        for unbounded mutations.
        """
        self._revision += 1
        self._position_revision = self._revision
        if self._moved is None:
            return  # no index, or already unbounded since the last binning
        if indices is None:
            self._moved = None
        else:
            self._moved[indices] = True
        self._moved_rows = None

    # --- spatial index -----------------------------------------------------------

    def _pending_moves(self, cell_size: float) -> Optional[np.ndarray]:
        """Rows moved since the cached index was binned (sorted, unique).

        None when no re-binning of rows can bring the cache current: no
        index at this cell size, an unbounded move, or coordinate arrays
        replaced rather than written in place.
        """
        index = self._grid
        if (
            self._moved is None
            or index is None
            or index.cell_size != cell_size
            or index.xs is not self.xs
            or index.ys is not self.ys
        ):
            return None
        if self._moved_rows is None:
            self._moved_rows = np.flatnonzero(self._moved)
        return self._moved_rows

    def grid(self, cell_size: float) -> SpatialGridIndex:
        """The spatial index over current positions, maintained lazily.

        When positions changed since the last binning, the cached index
        is re-binned incrementally if every mutation declared its moved
        rows (:meth:`mark_moved` with ``indices=``) and they are at most
        :data:`INCREMENTAL_FRACTION` of the population; otherwise -- or
        when the merge cannot reproduce a from-scratch build because the
        population's bounding box changed -- it is rebuilt.  Either way
        the returned index is array-equal to a fresh
        :class:`SpatialGridIndex` over current positions.
        """
        moved = self._pending_moves(cell_size)
        if moved is not None:
            index = self._grid
            if len(moved) == 0:
                return index
            if (
                len(moved) <= INCREMENTAL_FRACTION * len(self)
                and index.apply_moves(moved)
            ):
                self.grid_incremental_updates += 1
                self._moved[moved] = False
                self._moved_rows = moved[:0]
                return index
        index = SpatialGridIndex(self.xs, self.ys, cell_size)
        self._grid = index
        self.grid_rebuilds += 1
        self._moved = np.zeros(len(self), dtype=bool)
        self._moved_rows = np.empty(0, dtype=np.intp)
        return index

    def _deferred_query(
        self, x: float, y: float, radius: float, cell_size: float
    ) -> Optional[np.ndarray]:
        """:meth:`indices_within` from the cached index without re-binning.

        The index answers for the rows still in the cells it binned them
        to, and the moved rows are distance-tested directly, so the result
        is array-equal to the brute-force scan.  None when more than
        :data:`DEFERRED_FRACTION` of the population moved (the direct test
        would stop being local) or the cache cannot be caught up at all.
        """
        moved = self._pending_moves(cell_size)
        if moved is None or len(moved) > DEFERRED_FRACTION * len(self):
            return None
        index = self._grid
        before = index.candidates_scanned
        selected = index.query_disc(
            x, y, radius, moved=(self._moved, moved) if len(moved) else None
        )
        self.grid_queries += 1
        self.grid_candidates += index.candidates_scanned - before
        return selected

    def indices_within_grid(
        self, x: float, y: float, radius: float, cell_size: float
    ) -> np.ndarray:
        """Grid-accelerated :meth:`indices_within` (bit-identical result).

        Scans only the cells overlapping the query disc instead of all N
        particles; returns the same sorted index array as the brute-force
        scan.  Rows moved since the last binning are tested directly
        beside the stale index, so a run of subset moves re-bins once
        :data:`DEFERRED_FRACTION` of the population has moved instead of
        after every move.
        """
        selected = self._deferred_query(x, y, radius, cell_size)
        if selected is None:
            self.grid(cell_size)
            selected = self._deferred_query(x, y, radius, cell_size)
        return selected

    def indices_within_cached(self, x: float, y: float, radius: float) -> np.ndarray:
        """:meth:`indices_within`, served by the cached grid when it can.

        Bit-identical either way -- the grid's exact disc query matches
        the brute-force scan -- but skips the O(N) sweep whenever an index
        the hot path already built can answer without re-binning.  Never
        builds or re-bins.
        """
        if self._grid is not None:
            selected = self._deferred_query(x, y, radius, self._grid.cell_size)
            if selected is not None:
                return selected
        return self.indices_within(x, y, radius)

    # --- basic queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def positions(self) -> np.ndarray:
        """(N, 2) array of particle positions (a fresh copy)."""
        return np.column_stack((self.xs, self.ys))

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def normalize(self) -> None:
        """Scale weights to sum to one; falls back to uniform if degenerate."""
        total = self.weights.sum()
        if total <= 0 or not np.isfinite(total):
            self.weights.fill(1.0 / len(self))
        else:
            self.weights /= total
        self.mark_reweighted()

    def indices_within(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices of particles within ``radius`` of (x, y) -- Eq. (5).

        This is the fusion-range selection ``P'``.
        """
        dx = self.xs - x
        dy = self.ys - y
        return np.nonzero(dx * dx + dy * dy <= radius * radius)[0]

    def effective_sample_size(self) -> float:
        """ESS = 1 / sum(w^2) for normalized weights; degeneracy diagnostic."""
        total = self.weights.sum()
        if total <= 0:
            return 0.0
        w = self.weights / total
        return float(1.0 / np.sum(w * w))

    def weighted_mean(self) -> np.ndarray:
        """Weighted mean of (x, y, strength) -- the *centroid* of all
        hypotheses.  For multiple sources this is exactly the wrong answer
        (see Section V-D of the paper); it exists for the single-source
        case and for tests demonstrating why mean-shift is needed."""
        total = self.weights.sum()
        if total <= 0:
            w = np.full(len(self), 1.0 / len(self))
        else:
            w = self.weights / total
        return np.array(
            [
                float(np.dot(w, self.xs)),
                float(np.dot(w, self.ys)),
                float(np.dot(w, self.strengths)),
            ]
        )

    def copy(self) -> "ParticleSet":
        return ParticleSet(
            self.xs.copy(), self.ys.copy(), self.strengths.copy(), self.weights.copy()
        )

    def clip_to_area(
        self, area: Tuple[float, float], indices: Optional[np.ndarray] = None
    ) -> None:
        """Clamp positions into [0, w] x [0, h] (jitter can push them out).

        ``indices`` bounds the clamp to a subset so the mutation stays
        eligible for incremental grid maintenance.
        """
        if indices is None:
            np.clip(self.xs, 0.0, area[0], out=self.xs)
            np.clip(self.ys, 0.0, area[1], out=self.ys)
            self.mark_moved()
        else:
            self.xs[indices] = np.clip(self.xs[indices], 0.0, area[0])
            self.ys[indices] = np.clip(self.ys[indices], 0.0, area[1])
            self.mark_moved(indices=indices)

    def __repr__(self) -> str:
        return (
            f"ParticleSet(n={len(self)}, ess={self.effective_sample_size():.1f}, "
            f"total_weight={self.total_weight():.4f})"
        )
