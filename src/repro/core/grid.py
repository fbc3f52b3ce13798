"""Uniform spatial grid index over 2-D point sets.

The fusion-range selection (Eq. 5) and the estimator's disc queries are
all "points within ``radius`` of a center" questions.  Brute force scans
every particle per query; this index buckets the points into a uniform
grid once per population revision and answers each query by scanning only
the cells overlapping the disc's bounding box.  With cell size around
half the query radius that is a handful of cells -- per-query cost is
bounded by the local point density, not the population size, which is
exactly the cost structure Eq. 5 promises.

The index is CSR-style: one ``argsort`` of the flattened cell ids, after
which every cell is a contiguous slice of the sort order.  Cells sharing
a grid column are contiguous in id, so a query resolves one
``searchsorted`` pair per column instead of one per cell.

The exact query (:meth:`query_disc`) applies the true distance test and
sorts the surviving indices ascending, making the result *bit-identical*
to the brute-force ``ParticleSet.indices_within``.  The candidate query
(:meth:`query_candidates`) skips both steps for callers -- like the
truncated mean-shift -- that only need a superset cheaply.

:meth:`apply_moves` maintains the index *incrementally*: when only a
subset of points moved (a selective resample), their rows are re-binned
by a sorted merge into the existing CSR order instead of re-sorting the
whole population.  The merged index is array-equal to a from-scratch
rebuild whenever the grid geometry (origin and cell-span) is unchanged;
otherwise ``apply_moves`` refuses and the owner falls back to a full
rebuild.  Between re-bins the owner may keep querying a stale index by
passing the moved rows to :meth:`query_disc`, which tests them directly
instead of trusting their old cells.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max


class SpatialGridIndex:
    """A maintainable uniform-grid index over point arrays.

    The index snapshots nothing: it keeps references to the coordinate
    arrays it was built from, so binning is only valid while those arrays
    are unchanged -- or until the owner re-bins moved rows through
    :meth:`apply_moves`.  :class:`~repro.core.particles.ParticleSet` owns
    the rebuild/maintain-on-revision logic.
    """

    __slots__ = (
        "xs", "ys", "cell_size", "x0", "y0", "n_cols", "n_rows",
        "_order", "_sorted_cids", "_cids", "_sorted_keys",
        "queries", "candidates_scanned",
    )

    def __init__(self, xs: np.ndarray, ys: np.ndarray, cell_size: float):
        if cell_size <= 0 or not np.isfinite(cell_size):
            raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if len(xs) != len(ys):
            raise ValueError(f"coordinate length mismatch: {len(xs)} vs {len(ys)}")
        if len(xs) == 0:
            raise ValueError("cannot index an empty point set")
        self.xs = xs
        self.ys = ys
        self.cell_size = float(cell_size)
        inv = 1.0 / self.cell_size
        self.x0 = float(xs.min())
        self.y0 = float(ys.min())
        cx = np.floor((xs - self.x0) * inv).astype(np.int64)
        cy = np.floor((ys - self.y0) * inv).astype(np.int64)
        self.n_cols = int(cx.max()) + 1
        self.n_rows = int(cy.max()) + 1
        cids = cx * self.n_rows + cy
        # Stable sort keeps within-cell indices ascending, so per-cell
        # slices come out pre-sorted.
        self._order = np.argsort(cids, kind="stable")
        self._sorted_cids = cids[self._order]
        self._cids = cids
        # Composite merge keys: cid * n + index.  Sorting these plain keys
        # is exactly the stable sort by cid (ties broken by ascending
        # index), which is what lets apply_moves splice moved rows back in
        # with two searchsorteds instead of a full argsort.  Skipped when
        # the key range would overflow int64 (pathologically sparse grids)
        # -- apply_moves then refuses and the owner rebuilds.
        if self.n_cols * self.n_rows * len(xs) + len(xs) < _INT64_MAX:
            self._sorted_keys = self._sorted_cids * np.int64(len(xs)) + self._order
        else:  # pragma: no cover - needs a degenerate planet-sized extent
            self._sorted_keys = None
        #: Query instrumentation (cheap int bumps; read by the localizer's
        #: metrics path, ignored otherwise).  Every query bumps
        #: ``queries`` exactly once and ``candidates_scanned``
        #: by the number of candidate rows it touched -- including the
        #: empty and out-of-bounds exits, which contribute zero.
        self.queries = 0
        self.candidates_scanned = 0

    def __len__(self) -> int:
        return len(self.xs)

    # --- maintenance -----------------------------------------------------------

    def apply_moves(self, dirty: np.ndarray) -> bool:
        """Re-bin the rows in ``dirty`` (unique indices) via a sorted merge.

        Returns ``True`` when the index was updated in place and is
        array-equal to a from-scratch rebuild over the current coordinate
        arrays.  Returns ``False`` -- leaving the index untouched -- when
        the move cannot be expressed as an in-bounds re-bin: the
        population's bounding box or cell-grid shape changed, so only a
        full rebuild reproduces the constructor's origin and shape.
        """
        if self._sorted_keys is None:  # pragma: no cover - overflow guard
            return False
        dirty = np.asarray(dirty, dtype=np.int64)
        if len(dirty) == 0:
            return True
        xs = self.xs
        ys = self.ys
        n = len(xs)
        # The constructor derives origin and shape from the coordinates it
        # sees; the merge is only equivalent when those are unchanged.
        if float(xs.min()) != self.x0 or float(ys.min()) != self.y0:
            return False
        inv = 1.0 / self.cell_size
        if int(np.floor((xs.max() - self.x0) * inv)) != self.n_cols - 1:
            return False
        if int(np.floor((ys.max() - self.y0) * inv)) != self.n_rows - 1:
            return False
        # Origin and extent are intact, so every re-binned cell is in
        # range by construction.
        new_cx = np.floor((xs[dirty] - self.x0) * inv).astype(np.int64)
        new_cy = np.floor((ys[dirty] - self.y0) * inv).astype(np.int64)
        new_cids = new_cx * self.n_rows + new_cy
        old_keys = self._cids[dirty] * np.int64(n) + dirty
        new_keys = new_cids * np.int64(n) + dirty
        # Delete the dirty rows' old keys (exact matches by invariant),
        # then splice the re-binned keys into the survivors.
        at = np.searchsorted(self._sorted_keys, old_keys)
        keep = np.ones(n, dtype=bool)
        keep[at] = False
        kept = self._sorted_keys[keep]
        incoming = np.sort(new_keys)
        target = np.searchsorted(kept, incoming) + np.arange(len(incoming))
        merged = np.empty(n, dtype=np.int64)
        inserted = np.zeros(n, dtype=bool)
        inserted[target] = True
        merged[inserted] = incoming
        merged[~inserted] = kept
        self._sorted_keys = merged
        self._sorted_cids = merged // n
        self._order = merged % n
        self._cids[dirty] = new_cids
        return True

    # --- queries ---------------------------------------------------------------

    def _column_ranges(self, x: float, y: float, radius: float):
        """Clamped (cx_lo, cx_hi, cy_lo, cy_hi) or ``None`` off-grid."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        inv = 1.0 / self.cell_size
        cx_lo = int(np.floor((x - radius - self.x0) * inv))
        cx_hi = int(np.floor((x + radius - self.x0) * inv))
        cy_lo = int(np.floor((y - radius - self.y0) * inv))
        cy_hi = int(np.floor((y + radius - self.y0) * inv))
        if cx_hi < 0 or cy_hi < 0 or cx_lo >= self.n_cols or cy_lo >= self.n_rows:
            return None
        return (
            max(cx_lo, 0),
            min(cx_hi, self.n_cols - 1),
            max(cy_lo, 0),
            min(cy_hi, self.n_rows - 1),
        )

    def query_candidates(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices whose *cells* overlap the disc's bounding box.

        A superset of the exact answer, unsorted; no distance test is
        applied.  Callers that evaluate a kernel over the result anyway
        (mean-shift) use this to skip the redundant filtering pass.
        """
        self.queries += 1
        ranges = self._column_ranges(x, y, radius)
        if ranges is None:
            return np.empty(0, dtype=np.int64)
        cx_lo, cx_hi, cy_lo, cy_hi = ranges
        # A fixed column's cy range is one contiguous cell-id interval;
        # resolve every column's interval with one searchsorted pair.
        bases = np.arange(cx_lo, cx_hi + 1, dtype=np.int64) * self.n_rows
        lo = np.searchsorted(self._sorted_cids, bases + cy_lo, side="left")
        hi = np.searchsorted(self._sorted_cids, bases + cy_hi + 1, side="left")
        order = self._order
        slices = [order[l:h] for l, h in zip(lo, hi) if h > l]
        if not slices:
            return np.empty(0, dtype=np.int64)
        candidates = slices[0] if len(slices) == 1 else np.concatenate(slices)
        self.candidates_scanned += len(candidates)
        return candidates

    def query_disc(
        self,
        x: float,
        y: float,
        radius: float,
        stats: Optional[dict] = None,
        moved: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Indices of points with ``(px-x)^2 + (py-y)^2 <= radius^2``.

        Sorted ascending: the result is array-equal to the brute-force
        scan, so fast-path selection stays bit-identical.  ``stats``, when
        given, receives ``candidates`` (points scanned) and ``selected``
        on every exit path, including empty and off-grid queries.

        ``moved`` lets a stale index answer exactly: a ``(mask, rows)``
        pair naming the points whose coordinates changed since they were
        binned (boolean mask over all points, and its nonzero positions).
        Their stale cells are ignored and the moved points join the
        candidates directly, so the distance test over the current
        coordinates still returns the brute-force answer.
        """
        candidates = self.query_candidates(x, y, radius)
        if moved is not None:
            mask, rows = moved
            candidates = np.concatenate((candidates[~mask[candidates]], rows))
            self.candidates_scanned += len(rows)
        if len(candidates) == 0:
            if stats is not None:
                stats["candidates"] = 0
                stats["selected"] = 0
            return candidates
        dx = self.xs[candidates] - x
        dy = self.ys[candidates] - y
        inside = candidates[dx * dx + dy * dy <= radius * radius]
        inside.sort()
        if stats is not None:
            stats["candidates"] = int(len(candidates))
            stats["selected"] = int(len(inside))
        return inside

    def __repr__(self) -> str:
        return (
            f"SpatialGridIndex(n={len(self)}, cell={self.cell_size:.2f}, "
            f"{self.n_cols}x{self.n_rows} cells)"
        )
