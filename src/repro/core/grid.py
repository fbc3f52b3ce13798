"""Uniform spatial grid index over 2-D point sets.

The fusion-range selection (Eq. 5) and the estimator's disc queries are
all "points within ``radius`` of a center" questions.  Brute force scans
every particle per query; this index buckets the points into a uniform
grid once per population revision and answers each query by scanning only
the cells overlapping the disc's bounding box.  With cell size around
half the query radius that is a handful of cells -- per-query cost is
bounded by the local point density, not the population size, which is
exactly the cost structure Eq. 5 promises.

The index is CSR-style: the points sorted by (cell id, index), plus a
cell-offset table -- cell ``c``'s points are ``order[starts[c]:starts[c + 1]]``.
Cells sharing a grid column are contiguous in id, so a query reads two
table entries per column and slices the sort order; no search over the
population.  A pathologically sparse grid (more cells than a small
multiple of the points) keeps no table and searches its sorted cell ids
per column instead.

The exact query (:meth:`query_disc`) applies the true distance test and
sorts the surviving indices ascending, making the result *bit-identical*
to the brute-force ``ParticleSet.indices_within``.  The candidate query
(:meth:`query_candidates`) skips both steps for callers -- like the
truncated mean-shift -- that only need a superset cheaply.

:meth:`apply_moves` maintains the index *incrementally*: when only a
subset of points moved (a selective resample), their rows are re-binned
by one delete and one sorted merge into the existing order, and the
offset table is patched from the moved rows' old and new cells.  The
merged index is array-equal to a from-scratch rebuild whenever the grid
geometry (origin and cell-span) is unchanged; otherwise ``apply_moves``
refuses and the owner falls back to a full rebuild.  Between re-bins the
owner may keep querying a stale index by passing the moved rows to
:meth:`query_disc`, which tests them directly instead of trusting their
old cells.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

#: Cells per point (plus a constant) up to which the index keeps a dense
#: cell-offset table; past it the table would outweigh the population.
_TABLE_CELLS_PER_POINT = 4
_TABLE_MIN_CELLS = 4096


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
        "_order", "_cids", "_shift", "_sorted_keys", "_starts", "_sorted_cids",
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
        self._cids = cids
        n_cells = self.n_cols * self.n_rows
        if n_cells <= _TABLE_CELLS_PER_POINT * len(xs) + _TABLE_MIN_CELLS:
            # Composite keys (cid << shift) | index are unique, so a plain
            # sort of them is the stable sort by cid (within-cell indices
            # ascending); apply_moves merges moved rows back into them.
            self._shift = int(len(xs)).bit_length()
            self._sorted_keys = np.sort((cids << self._shift) | np.arange(len(xs)))
            self._order = self._sorted_keys & ((1 << self._shift) - 1)
            self._starts = np.zeros(n_cells + 1, dtype=np.int64)
            np.cumsum(np.bincount(cids, minlength=n_cells), out=self._starts[1:])
            self._sorted_cids = None
        else:
            self._order = np.argsort(cids, kind="stable")
            self._sorted_cids = cids[self._order]
            self._shift = self._sorted_keys = self._starts = None
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
        full rebuild reproduces the constructor's origin and shape (or the
        grid is too sparse to keep an offset table).
        """
        if self._starts is None:
            return False
        dirty = np.asarray(dirty, dtype=np.int64)
        if len(dirty) == 0:
            return True
        xs = self.xs
        ys = self.ys
        # The constructor derives origin and shape from the coordinates it
        # sees; the merge is only equivalent when those are unchanged.
        if float(xs.min()) != self.x0 or float(ys.min()) != self.y0:
            return False
        inv = 1.0 / self.cell_size
        if math.floor((float(xs.max()) - self.x0) * inv) != self.n_cols - 1:
            return False
        if math.floor((float(ys.max()) - self.y0) * inv) != self.n_rows - 1:
            return False
        # Origin and extent are intact, so every re-binned cell is in
        # range by construction.
        new_cx = np.floor((xs[dirty] - self.x0) * inv).astype(np.int64)
        new_cy = np.floor((ys[dirty] - self.y0) * inv).astype(np.int64)
        new_cids = new_cx * self.n_rows + new_cy
        # Delete the dirty rows' old keys, then merge in their new ones:
        # two sorted runs, which the stable sort joins in one pass.
        stale = np.zeros(len(xs), dtype=bool)
        stale[dirty] = True
        incoming = np.sort((new_cids << self._shift) | dirty)
        merged = np.concatenate(
            (self._sorted_keys[~stale[self._order]], incoming)
        )
        merged.sort(kind="stable")
        self._sorted_keys = merged
        self._order = merged & ((1 << self._shift) - 1)
        n_cells = len(self._starts) - 1
        self._starts[1:] += np.cumsum(
            np.bincount(new_cids, minlength=n_cells)
            - np.bincount(self._cids[dirty], minlength=n_cells)
        )
        self._cids[dirty] = new_cids
        return True

    # --- queries ---------------------------------------------------------------

    def _column_ranges(self, x: float, y: float, radius: float):
        """Clamped (cx_lo, cx_hi, cy_lo, cy_hi) or ``None`` off-grid."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        inv = 1.0 / self.cell_size
        cx_lo = math.floor((x - radius - self.x0) * inv)
        cx_hi = math.floor((x + radius - self.x0) * inv)
        cy_lo = math.floor((y - radius - self.y0) * inv)
        cy_hi = math.floor((y + radius - self.y0) * inv)
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
        # A fixed column's cy range is one contiguous run of the sort
        # order: two offset-table reads per column.
        n_rows = self.n_rows
        starts = self._starts
        if starts is None:
            first = np.arange(cx_lo, cx_hi + 1, dtype=np.int64) * n_rows + cy_lo
            cids = self._sorted_cids
            spans = zip(
                cids.searchsorted(first).tolist(),
                cids.searchsorted(first + (cy_hi - cy_lo + 1)).tolist(),
            )
        else:
            spans = (
                (starts[base + cy_lo], starts[base + cy_hi + 1])
                for base in range(cx_lo * n_rows, cx_hi * n_rows + 1, n_rows)
            )
        order = self._order
        slices = [order[lo:hi] for lo, hi in spans if hi > lo]
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
            unmoved = mask[candidates]
            np.logical_not(unmoved, out=unmoved)
            candidates = np.concatenate((candidates[unmoved], rows))
            self.candidates_scanned += len(rows)
        if len(candidates) == 0:
            if stats is not None:
                stats["candidates"] = 0
                stats["selected"] = 0
            return candidates
        # (px - x)^2 + (py - y)^2 in place, the brute-force scan's operands.
        dx = self.xs[candidates]
        dx -= x
        dx *= dx
        dy = self.ys[candidates]
        dy -= y
        dy *= dy
        dx += dy
        inside = candidates[dx <= radius * radius]
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
