"""Weighted mean-shift mode finding (Section V-D, Eq. 6-7).

The weighted kernel density over the particles,

    L_P(x) = (sum_i w_i)^-1 * sum_i w_i * phi_H(x - p_i),

is a mixture whose modes correspond to the sources.  Mean-shift ascends
L_P from many seeds simultaneously; every converged seed is a candidate
mode.  The implementation is fully vectorized: one (seeds x particles)
distance matrix per iteration, all seeds updated at once, converged seeds
frozen.  This vectorization is our stand-in for the paper's multi-core
parallelism (mean-shift is where they report the speedup, and it is where
our array math concentrates the work).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.core.grid import SpatialGridIndex

#: Peak-memory bound of the truncated sweep: active seeds are processed
#: in tiles of at most this many gathered candidate points.
TILE_CANDIDATES = 200_000

#: Kernel cut-off of the truncated drivers, in bandwidths.  At 4 sigma
#: the discarded kernel mass is < 3.4e-4 relative, so modes match the
#: dense sweep to well under the merge radius.
TRUNCATION_SIGMAS = 4.0

#: Populations below this run the dense reference sweep: the truncated
#: drivers' gather bookkeeping only pays off once the (seeds x particles)
#: kernel matrix is large.
TRUNCATION_MIN_PARTICLES = 4096


def gaussian_kernel_weights(
    points: np.ndarray,
    center: np.ndarray,
    bandwidth: float,
) -> np.ndarray:
    """Unnormalized Gaussian kernel phi_H evaluated at ``points - center``.

    ``H = bandwidth^2 * I``; the normalization constant of Eq. (6) cancels
    in the mean-shift ratio (Eq. 7), so it is omitted.
    """
    diff = points - center
    sq = np.einsum("ij,ij->i", diff, diff)
    return np.exp(-0.5 * sq / (bandwidth * bandwidth))


def mean_shift(
    start: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    bandwidth: float,
    tol: float = 1e-2,
    max_iter: int = 100,
) -> np.ndarray:
    """Run mean-shift from a single starting point until convergence.

    Returns the converged mode location.  Provided for clarity and tests;
    the batch driver :func:`mean_shift_modes` is what the localizer uses.
    """
    x = np.asarray(start, dtype=float).copy()
    for _ in range(max_iter):
        k = gaussian_kernel_weights(points, x, bandwidth) * weights
        total = k.sum()
        if total <= 0:
            break
        new_x = k @ points / total
        if np.linalg.norm(new_x - x) < tol:
            x = new_x
            break
        x = new_x
    return x


def mean_shift_modes(
    seeds: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    bandwidth: float,
    tol: float = 1e-2,
    max_iter: int = 100,
    stats: Optional[dict] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch mean-shift: ascend from every seed simultaneously.

    Parameters
    ----------
    seeds : (S, D) starting points.
    points : (N, D) particle coordinates.
    weights : (N,) non-negative particle weights.
    bandwidth : Gaussian kernel bandwidth.
    stats : optional dict that, when supplied, receives instrumentation
        fields: ``sweeps`` (ascent iterations executed), ``n_seeds`` and
        ``candidates`` (kernel evaluations summed over sweeps).

    Returns
    -------
    modes : (S, D) converged locations (one per seed, unmerged).
    densities : (S,) the weighted kernel density value at each mode
        (normalized by total weight -- this is L_P(mode) up to the constant
        kernel normalization, used downstream as the mode's mass score).
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float)).copy()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if points.shape[0] != weights.shape[0]:
        raise ValueError(
            f"points ({points.shape[0]}) and weights ({weights.shape[0]}) disagree"
        )
    total_weight = weights.sum()
    if total_weight <= 0:
        raise ValueError("mean-shift needs positive total weight")

    active = np.ones(len(seeds), dtype=bool)
    inv_two_h_sq = 0.5 / (bandwidth * bandwidth)
    pnorm = np.sum(points * points, axis=1)
    sweeps = 0
    candidates_total = 0
    for _ in range(max_iter):
        if not np.any(active):
            break
        sweeps += 1
        current = seeds[active]
        # (A, N) squared distances from active seeds to all points, turned
        # into weighted kernel values in place.
        kernel = 2.0 * current @ points.T
        np.subtract(np.sum(current * current, axis=1)[:, None], kernel, out=kernel)
        kernel += pnorm
        np.negative(kernel, out=kernel)
        kernel *= inv_two_h_sq
        np.exp(kernel, out=kernel)
        kernel *= weights
        if stats is not None:
            candidates_total += kernel.size
        totals = kernel.sum(axis=1)
        # Seeds stranded in zero-density regions stop where they are.
        stranded = totals <= 0
        shifted = np.where(
            stranded[:, None],
            current,
            kernel @ points / np.maximum(totals, 1e-300)[:, None],
        )
        moved = np.linalg.norm(shifted - current, axis=1)
        seeds[active] = shifted
        still_active = (moved >= tol) & ~stranded
        active_indices = np.nonzero(active)[0]
        active[active_indices[~still_active]] = False

    if stats is not None:
        stats["sweeps"] = sweeps
        stats["n_seeds"] = len(seeds)
        stats["candidates"] = candidates_total
    densities = _density_at(seeds, points, weights, bandwidth) / total_weight
    return seeds, densities


def truncated_mean_shift_modes(
    seeds: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    bandwidth: float,
    grid: "SpatialGridIndex",
    truncation_sigmas: float = TRUNCATION_SIGMAS,
    tol: float = 1e-2,
    max_iter: int = 100,
    tile_candidates: int = TILE_CANDIDATES,
    stats: Optional[dict] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Grid-accelerated mean-shift with a truncated Gaussian kernel.

    Numerically the Gaussian kernel is negligible beyond a few bandwidths
    (at 4 sigma it is below 3.4e-4 of its peak), so each ascent step only
    needs the particles near the seed.  This driver gathers candidates
    from the ``grid`` (built over the same ``points``) within
    ``truncation_sigmas * bandwidth`` of each active seed and evaluates
    the kernel over that ragged candidate set instead of the dense
    (seeds x N) matrix of :func:`mean_shift_modes`.

    Two refinements keep the bookkeeping cheap and bounded:

    * **cached gathers** -- each seed's candidate set is fetched with one
      extra bandwidth of margin, kept as contiguous x, y and weight
      columns, and reused until the seed drifts more than that margin
      from its gather center (a converging seed re-gathers only a handful
      of times);
    * **tiling** -- active seeds are processed in tiles of at most
      ``tile_candidates`` gathered points, so peak memory is bounded
      regardless of the seed count.

    Returns the same ``(modes, densities)`` pair as
    :func:`mean_shift_modes`; results agree with the dense sweep to well
    within the merge radius (parity-tested), not bit-exactly.  ``stats``
    additionally receives ``gathers`` and ``candidates`` (kernel
    evaluations summed over sweeps).
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float)).copy()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if points.shape[1] != 2:
        raise ValueError("truncated mean-shift requires 2-D points")
    if points.shape[0] != weights.shape[0]:
        raise ValueError(
            f"points ({points.shape[0]}) and weights ({weights.shape[0]}) disagree"
        )
    if truncation_sigmas <= 0:
        raise ValueError(
            f"truncation_sigmas must be positive, got {truncation_sigmas}"
        )
    total_weight = weights.sum()
    if total_weight <= 0:
        raise ValueError("mean-shift needs positive total weight")

    n_seeds = len(seeds)
    radius = truncation_sigmas * bandwidth
    margin = bandwidth
    inv_two_h_sq = 0.5 / (bandwidth * bandwidth)
    xs = np.ascontiguousarray(points[:, 0])
    ys = np.ascontiguousarray(points[:, 1])

    active = np.ones(n_seeds, dtype=bool)
    # Each seed's cached gather as contiguous (x, y, weight) columns in
    # the grid's candidate order (which fixes the summation order).
    cached: list = [None] * n_seeds
    cand_n = np.zeros(n_seeds, dtype=np.int64)
    # A seed that never gathered is infinitely far from its gather center.
    centers = np.full_like(seeds, np.inf)
    gathers = 0
    candidates_total = 0
    sweeps = 0

    def _shift_tile(tile: np.ndarray) -> None:
        """One ascent step for the seeds in ``tile`` (all non-empty)."""
        nonlocal candidates_total
        counts = cand_n[tile]
        x, y, kernel = (np.concatenate(col) for col in zip(*(cached[i] for i in tile)))
        candidates_total += len(x)
        current = seeds[tile]
        dx = np.repeat(current[:, 0], counts)
        dy = np.repeat(current[:, 1], counts)
        np.subtract(x, dx, out=dx)
        np.subtract(y, dy, out=dy)
        kernel *= _gaussian_in_place(dx, dy, inv_two_h_sq)
        x *= kernel
        y *= kernel
        offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
        totals = np.add.reduceat(kernel, offsets)
        numer_x = np.add.reduceat(x, offsets)
        numer_y = np.add.reduceat(y, offsets)
        stranded = totals <= 0
        safe = np.maximum(totals, 1e-300)
        shifted = np.where(
            stranded[:, None],
            current,
            np.column_stack((numer_x / safe, numer_y / safe)),
        )
        moved = np.linalg.norm(shifted - current, axis=1)
        seeds[tile] = shifted
        active[tile[(moved < tol) | stranded]] = False

    for _ in range(max_iter):
        act_idx = np.nonzero(active)[0]
        if len(act_idx) == 0:
            break
        sweeps += 1
        # Refresh stale candidate caches: a seed more than ``margin`` from
        # its gather center may have drifted into un-gathered cells.
        drift = seeds[act_idx] - centers[act_idx]
        drift *= drift
        stale = act_idx[drift[:, 0] + drift[:, 1] > margin * margin]
        for i in stale:
            idx = grid.query_candidates(seeds[i, 0], seeds[i, 1], radius + margin)
            cached[i] = (xs[idx], ys[idx], weights[idx])
            cand_n[i] = len(idx)
        centers[stale] = seeds[stale]
        gathers += len(stale)
        # Seeds with no candidate in reach are stranded where they stand.
        empty = cand_n[act_idx] == 0
        active[act_idx[empty]] = False
        act_idx = act_idx[~empty]
        # Tile to bound the size of the flattened candidate arrays.
        tile_start = 0
        tile_count = 0
        for pos, count in enumerate(cand_n[act_idx].tolist()):
            tile_count += count
            if tile_count >= tile_candidates and pos + 1 < len(act_idx):
                _shift_tile(act_idx[tile_start:pos + 1])
                tile_start = pos + 1
                tile_count = 0
        if tile_start < len(act_idx):
            _shift_tile(act_idx[tile_start:])

    if stats is not None:
        stats["sweeps"] = sweeps
        stats["n_seeds"] = n_seeds
        stats["gathers"] = gathers
        stats["candidates"] = candidates_total
    densities = _truncated_density_at(
        seeds, xs, ys, weights, bandwidth, grid, radius
    ) / total_weight
    return seeds, densities


def _gaussian_in_place(dx: np.ndarray, dy: np.ndarray, inv_two_h_sq: float) -> np.ndarray:
    """``exp(-(dx*dx + dy*dy) * inv_two_h_sq)`` computed in ``dx``'s
    storage (``dy`` is clobbered too): the same float64 operations, in
    the same order, as the expression, without its temporaries."""
    dx *= dx
    dy *= dy
    dx += dy
    np.negative(dx, out=dx)
    dx *= inv_two_h_sq
    return np.exp(dx, out=dx)


def disc_rows(
    grid: "SpatialGridIndex",
    xs: np.ndarray,
    ys: np.ndarray,
    radius,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact disc queries for many centers: ``(flat, counts)``.

    ``flat`` concatenates ``grid.query_disc(xs[i], ys[i], radius_i)`` for
    every center in order (each row ascending) and ``counts[i]`` is row
    ``i``'s length.  ``radius`` is a scalar or a per-center array.
    """
    radii = np.broadcast_to(np.asarray(radius, dtype=float), np.shape(xs))
    rows = [
        grid.query_disc(float(x), float(y), float(r))
        for x, y, r in zip(xs, ys, radii)
    ]
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    flat = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    return flat, counts


def padded_candidate_rows(
    grid: "SpatialGridIndex",
    centers: np.ndarray,
    radius: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Gather each center's exact disc into a padded index matrix.

    The accelerated mean-shift backend trades the reference driver's
    ragged per-seed lists (concatenate / repeat / reduceat every sweep)
    for fixed-capacity structure-of-arrays rows: ``idx_rows`` is an
    ``(n_centers, capacity)`` int64 matrix whose row ``i`` holds center
    ``i``'s disc indices left-justified (ascending) and zero-padded,
    ``counts`` gives the valid prefix lengths, and ``capacity`` is the
    smallest power of two covering the largest gather (power-of-two so
    scratch buffers keyed on the shape stabilize across steps).  Padding
    slots point at particle 0; consumers must mask them out (the backend
    zeroes their kernel weights).

    Unlike the reference driver's cached candidate gathers, the rows are
    filtered to the exact disc: the sweep arithmetic re-reads every row
    slot dozens of times, so paying one distance test per gather to shed
    the ~2x bounding-box overhang (and the padding it would inflate) is a
    clear win.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    flat, counts = disc_rows(grid, centers[:, 0], centers[:, 1], radius)
    capacity = 1
    largest = int(counts.max()) if len(counts) else 1
    while capacity < max(largest, 1):
        capacity *= 2
    idx_rows = np.zeros((len(centers), capacity), dtype=np.int64)
    # Left-justified scatter of the concatenated rows in one shot: the
    # flat array is row-major, so the row-prefix mask enumerates its
    # destinations in order.
    prefix = np.arange(capacity)[None, :] < counts[:, None]
    idx_rows[prefix] = flat
    return idx_rows, counts, capacity


def _truncated_density_at(
    locations: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    weights: np.ndarray,
    bandwidth: float,
    grid: "SpatialGridIndex",
    radius: float,
) -> np.ndarray:
    """Truncated-kernel analog of :func:`_density_at` over point columns."""
    out = np.zeros(len(locations))
    inv_two_h_sq = 0.5 / (bandwidth * bandwidth)
    for j, (x, y) in enumerate(locations):
        idx = grid.query_candidates(x, y, radius)
        if len(idx) == 0:
            continue
        kernel = _gaussian_in_place(xs[idx] - x, ys[idx] - y, inv_two_h_sq)
        out[j] = kernel @ weights[idx]
    return out


def _density_at(
    locations: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    bandwidth: float,
) -> np.ndarray:
    """Weighted (unnormalized-kernel) density at each location."""
    kernel = 2.0 * locations @ points.T
    np.subtract(np.sum(locations * locations, axis=1)[:, None], kernel, out=kernel)
    kernel += np.sum(points * points, axis=1)
    kernel *= -0.5
    kernel /= bandwidth * bandwidth
    np.exp(kernel, out=kernel)
    return kernel @ weights


def select_seeds(
    points: np.ndarray,
    weights: np.ndarray,
    n_seeds: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Pick mean-shift seeds from the particle population.

    Half the seeds are the highest-weight particles (they sit near modes
    already); the rest are a uniform subsample for coverage, so a nascent
    cluster that has density but no weight spike still attracts a seed.
    Deterministic when ``rng`` is None (evenly strided subsample).
    """
    n = len(points)
    if n_seeds >= n:
        return points.copy()
    n_top = n_seeds // 2
    top = np.argsort(weights)[-n_top:] if n_top > 0 else np.array([], dtype=int)
    n_rest = n_seeds - len(top)
    if rng is None:
        rest = np.linspace(0, n - 1, n_rest).astype(int)
    else:
        rest = rng.choice(n, size=n_rest, replace=False)
    idx = np.unique(np.concatenate((top, rest)))
    if len(idx) < n_seeds:
        # The top-weight and coverage sets overlapped; top up from indices
        # not yet chosen (lowest first, deterministic) so the caller always
        # gets the full seed budget.
        unused = np.setdiff1d(np.arange(n), idx, assume_unique=True)
        idx = np.concatenate((idx, unused[: n_seeds - len(idx)]))
    return points[idx].copy()
