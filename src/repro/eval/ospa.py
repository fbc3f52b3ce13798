"""OSPA: the Optimal SubPattern Assignment metric for multi-target sets.

The paper scores per-source errors plus FP/FN counts.  OSPA (Schuhmacher,
Vo & Vo, 2008) is the standard single-number alternative for comparing an
estimated set of locations against a true set: it combines localization
error and cardinality error into one distance with a cutoff ``c`` and
order ``p``.  We provide it as an extended metric so runs with different
FP/FN profiles can be ranked on one axis.

    OSPA_p,c(X, Y) = ( (1/n) * [ min over assignments of
                      sum d_c(x, y)^p  +  c^p * |n - m| ] )^(1/p)

where ``n = max(|X|, |Y|)``, ``d_c = min(d, c)``.  For the small set
sizes here (K <= ~10) the optimal assignment is computed exactly with the
Hungarian algorithm (scipy).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def ospa_distance(
    truth: Sequence[Tuple[float, float]],
    estimates: Sequence[Tuple[float, float]],
    cutoff: float = 40.0,
    order: float = 1.0,
) -> float:
    """OSPA distance between the true and estimated location sets.

    ``cutoff`` defaults to the paper's 40-unit match radius, so a missed
    or ghost target costs exactly the cutoff.  Returns 0 for two empty
    sets.
    """
    # Imported here, not at module level: scipy.optimize adds about
    # 0.4 s to a cold process start (no other scipy module is loaded
    # by then), and no session step scores OSPA (only end-of-run
    # summaries do).
    from scipy.optimize import linear_sum_assignment

    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")

    truth_arr = np.atleast_2d(np.asarray(truth, dtype=float)) if len(truth) else None
    est_arr = (
        np.atleast_2d(np.asarray(estimates, dtype=float)) if len(estimates) else None
    )
    m = 0 if truth_arr is None else len(truth_arr)
    n = 0 if est_arr is None else len(est_arr)
    if m == 0 and n == 0:
        return 0.0
    if m == 0 or n == 0:
        return cutoff  # pure cardinality error

    # Pairwise cutoff distances, optimal assignment over the smaller set.
    diff = truth_arr[:, None, :] - est_arr[None, :, :]
    dist = np.minimum(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), cutoff)
    rows, cols = linear_sum_assignment(dist**order)
    assignment_cost = float((dist[rows, cols] ** order).sum())

    larger = max(m, n)
    cardinality_cost = (cutoff**order) * abs(m - n)
    return float(((assignment_cost + cardinality_cost) / larger) ** (1.0 / order))


def ospa_series(
    truth: Sequence[Tuple[float, float]],
    estimate_sets: Sequence[Sequence[Tuple[float, float]]],
    cutoff: float = 40.0,
    order: float = 1.0,
) -> list:
    """OSPA per time step for a fixed truth against evolving estimates."""
    return [
        ospa_distance(truth, estimates, cutoff=cutoff, order=order)
        for estimates in estimate_sets
    ]
