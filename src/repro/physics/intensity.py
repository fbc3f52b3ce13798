"""Radiation transport: Eq. (1)--(4) of the paper.

Three call styles are provided:

* Scalar/obstacle-aware functions used by the *truth* simulator (one call
  per sensor--source ray, with chord-length integration over obstacles).
* Vectorized free-space functions used by the *localizer's* forward model
  (one call per sensor over thousands of particles).  Per the paper, the
  localizer never knows about obstacles, so its hot path is obstacle-free
  and fully vectorized.
* Batched obstacle-aware transport (:func:`batched_expected_cpm`) for the
  ground-truth side: evaluates Eq. (4) for many points against all sources
  at once.  The expensive part -- per-(point, source) obstacle chord
  lengths -- is exposed separately as
  :func:`attenuation_exponent_matrix` so static geometry can be computed
  once per scenario and reused (see ``SensorNetwork.expected_rates``).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.physics.obstacle import Obstacle
from repro.physics.source import RadiationSource
from repro.physics.units import CPM_PER_MICROCURIE


def free_space_intensity(
    x: np.ndarray | float,
    y: np.ndarray | float,
    source_x: np.ndarray | float,
    source_y: np.ndarray | float,
    strength: np.ndarray | float,
) -> np.ndarray | float:
    """Eq. (1): ``I_FS = A_str / (1 + |x - A_pos|^2)``.

    All arguments broadcast; pass arrays for vectorized evaluation (e.g.
    one sensor position against an array of particle hypotheses).
    """
    dx = np.asarray(x, dtype=float) - np.asarray(source_x, dtype=float)
    dy = np.asarray(y, dtype=float) - np.asarray(source_y, dtype=float)
    result = np.asarray(strength, dtype=float) / (1.0 + dx * dx + dy * dy)
    if np.ndim(result) == 0:
        return float(result)
    return result


def shielded_intensity(strength: float, mu: float, thickness: float) -> float:
    """Eq. (2): intensity after passing through ``thickness`` of material."""
    if thickness < 0:
        raise ValueError(f"thickness must be non-negative, got {thickness}")
    return strength * math.exp(-mu * thickness)


def transport_intensity(
    x: float,
    y: float,
    source: RadiationSource,
    obstacles: Sequence[Obstacle] = (),
) -> float:
    """Eq. (3): free-space fading plus attenuation by every crossed obstacle."""
    r_sq = (x - source.x) ** 2 + (y - source.y) ** 2
    exponent = 0.0
    for obstacle in obstacles:
        exponent += obstacle.attenuation_exponent(x, y, source.x, source.y)
    return source.strength / (1.0 + r_sq) * math.exp(-exponent)


def expected_cpm(
    x: float,
    y: float,
    sources: Iterable[RadiationSource],
    obstacles: Sequence[Obstacle] = (),
    efficiency: float = 1.0,
    background_cpm: float = 0.0,
) -> float:
    """Eq. (4): expected counts per minute at location (x, y).

    Sums the transported intensity of every source, scales by the CPM
    conversion constant and the sensor efficiency ``E_i``, and adds the
    background rate ``B_i``.
    """
    total_intensity = sum(transport_intensity(x, y, s, obstacles) for s in sources)
    return CPM_PER_MICROCURIE * efficiency * total_intensity + background_cpm


def expected_cpm_free_space(
    sensor_x: float,
    sensor_y: float,
    source_x: np.ndarray,
    source_y: np.ndarray,
    strength: np.ndarray,
    efficiency: float = 1.0,
    background_cpm: float = 0.0,
) -> np.ndarray:
    """Vectorized Eq. (4) for single-source hypotheses in free space.

    This is the localizer's forward model: each (source_x[i], source_y[i],
    strength[i]) is one particle's hypothesis, and the return value is the
    expected CPM at the sensor *if that particle were the only source*.
    """
    intensity = free_space_intensity(sensor_x, sensor_y, source_x, source_y, strength)
    return CPM_PER_MICROCURIE * efficiency * np.asarray(intensity) + background_cpm


def attenuation_exponent_matrix(
    xs: np.ndarray,
    ys: np.ndarray,
    sources: Sequence[RadiationSource],
    obstacles: Sequence[Obstacle] = (),
) -> np.ndarray:
    """Per-(point, source) total attenuation exponents ``sum_b mu_b * l_b``.

    Returns a ``(n_points, n_sources)`` matrix where entry ``[p, s]`` is
    the Eq.-(3) exponent for the ray from point ``p`` to source ``s``.
    Chord-length integration is inherently per-ray, but the vast majority
    of rays in a grid or sensor layout never touch an obstacle: a
    vectorized bounding-box test rejects those wholesale, and only the
    surviving pairs pay for the exact polygon clipping.

    This matrix depends only on *geometry* (point positions, source
    positions, obstacle footprints), never on strengths or backgrounds, so
    callers with static layouts compute it once and reuse it across rate
    re-evaluations.
    """
    from repro.geometry.primitives import EPS

    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    sources = list(sources)
    exponents = np.zeros((len(xs), len(sources)), dtype=float)
    if not obstacles or not len(xs) or not sources:
        return exponents
    sx = np.array([s.x for s in sources], dtype=float)
    sy = np.array([s.y for s in sources], dtype=float)
    lo_x = np.minimum(xs[:, None], sx[None, :])
    hi_x = np.maximum(xs[:, None], sx[None, :])
    lo_y = np.minimum(ys[:, None], sy[None, :])
    hi_y = np.maximum(ys[:, None], sy[None, :])
    for obstacle in obstacles:
        min_x, min_y, max_x, max_y = obstacle.polygon.bbox
        # Same rejection test Polygon.chord_length applies per ray, but
        # evaluated for every (point, source) pair in one shot.
        overlap = (
            (hi_x >= min_x - EPS)
            & (lo_x <= max_x + EPS)
            & (hi_y >= min_y - EPS)
            & (lo_y <= max_y + EPS)
        )
        for p, s in zip(*np.nonzero(overlap)):
            exponents[p, s] += obstacle.attenuation_exponent(
                xs[p], ys[p], sx[s], sy[s]
            )
    return exponents


def batched_expected_cpm(
    xs: np.ndarray,
    ys: np.ndarray,
    sources: Sequence[RadiationSource],
    obstacles: Sequence[Obstacle] = (),
    efficiency: np.ndarray | float = 1.0,
    background_cpm: np.ndarray | float = 0.0,
    exponents: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized Eq. (4): expected CPM at many points, all sources summed.

    ``efficiency`` and ``background_cpm`` broadcast against the points
    (scalars or per-point arrays).  Pass a precomputed ``exponents`` matrix
    (from :func:`attenuation_exponent_matrix`) to skip the obstacle
    geometry entirely -- the static-layout fast path.

    Sources are accumulated in order with a left fold, matching the scalar
    :func:`expected_cpm` reference summation exactly; obstacle-free rays
    are bitwise-identical to the scalar path.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    sources = list(sources)
    if exponents is None:
        exponents = attenuation_exponent_matrix(xs, ys, sources, obstacles)
    total = np.zeros(len(xs), dtype=float)
    for j, source in enumerate(sources):
        dx = xs - source.x
        dy = ys - source.y
        total += (
            source.strength / (1.0 + dx * dx + dy * dy) * np.exp(-exponents[:, j])
        )
    return (
        CPM_PER_MICROCURIE * np.asarray(efficiency, dtype=float) * total
        + np.asarray(background_cpm, dtype=float)
    )


def expected_cpm_grid(
    xs: np.ndarray,
    ys: np.ndarray,
    sources: Sequence[RadiationSource],
    obstacles: Sequence[Obstacle] = (),
    efficiency: float = 1.0,
    background_cpm: float = 0.0,
) -> np.ndarray:
    """Expected CPM sampled on the grid ``ys x xs`` (rows are y).

    Used by the visualization helpers to draw intensity heat maps.
    Evaluates the whole grid through the batched transport path (free-space
    term fully vectorized, obstacle chords only for bbox-surviving rays)
    instead of one scalar Eq.-(4) call per cell.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    gx, gy = np.meshgrid(xs, ys)
    values = batched_expected_cpm(
        gx.ravel(), gy.ravel(), sources, obstacles, efficiency, background_cpm
    )
    return values.reshape(len(ys), len(xs))


class RadiationField:
    """The ground-truth radiation environment of a scenario.

    Bundles the sources and obstacles and answers expected-CPM queries at
    arbitrary locations.  The *simulator* uses this (obstacle-aware) field;
    the *localizer* never sees it.
    """

    def __init__(
        self,
        sources: Sequence[RadiationSource],
        obstacles: Sequence[Obstacle] = (),
    ):
        self.sources = list(sources)
        self.obstacles = list(obstacles)

    def expected_cpm_at(
        self, x: float, y: float, efficiency: float = 1.0, background_cpm: float = 0.0
    ) -> float:
        """Expected CPM at (x, y) per Eq. (4)."""
        return expected_cpm(
            x, y, self.sources, self.obstacles, efficiency, background_cpm
        )

    def expected_cpm_batch(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        efficiency: np.ndarray | float = 1.0,
        background_cpm: np.ndarray | float = 0.0,
        exponents: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized Eq. (4) at many points (see :func:`batched_expected_cpm`)."""
        return batched_expected_cpm(
            xs, ys, self.sources, self.obstacles, efficiency, background_cpm, exponents
        )

    def attenuation_exponents(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Static per-(point, source) exponent matrix for this field's geometry."""
        return attenuation_exponent_matrix(xs, ys, self.sources, self.obstacles)

    def intensity_at(self, x: float, y: float) -> float:
        """Total transported intensity (uCi-equivalent) at (x, y), Eq. (3)."""
        return sum(transport_intensity(x, y, s, self.obstacles) for s in self.sources)

    def with_obstacles(self, obstacles: Sequence[Obstacle]) -> "RadiationField":
        """A copy of this field with a different obstacle set."""
        return RadiationField(self.sources, obstacles)

    def without_obstacles(self) -> "RadiationField":
        """A copy of this field with all obstacles removed."""
        return RadiationField(self.sources, ())
