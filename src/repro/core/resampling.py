"""Selective resampling with jitter and random injection (Section V-E).

Only the particles touched by the current measurement (the fusion-range
subset ``P''``) are resampled; the rest of the population is untouched,
which is what lets per-source clusters persist independently.  Duplicated
particles receive zero-mean Gaussian position jitter (sigma_N) and a
log-normal strength jitter so the population never collapses to identical
points.  A small fraction of the resampled slots is replaced by fresh
uniform-random particles as the paper's provision for sources that appear
in previously written-off regions.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.core.backend import REFERENCE_BACKEND
from repro.core.config import LocalizerConfig
from repro.core.particles import ParticleSet


class ResampleStats(NamedTuple):
    """What one :func:`resample_subset` call did (for instrumentation)."""

    #: Particles redrawn (the size of the resampled subset).
    n_resampled: int
    #: Resampled slots that were duplicates and received jitter.
    n_duplicates: int
    #: Slots replaced by fresh uniform-random particles.
    n_injected: int


#: The no-op result (empty subset).
NO_RESAMPLE = ResampleStats(0, 0, 0)


def systematic_resample_indices(
    weights: np.ndarray,
    n: int,
    rng: np.random.Generator,
    backend=None,
    total: Optional[float] = None,
) -> np.ndarray:
    """Systematic (low-variance) resampling: n draws from ``weights``.

    Systematic resampling uses a single uniform offset and a stratified
    comb, giving lower Monte-Carlo variance than independent multinomial
    draws -- the standard choice in particle filtering.  The draws come
    out nondecreasing.  Falls back to uniform, unsorted draws if the
    weights are degenerate.  ``backend`` supplies the prefix-sum (the
    reference one when None); the comb itself stays float64 so the drawn
    indices stay exact.  ``total`` is ``weights.sum()`` when the caller
    already has it.
    """
    weights = np.asarray(weights, dtype=float)
    if total is None:
        total = weights.sum()
    if not _positive_mass(total):
        return rng.integers(0, len(weights), size=n)
    if backend is None:
        backend = REFERENCE_BACKEND
    cumulative = backend.prefix_sum(weights, total)
    comb = (rng.uniform() + np.arange(n)) / n
    return cumulative.searchsorted(comb)


def _positive_mass(total: float) -> bool:
    """Whether a subset mass takes the systematic (sorted-draw) path."""
    return total > 0 and math.isfinite(total)


def resample_subset(
    particles: ParticleSet,
    indices: np.ndarray,
    config: LocalizerConfig,
    rng: np.random.Generator,
    injection_center: Optional[Tuple[float, float]] = None,
    injection_radius: Optional[float] = None,
    backend=None,
) -> ResampleStats:
    """Resample the particles at ``indices`` in place.

    * Draws ``len(indices)`` replacements from the subset with probability
      proportional to weight (systematic resampling).
    * The first occurrence of each drawn particle keeps its exact
      parameters; duplicates get Gaussian position jitter (sigma_N) and
      log-normal strength jitter, per Gordon et al.'s roughening.
    * A ``config.injection_fraction`` share of the slots is replaced by
      fresh uniform-random particles -- over the whole area for
      ``injection_scope="global"``, or within the fusion disc (given by
      ``injection_center`` / ``injection_radius``) for ``"local"``.
    * Weights are reset uniformly: to the global mean for
      ``resample_weight_mode="reset"`` (default), or to an equal share of
      the subset's current mass for ``"preserve"``.

    Returns a :class:`ResampleStats` with the resample / jitter / injection
    counts of this call (callers that don't care can ignore it).
    """
    m = len(indices)
    if m == 0:
        return NO_RESAMPLE

    subset_weights = particles.weights[indices]
    subset_mass = float(subset_weights.sum())

    drawn = systematic_resample_indices(
        subset_weights, m, rng, backend=backend, total=subset_mass
    )
    source_idx = indices[drawn]

    new_xs = particles.xs[source_idx]
    new_ys = particles.ys[source_idx]
    new_strengths = particles.strengths[source_idx]

    # Jitter duplicates: every appearance of a source particle after its
    # first is perturbed so clones do not collapse to a single point.
    # Systematic draws are nondecreasing, so a repeat is a slot equal to
    # its left neighbour; the degenerate fallback's draws are unsorted.
    if _positive_mass(subset_mass):
        dup = (drawn[1:] == drawn[:-1]).nonzero()[0] + 1
    else:
        repeat = np.ones(m, dtype=bool)
        repeat[np.unique(drawn, return_index=True)[1]] = False
        dup = np.flatnonzero(repeat)
    n_dup = len(dup)
    if n_dup > 0:
        if config.resample_noise_sigma > 0:
            new_xs[dup] += rng.normal(0.0, config.resample_noise_sigma, size=n_dup)
            new_ys[dup] += rng.normal(0.0, config.resample_noise_sigma, size=n_dup)
        if config.strength_noise_rel > 0:
            new_strengths[dup] *= np.exp(
                rng.normal(0.0, config.strength_noise_rel, size=n_dup)
            )

    # Random injection for new-source detection.
    n_inject = int(round(config.injection_fraction * m))
    if n_inject > 0:
        slots = rng.choice(m, size=n_inject, replace=False)
        if config.injection_scope == "local" and injection_center is not None:
            radius = injection_radius if injection_radius is not None else config.fusion_range
            angles = rng.uniform(0.0, 2.0 * np.pi, size=n_inject)
            radii = radius * np.sqrt(rng.uniform(size=n_inject))
            new_xs[slots] = injection_center[0] + radii * np.cos(angles)
            new_ys[slots] = injection_center[1] + radii * np.sin(angles)
        else:
            new_xs[slots] = rng.uniform(0.0, config.area[0], size=n_inject)
            new_ys[slots] = rng.uniform(0.0, config.area[1], size=n_inject)
        if config.strength_init == "log":
            new_strengths[slots] = np.exp(
                rng.uniform(
                    np.log(config.strength_min),
                    np.log(config.strength_max),
                    size=n_inject,
                )
            )
        else:
            new_strengths[slots] = rng.uniform(
                config.strength_min, config.strength_max, size=n_inject
            )

    # Clamp into the physical domain (np.clip's wrapper costs more than
    # the two ufuncs on a disc-sized array).
    for values, lo, hi in (
        (new_xs, 0.0, config.area[0]),
        (new_ys, 0.0, config.area[1]),
        (new_strengths, config.strength_min, config.strength_max),
    ):
        np.maximum(values, lo, out=values)
        np.minimum(values, hi, out=values)

    particles.xs[indices] = new_xs
    particles.ys[indices] = new_ys
    particles.strengths[indices] = new_strengths

    if config.resample_weight_mode == "preserve" and subset_mass > 0:
        particles.weights[indices] = subset_mass / m
    else:
        particles.weights[indices] = 1.0 / len(particles)
    particles.mark_moved(indices=indices)
    return ResampleStats(n_resampled=m, n_duplicates=n_dup, n_injected=n_inject)
