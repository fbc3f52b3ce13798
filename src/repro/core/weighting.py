"""Particle weighting: Poisson measurement likelihood (Section V-C).

Each particle hypothesizes a *single* source.  Given a measurement
``m(S_i)``, the expected count under particle ``p`` is Eq. (4) with that
one source in free space (the localizer knows neither the other sources nor
the obstacles -- the fusion range is what makes the single-source
approximation locally valid).  The weight update is

    w(p) <- P(m(S_i) | p) * w(p)

computed in log space: the Poisson pmf at a wrong hypothesis underflows any
float, but only the *relative* weights within the touched subset matter.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import REFERENCE_BACKEND
from repro.core.particles import ParticleSet
from repro.core.special import log_gamma
from repro.physics.intensity import expected_cpm_free_space

#: Weights below max_subset_weight * RELATIVE_FLOOR are clamped to that
#: floor so a subset is never entirely zeroed by one noisy reading.
RELATIVE_FLOOR = 1e-30


def poisson_log_pmf(count: float, rates: np.ndarray) -> np.ndarray:
    """log P(count | Poisson(rate)) for an array of rates.

    Uses the gamma-function form so it stays finite for the large counts a
    nearby strong source produces (lambda up to ~1e6 CPM).  Zero rates are
    handled exactly: log pmf is 0 for count == 0 and -inf otherwise.
    """
    rates = np.asarray(rates, dtype=float)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    out = np.full(rates.shape, -np.inf)
    positive = rates > 0
    out[positive] = (
        count * np.log(rates[positive]) - rates[positive] - log_gamma(count + 1.0)
    )
    if count == 0:
        out[~positive] = 0.0
    return out


def tempered_poisson_log_likelihood(
    count: float,
    rates: np.ndarray,
    under_prediction_tempering: float = 1.0,
) -> np.ndarray:
    """Asymmetric Poisson log-likelihood for single-source hypotheses.

    A particle models *one* source, but the sensor observes the *sum* of
    all sources (Eq. 4).  Under-prediction (rate < count) is therefore not
    conclusive evidence against the hypothesis -- the missing counts may
    come from other, unmodeled sources -- whereas over-prediction is: the
    hypothesized source alone would have produced more than was observed.

    We temper the under-prediction branch by ``alpha`` in [0, 1]:

        logL(rate) = logpmf(count; rate)                      rate >= count
        logL(rate) = logpmf(count; count)
                     + alpha * (logpmf(count; rate)
                                - logpmf(count; count))       rate <  count

    ``alpha = 1`` recovers the symmetric Poisson likelihood (the naive
    reading of the paper); ``alpha = 0`` is the profile likelihood over a
    non-negative unknown interference term.  Intermediate values keep the
    attraction that tightens a cluster onto its source while letting
    clusters survive the superposed signals of their neighbours -- without
    this, the strongest source's cluster slowly absorbs the entire
    population in multi-source runs.
    """
    if not 0.0 <= under_prediction_tempering <= 1.0:
        raise ValueError(
            f"tempering must be in [0, 1], got {under_prediction_tempering}"
        )
    log_like = poisson_log_pmf(count, rates)
    if under_prediction_tempering >= 1.0:
        return log_like
    under = np.asarray(rates, dtype=float) < count
    if np.any(under):
        at_count = float(poisson_log_pmf(count, np.array([count]))[0]) if count > 0 else 0.0
        log_like[under] = at_count + under_prediction_tempering * (
            log_like[under] - at_count
        )
    return log_like


def expected_rates_for_particles(
    particles: ParticleSet,
    indices: np.ndarray,
    sensor_x: float,
    sensor_y: float,
    efficiency: float,
    background_cpm: float,
) -> np.ndarray:
    """Expected CPM at the sensor under each selected particle's hypothesis."""
    return expected_cpm_free_space(
        sensor_x,
        sensor_y,
        particles.xs[indices],
        particles.ys[indices],
        particles.strengths[indices],
        efficiency=efficiency,
        background_cpm=background_cpm,
    )


def reweight_in_place(
    particles: ParticleSet,
    indices: np.ndarray,
    observed_cpm: float,
    sensor_x: float,
    sensor_y: float,
    efficiency: float = 1.0,
    background_cpm: float = 0.0,
    under_prediction_tempering: float = 1.0,
    interference_cpm: float = 0.0,
    credibility_weight: float = 1.0,
    backend=None,
) -> None:
    """Apply the Bayesian weight update to the selected particles.

    The subset's *total* weight mass is preserved; the update redistributes
    mass within the subset according to the likelihoods.  This keeps the
    per-region masses comparable across the whole area, which is what lets
    one shared population track many sources at once (see DESIGN.md for the
    discussion of this design point; the ablation
    ``resample_weight_mode="preserve"`` explores the alternative).

    ``interference_cpm`` is the expected contribution of *other,
    already-estimated sources* at this sensor (see
    ``MultiSourceLocalizer._interference_for``): it raises each particle's
    expected rate so that readings elevated by distant known sources stop
    supporting phantom local hypotheses.

    ``credibility_weight`` tempers the whole likelihood (``L^w``) for
    readings from suspect sensors (see :mod:`repro.core.integrity`): 1.0
    is full trust, values toward 0 flatten the update so the reading
    barely moves the particles.

    This is the public single-reading update.  It is a batch of one
    through ``backend``'s two weight-path kernels
    (``log_likelihood_batch`` then ``apply_log_likelihood``), the ones
    the localizer's observe loop calls once per chunk of readings; the
    float64 reference :class:`repro.core.backend.ArrayBackend` runs it
    when ``backend`` is None.
    """
    if not 0.0 <= credibility_weight <= 1.0:
        raise ValueError(
            f"credibility_weight must be in [0, 1], got {credibility_weight}"
        )
    if backend is None:
        backend = REFERENCE_BACKEND
    (log_like,) = backend.log_likelihood_batch(
        particles,
        [indices],
        np.array([sensor_x], dtype=float),
        np.array([sensor_y], dtype=float),
        np.array([observed_cpm], dtype=float),
        efficiency=efficiency,
        background_cpm=background_cpm,
        under_prediction_tempering=under_prediction_tempering,
        interference_cpm=np.array([interference_cpm], dtype=float),
        credibility_weights=np.array([credibility_weight], dtype=float),
    )
    backend.apply_log_likelihood(particles, indices, log_like)
