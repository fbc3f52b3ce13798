"""Pluggable array backends for the localizer's hot kernels.

Profiling the Table-1 cell (15000 particles, N = 196) shows the remaining
wall is not numpy itself but *how* the kernels are driven: one Python
round-trip per sensor in the weight path, ragged per-seed gathers and
``np.repeat`` copies in the truncated mean-shift, and a fresh temporary
for every intermediate array.  An :class:`ArrayBackend` owns those
kernels -- the Poisson weight update (``log_likelihood_batch`` over a
chunk of readings' discs, then ``apply_log_likelihood`` per disc), the
segmented mean-shift reduction, and the resampling prefix-sum -- so the
driver code (``weighting``, ``resampling``, ``estimator``,
``localizer``) stays backend-agnostic.  Each kernel exists once per
backend: the localizer's observe loop calls the two weight-path kernels
once per chunk of readings, and ``reweight_in_place`` (the public
single-reading update) is a batch of one through the same two.

:class:`ArrayBackend` itself is the float64 reference of every kernel
(:data:`REFERENCE_BACKEND`, the oracle the parity tests call), and each
selectable backend has one production form per kernel.  Mean-shift is
the one kernel whose production driver depends on the input: at or
above ``meanshift.TRUNCATION_MIN_PARTICLES`` particles a backend runs
its truncated driver, below it the dense reference.

* :class:`NumpyBackend` (``"default"``) is the reference kernels plus
  the grid-based truncated mean-shift, and **bitwise-reproducible**: the
  golden digests pin its results.
* :class:`FastNumpyBackend` (``"fast"``) computes in float32 over
  structure-of-arrays scratch buffers preallocated per step: every O(n)
  temporary on the weight path comes from the :class:`ScratchPool`, so
  steady-state iterations allocate **zero** new buffers (verified by the
  pool's allocation counter, surfaced as the
  ``backend.allocations_per_step`` metric).  Accelerated kernels carry a
  tolerance-based parity suite, not a bitwise one.

Selection precedence: CLI ``--backend`` (which overwrites the config
field) > ``LocalizerConfig.backend`` > the ``REPRO_BACKEND`` environment
variable > ``"default"``.  See docs/PERFORMANCE.md for the capability
matrix.
"""

from __future__ import annotations

import logging
import os
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import meanshift
from repro.core.config import BACKEND_NAMES
from repro.core.special import log_gamma
from repro.physics.units import CPM_PER_MICROCURIE

if TYPE_CHECKING:
    from repro.core.config import LocalizerConfig
    from repro.core.particles import ParticleSet

logger = logging.getLogger(__name__)

#: Environment variable consulted when the config leaves the backend unset.
BACKEND_ENV = "REPRO_BACKEND"


def resolve_backend_name(configured: Optional[str]) -> str:
    """The effective backend name for a config value.

    ``configured`` wins when set; otherwise the ``REPRO_BACKEND``
    environment variable is consulted, and ``"default"`` closes the
    chain.  (The CLI ``--backend`` flag overwrites the config field, so
    the full precedence is CLI > config > env > default.)
    """
    name = configured or os.environ.get(BACKEND_ENV) or "default"
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
        )
    return name


def get_backend(configured: Optional[str] = None) -> "ArrayBackend":
    """A fresh backend instance for a config value (see :func:`resolve_backend_name`).

    Instances own their scratch pools, so every localizer gets its own
    (two localizers must never share hot buffers).
    """
    if resolve_backend_name(configured) == "fast":
        return FastNumpyBackend()
    return NumpyBackend()


class ScratchPool:
    """Named, capacity-growing scratch buffers with allocation accounting.

    ``get(key, shape, dtype)`` returns a view of a per-key buffer,
    allocating only when the key is new, the dtype changed, or the
    requested size outgrew the capacity (which then doubles, so repeated
    near-miss sizes converge instead of thrashing).  The counters are the
    backing data of the ``backend.allocations_per_step`` /
    ``backend.scratch_reuse`` metrics: a warmed-up weight path must show
    zero allocations per step.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        #: Buffers allocated over the pool's lifetime.
        self.allocations = 0
        #: ``get`` calls served from an existing buffer.
        self.reuses = 0
        #: Allocations since the last :meth:`begin_step`.
        self.allocations_this_step = 0
        #: Minimum capacity for *new* buffers.  Owners set this to the
        #: particle count so stochastic subset sizes (selection draws a
        #: different subset every iteration) cannot outgrow a warm buffer
        #: and re-trigger allocation mid-run.
        self.reserve_hint = 0

    def begin_step(self) -> None:
        """Open a new accounting window (one localizer iteration/batch)."""
        self.allocations_this_step = 0

    def get(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A ``shape``-sized view of the reusable buffer behind ``key``.

        The contents are *unspecified* (whatever the previous use left
        behind); callers must fully overwrite what they read.
        """
        dtype = np.dtype(dtype)
        size = 1
        for dim in shape:
            size *= int(dim)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.dtype != dtype or buffer.size < size:
            target = self.reserve_hint if size <= self.reserve_hint else size
            capacity = 1
            while capacity < target:
                capacity *= 2
            buffer = np.empty(capacity, dtype=dtype)
            self._buffers[key] = buffer
            self.allocations += 1
            self.allocations_this_step += 1
        else:
            self.reuses += 1
        return buffer[:size].reshape(shape)


class ArrayBackend:
    """Kernel provider interface plus the shared bookkeeping.

    The base class *is* the float64 reference for every kernel
    (:data:`REFERENCE_BACKEND`): subclasses override the kernels they
    accelerate and inherit exact behavior for the rest.  ``accelerated``
    is the switch the observe loop tests to pick its chunk size
    (``FUSED_CHUNK`` readings, else one); everything else calls the
    kernels unconditionally.
    """

    name: str = "default"
    dtype: np.dtype = np.dtype(np.float64)
    accelerated: bool = False

    def __init__(self) -> None:
        self.scratch = ScratchPool()

    def describe(self) -> Dict[str, str]:
        """JSON-safe identity, recorded in manifests and checkpoints."""
        return {"name": self.name, "dtype": str(self.dtype)}

    def begin_step(self) -> None:
        self.scratch.begin_step()

    # --- weight path -----------------------------------------------------------

    def log_likelihood_batch(
        self,
        particles: "ParticleSet",
        subsets: Sequence[np.ndarray],
        sensor_x: np.ndarray,
        sensor_y: np.ndarray,
        counts: np.ndarray,
        efficiency: float = 1.0,
        background_cpm: float = 0.0,
        under_prediction_tempering: float = 1.0,
        interference_cpm: Optional[np.ndarray] = None,
        credibility_weights: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Fused log-likelihood of a chunk of readings over their discs.

        ``subsets[b]`` holds the particle rows reading ``b`` touches (its
        fusion-range selection).  Returns one array per reading, aligned
        with its subset: the (tempered, credibility-scaled) log-likelihood
        of the reading under each selected particle's single-source
        hypothesis, at the *current* positions.  Work is proportional to
        the total disc size, not readings x particles.  The reference
        loops the readings in float64; accelerated backends compute every
        disc in one fused pass and are parity-tested against this.
        """
        from repro.core.weighting import (
            expected_rates_for_particles,
            tempered_poisson_log_likelihood,
        )

        sensor_x = np.asarray(sensor_x, dtype=float)
        sensor_y = np.asarray(sensor_y, dtype=float)
        counts = np.asarray(counts, dtype=float)
        out = []
        for b, indices in enumerate(subsets):
            rates = expected_rates_for_particles(
                particles,
                indices,
                float(sensor_x[b]),
                float(sensor_y[b]),
                efficiency,
                background_cpm,
            )
            if interference_cpm is not None:
                rates = rates + float(interference_cpm[b])
            log_like = tempered_poisson_log_likelihood(
                float(counts[b]), rates, under_prediction_tempering
            )
            if credibility_weights is not None and credibility_weights[b] != 1.0:
                # -inf (impossible hypothesis) stays -inf at any trust
                # level; scaling it directly would give nan at weight 0.
                log_like = np.where(
                    np.isfinite(log_like),
                    float(credibility_weights[b]) * log_like,
                    log_like,
                )
            out.append(log_like)
        return out

    def apply_log_likelihood(
        self,
        particles: "ParticleSet",
        indices: np.ndarray,
        log_like: np.ndarray,
    ) -> None:
        """Apply one precomputed likelihood vector to the selected subset.

        ``log_like`` is aligned with ``indices`` (one entry of
        :meth:`log_likelihood_batch`'s result).  The subset's total mass
        is preserved; a fully deflated subset is first backfilled with an
        even share; a reading every hypothesis finds impossible keeps the
        prior; posteriors are clamped at :data:`RELATIVE_FLOOR` of the
        subset's peak.  ``reweight_in_place`` and the observe loop both
        end here.
        """
        from repro.core.weighting import RELATIVE_FLOOR

        m = len(indices)
        if m == 0:
            return
        particles.mark_reweighted()
        subset_mass = float(particles.weights[indices].sum())
        if subset_mass <= 0:
            subset_mass = m / len(particles)
            particles.weights[indices] = subset_mass / m
        log_like = np.asarray(log_like, dtype=float)
        with np.errstate(divide="ignore"):
            log_prior = np.log(particles.weights[indices])
        log_post = log_like + log_prior
        finite = np.isfinite(log_post)
        if not np.any(finite):
            return
        peak = log_post[finite].max()
        posterior = np.exp(np.maximum(log_post - peak, np.log(RELATIVE_FLOOR)))
        particles.weights[indices] = posterior * (subset_mass / posterior.sum())

    # --- resampling ------------------------------------------------------------

    def prefix_sum(self, weights: np.ndarray, total: float) -> np.ndarray:
        """Normalized inclusive prefix-sum of positive-total weights.

        The systematic-resampling comb searches this; the reference form
        is ``np.cumsum(weights / total)`` with the final entry clamped to
        exactly 1.0.
        """
        cumulative = np.cumsum(weights / total)
        cumulative[-1] = 1.0
        return cumulative

    # --- estimation ------------------------------------------------------------

    def meanshift_modes(
        self,
        particles: "ParticleSet",
        seeds: np.ndarray,
        config: "LocalizerConfig",
        stats: Optional[dict] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mean-shift modes of the particle population from ``seeds``.

        The reference is the dense float64 sweep
        (:func:`~repro.core.meanshift.mean_shift_modes`), which every
        production driver is parity-tested against.  Subclasses run their
        own driver at or above ``meanshift.TRUNCATION_MIN_PARTICLES`` and
        this one below it.  ``stats``, when given, receives the driver's
        work counts and ``path``, the name of the driver that ran.
        """
        if stats is not None:
            stats["path"] = "dense"
        return meanshift.mean_shift_modes(
            seeds,
            particles.positions,
            particles.weights,
            bandwidth=config.bandwidth,
            tol=config.meanshift_tol,
            max_iter=config.meanshift_max_iter,
            stats=stats,
        )


#: The float64 reference kernels, for callers handed no backend.
REFERENCE_BACKEND = ArrayBackend()


class NumpyBackend(ArrayBackend):
    """The float64 reference backend (``"default"``): bitwise parity.

    Every kernel is the reference one except mean-shift on large
    populations, which runs the grid-based truncated driver.
    """

    def meanshift_modes(
        self,
        particles: "ParticleSet",
        seeds: np.ndarray,
        config: "LocalizerConfig",
        stats: Optional[dict] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`~repro.core.meanshift.truncated_mean_shift_modes` at or
        above ``TRUNCATION_MIN_PARTICLES``, the dense reference below."""
        if len(particles) < meanshift.TRUNCATION_MIN_PARTICLES:
            return super().meanshift_modes(particles, seeds, config, stats)
        if stats is not None:
            stats["path"] = "truncated"
        return meanshift.truncated_mean_shift_modes(
            seeds,
            particles.positions,
            particles.weights,
            bandwidth=config.bandwidth,
            grid=particles.grid(config.grid_cell()),
            tol=config.meanshift_tol,
            max_iter=config.meanshift_max_iter,
            stats=stats,
        )


class FastNumpyBackend(ArrayBackend):
    """Float32 SoA backend (``"fast"``): fused kernels, preallocated scratch.

    Compute dtype is float32 throughout the hot kernels (particle storage
    stays float64 -- the filter state is unchanged); float32 halves
    memory traffic and doubles SIMD width, and the Poisson log-likelihood
    needs nowhere near 53 bits (the weights are clamped at a 1e-30
    *relative* floor anyway).  Parity with the reference kernels is
    tolerance-based, proportional to float32 resolution of the values
    involved (see tests/test_core_backend.py).
    """

    name = "fast"
    dtype = np.dtype(np.float32)
    accelerated = True

    #: Kernel values below exp(-0.5 * 4^2) * safety are what truncation
    #: discards; this tiny total guards the mean-shift ratio denominator.
    _TINY_TOTAL = np.float32(1e-30)

    def __init__(self) -> None:
        super().__init__()
        self._mirror_revision = -1
        self._mirror_size = -1

    # --- float32 mirrors -------------------------------------------------------

    def _position_mirrors(
        self, particles: "ParticleSet"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Float32 copies of xs/ys for mean-shift, synced by position revision.

        Positions only mutate under ``mark_moved`` (movement, resample,
        injection), so the position revision keys the mirror.  Sync is a
        cast-copy into the same scratch buffers: zero allocations once
        warmed up.
        """
        scratch = self.scratch
        n = len(particles)
        if n > scratch.reserve_hint:
            scratch.reserve_hint = n
        xs32 = scratch.get("mirror.xs", (n,), np.float32)
        ys32 = scratch.get("mirror.ys", (n,), np.float32)
        revision = particles._position_revision
        if revision != self._mirror_revision or n != self._mirror_size:
            np.copyto(xs32, particles.xs)
            np.copyto(ys32, particles.ys)
            self._mirror_revision = revision
            self._mirror_size = n
        return xs32, ys32

    # --- weight path -----------------------------------------------------------

    def log_likelihood_batch(
        self,
        particles: "ParticleSet",
        subsets: Sequence[np.ndarray],
        sensor_x: np.ndarray,
        sensor_y: np.ndarray,
        counts: np.ndarray,
        efficiency: float = 1.0,
        background_cpm: float = 0.0,
        under_prediction_tempering: float = 1.0,
        interference_cpm: Optional[np.ndarray] = None,
        credibility_weights: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """One fused float32 pass over the concatenated disc rows.

        The per-sensor Python loop of the reference collapses into flat
        arithmetic over the chunk's disc rows laid end to end, each row
        carrying its reading's parameters (one ``np.repeat`` of a
        per-reading float32 table, the one disc-sized array not drawn
        from the scratch pool), so the cost is the total disc size.
        Quarantined readings never reach this kernel (the localizer drops
        them during admission), and per-row credibility weights compose
        here exactly as in the reference.  The returned arrays are views
        of one scratch buffer -- consume them before the next batch call.
        """
        if not subsets:
            return []
        scratch = self.scratch
        n = len(particles)
        if n > scratch.reserve_hint:
            scratch.reserve_hint = n
        counts = np.asarray(counts, dtype=np.float64)
        lengths = [len(subset) for subset in subsets]
        total = sum(lengths)
        rows = scratch.get("batch.rows", (total,), np.int64)
        np.concatenate(subsets, out=rows)

        gathered = scratch.get("batch.gather", (total,), np.float64)

        def gather(values: np.ndarray, out: np.ndarray) -> None:
            """``out[:] = values[rows]``, cast to float32."""
            values.take(rows, out=gathered)
            np.copyto(out, gathered)

        # Per-reading parameters, cast to float32 one value at a time and
        # expanded to every disc row.  log Gamma(count + 1) is taken in
        # float64 (large counts lose all fractional precision in float32),
        # one scalar call per reading of the chunk.
        lgamma = np.array([log_gamma(c) for c in (counts + 1.0).tolist()])
        columns = {
            "counts": counts,
            "sx": sensor_x,
            "sy": sensor_y,
            "lgamma": lgamma,
            "fill": np.where(counts == 0.0, 0.0, -np.inf),
        }
        if interference_cpm is not None:
            columns["intf"] = interference_cpm
        if under_prediction_tempering < 1.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                at_count = np.where(
                    counts > 0.0,
                    counts * np.log(np.maximum(counts, 1.0))
                    - counts
                    - lgamma,
                    0.0,
                )
            columns["atcount"] = (1.0 - under_prediction_tempering) * at_count
        if credibility_weights is not None:
            columns["cred"] = credibility_weights
        table = scratch.get("batch.params", (len(columns), len(subsets)), np.float32)
        for row, values in zip(table, columns.values()):
            np.copyto(row, values)
        spread = dict(zip(columns, np.repeat(table, lengths, axis=1)))

        d_sq = scratch.get("batch.dsq", (total,), np.float32)
        tmp = scratch.get("batch.tmp", (total,), np.float32)
        gather(particles.xs, d_sq)
        np.subtract(d_sq, spread["sx"], out=d_sq)
        np.multiply(d_sq, d_sq, out=d_sq)
        gather(particles.ys, tmp)
        np.subtract(tmp, spread["sy"], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(d_sq, tmp, out=d_sq)
        np.add(d_sq, np.float32(1.0), out=d_sq)
        rates = tmp  # d_sq holds 1 + d^2; tmp is free to become the rates
        gather(particles.strengths, rates)
        np.divide(rates, d_sq, out=rates)
        np.multiply(
            rates, np.float32(CPM_PER_MICROCURIE * efficiency), out=rates
        )
        np.add(rates, np.float32(background_cpm), out=rates)
        if interference_cpm is not None:
            np.add(rates, spread["intf"], out=rates)

        log_like = d_sq  # 1 + d^2 is spent; reuse as the output
        positive = scratch.get("batch.positive", (total,), bool)
        np.greater(rates, 0.0, out=positive)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(rates, out=log_like, where=positive)
        np.multiply(log_like, spread["counts"], out=log_like, where=positive)
        np.subtract(log_like, rates, out=log_like, where=positive)
        np.subtract(log_like, spread["lgamma"], out=log_like, where=positive)
        np.logical_not(positive, out=positive)
        np.copyto(log_like, spread["fill"], where=positive)

        if under_prediction_tempering < 1.0:
            under = positive  # spent; reuse as the under-prediction mask
            np.less(rates, spread["counts"], out=under)
            scaled = rates  # rates are spent after the mask
            np.multiply(
                log_like, np.float32(under_prediction_tempering), out=scaled
            )
            np.add(scaled, spread["atcount"], out=scaled)
            np.copyto(log_like, scaled, where=under)
            spare = scaled
        else:
            spare = rates
        if credibility_weights is not None:
            finite = positive
            np.isfinite(log_like, out=finite)
            np.multiply(log_like, spread["cred"], out=spare)
            np.copyto(log_like, spare, where=finite)
        bounds = [0, *accumulate(lengths)]
        return [log_like[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def apply_log_likelihood(
        self,
        particles: "ParticleSet",
        indices: np.ndarray,
        log_like: np.ndarray,
    ) -> None:
        """The reference update on one float64 scratch buffer.

        The prior is gathered into the buffer, which then holds the log
        posterior and finally the posterior, so a warm update allocates
        nothing.
        """
        from repro.core.weighting import RELATIVE_FLOOR

        m = len(indices)
        if m == 0:
            return
        particles.mark_reweighted()
        post = self.scratch.get("apply.post", (m,), np.float64)
        np.take(particles.weights, indices, out=post)
        subset_mass = float(post.sum())
        if subset_mass <= 0:
            subset_mass = m / len(particles)
            particles.weights[indices] = subset_mass / m
            post.fill(subset_mass / m)
        with np.errstate(divide="ignore"):
            np.log(post, out=post)
        post += log_like
        finite = self.scratch.get("apply.finite", (m,), bool)
        np.isfinite(post, out=finite)
        if not finite.any():
            return
        peak = float(np.max(post, initial=-np.inf, where=finite))
        np.subtract(post, peak, out=post)
        np.maximum(post, np.log(RELATIVE_FLOOR), out=post)
        np.exp(post, out=post)
        np.multiply(post, subset_mass / float(post.sum()), out=post)
        particles.weights[indices] = post

    # --- resampling ------------------------------------------------------------

    def prefix_sum(self, weights: np.ndarray, total: float) -> np.ndarray:
        cumulative = self.scratch.get("rs.cum", (len(weights),), np.float64)
        np.cumsum(weights, out=cumulative)
        np.divide(cumulative, total, out=cumulative)
        cumulative[-1] = 1.0
        return cumulative

    # --- mean-shift ------------------------------------------------------------

    def meanshift_modes(
        self,
        particles: "ParticleSet",
        seeds: np.ndarray,
        config: "LocalizerConfig",
        stats: Optional[dict] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Padded-SoA truncated mean-shift: the segmented reduction, fused.

        The reference truncated driver re-concatenates each active seed's
        ragged candidate list every sweep (``np.concatenate`` +
        ``np.repeat`` + ``np.add.reduceat``).  Here every seed owns one
        row of fixed-capacity float32 scratch matrices (positions and
        weights, zero-padded), so a sweep is five broadcasted row
        operations and three row-sums -- no ragged bookkeeping at all.
        Converged seeds are swapped to the tail so live sweeps shrink.

        Same contract as ``truncated_mean_shift_modes``: results agree
        with the dense reference to well within the merge radius
        (parity-tested), not bitwise.  Below ``TRUNCATION_MIN_PARTICLES``
        the dense float64 reference runs instead: it is already cheap
        there and the padding machinery would dominate.
        """
        if len(particles) < meanshift.TRUNCATION_MIN_PARTICLES:
            return super().meanshift_modes(particles, seeds, config, stats)
        bandwidth = config.bandwidth
        weights = particles.weights
        total_weight = weights.sum()
        if total_weight <= 0:
            raise ValueError("mean-shift needs positive total weight")
        if stats is not None:
            stats["path"] = f"backend:{self.name}"

        grid = particles.grid(config.grid_cell())
        scratch = self.scratch
        n_seeds = len(seeds)
        radius = meanshift.TRUNCATION_SIGMAS * bandwidth
        margin = bandwidth
        gather_radius = radius + margin
        inv_two_h_sq = np.float32(0.5 / (bandwidth * bandwidth))
        tol = config.meanshift_tol
        xs32, ys32 = self._position_mirrors(particles)
        w32 = scratch.get("ms.w32", (len(particles),), np.float32)
        np.copyto(w32, weights)

        idx_rows, counts, capacity = meanshift.padded_candidate_rows(
            grid, seeds, gather_radius
        )
        shape = (n_seeds, capacity)
        px = scratch.get("ms.px", shape, np.float32)
        py = scratch.get("ms.py", shape, np.float32)
        pw = scratch.get("ms.pw", shape, np.float32)
        t0 = scratch.get("ms.t0", shape, np.float32)
        t1 = scratch.get("ms.t1", shape, np.float32)
        columns = scratch.get("ms.cols", (capacity,), np.int64)
        np.copyto(columns, np.arange(capacity))

        def fill_span(lo: int, hi: int) -> None:
            """(Re)load the SoA rows in [lo, hi).

            Basic slices only: ``out=px[rows]`` with a fancy index would
            write into a temporary copy and silently leave the scratch
            rows holding stale garbage.  Only the live prefix (widest
            count in the span) is gathered; the tail is memset so padded
            slots hold finite coordinates and zero weight.
            """
            width = int(counts[lo:hi].max())
            np.take(xs32, idx_rows[lo:hi, :width], out=px[lo:hi, :width])
            np.take(ys32, idx_rows[lo:hi, :width], out=py[lo:hi, :width])
            np.take(w32, idx_rows[lo:hi, :width], out=pw[lo:hi, :width])
            # Zero the padding weights so padded slots contribute nothing.
            pw[lo:hi, :width] *= columns[None, :width] < counts[lo:hi, None]
            px[lo:hi, width:] = 0
            py[lo:hi, width:] = 0
            pw[lo:hi, width:] = 0

        fill_span(0, n_seeds)
        sx = scratch.get("ms.sx", (n_seeds,), np.float32)
        sy = scratch.get("ms.sy", (n_seeds,), np.float32)
        np.copyto(sx, seeds[:, 0])
        np.copyto(sy, seeds[:, 1])
        center_x = scratch.get("ms.cx", (n_seeds,), np.float32)
        center_y = scratch.get("ms.cy", (n_seeds,), np.float32)
        np.copyto(center_x, sx)
        np.copyto(center_y, sy)
        order = np.arange(n_seeds)  # row -> seed id, updated by compaction

        totals = scratch.get("ms.tot", (n_seeds,), np.float32)
        numer_x = scratch.get("ms.nx", (n_seeds,), np.float32)
        numer_y = scratch.get("ms.ny", (n_seeds,), np.float32)
        # Per-row gather margin.  A row that outruns its margin re-gathers
        # with the margin doubled (capped), so long-travelling seeds pay
        # O(log distance) re-gathers instead of one per bandwidth moved.
        row_margin = scratch.get("ms.margin", (n_seeds,), np.float32)
        row_margin.fill(np.float32(margin))
        row_margin_sq = scratch.get("ms.marginsq", (n_seeds,), np.float32)
        row_margin_sq.fill(np.float32(margin * margin))
        max_margin = np.float32(3.0 * margin)
        deep_margin = np.float32(6.0 * margin)
        # Aitken acceleration state: the previous sweep's shift vector and
        # squared length, plus the alternation flag (see the boost block).
        shift_prev_x = scratch.get("ms.dxp", (n_seeds,), np.float32)
        shift_prev_y = scratch.get("ms.dyp", (n_seeds,), np.float32)
        moved_prev = scratch.get("ms.pmv", (n_seeds,), np.float32)
        boosted = scratch.get("ms.boost", (n_seeds,), np.bool_)
        shift_prev_x.fill(0)
        shift_prev_y.fill(0)
        moved_prev.fill(0)
        boosted.fill(False)
        jump_cap = np.float32(0.5 * bandwidth)
        # No jumps in the endgame: below this shift the row re-enters the
        # plain fixed-point sequence, so its rest position phase-matches
        # the reference iteration (which stops at its first sub-tol step).
        # Jumping all the way to rest would land at an arbitrary point of
        # the tol-ball and show up as extraction deviation.
        boost_floor_sq = np.float32((3.0 * tol) ** 2)
        # Two centers this close follow (near-)identical trajectories from
        # here on -- the next iterate depends only on the current center and
        # the particle population -- so the later row can retire and adopt
        # the earlier row's final mode.  Sized to stay well inside the
        # extraction merge radius (clustering merges modes within a
        # bandwidth), so a cross-basin merge would need two distinct modes
        # closer than bandwidth/16: those are duplicates to the estimator
        # anyway.
        merge_sq = np.float32((0.0625 * bandwidth) ** 2)
        redirect: Dict[int, int] = {}  # seed id -> seed id it now shadows
        sweeps = 0
        gathers = n_seeds
        candidates_total = 0
        merges = 0
        alive = n_seeds
        # Per-seed results, recorded the sweep a row retires.  A finished
        # row's center has stopped moving (it advanced < tol this sweep),
        # so the kernel total just computed for it *is* its mode density
        # to within the convergence tolerance -- recording it here removes
        # the final full-matrix density pass entirely.
        modes = np.empty((n_seeds, 2), dtype=float)
        densities = np.zeros(n_seeds, dtype=float)
        modes[:, 0] = seeds[:, 0]
        modes[:, 1] = seeds[:, 1]
        for _ in range(config.meanshift_max_iter):
            if alive == 0:
                break
            sweeps += 1
            candidates_total += int(counts[:alive].sum())
            # Live rows are padded out to the full pow2 capacity, but the
            # arithmetic only needs to reach the widest live row.
            cols = int(counts[:alive].max())
            view = np.s_[:alive, :cols]
            rows = slice(0, alive)
            np.subtract(px[view], sx[rows, None], out=t0[view])
            np.multiply(t0[view], t0[view], out=t0[view])
            np.subtract(py[view], sy[rows, None], out=t1[view])
            np.multiply(t1[view], t1[view], out=t1[view])
            np.add(t0[view], t1[view], out=t0[view])
            np.multiply(t0[view], -inv_two_h_sq, out=t0[view])
            np.exp(t0[view], out=t0[view])
            np.multiply(t0[view], pw[view], out=t0[view])
            np.sum(t0[view], axis=1, out=totals[rows])
            # Fused multiply-reduce: one pass per numerator instead of a
            # full-matrix product materialized into t1 and then summed.
            np.einsum("ij,ij->i", t0[view], px[view], out=numer_x[rows])
            np.einsum("ij,ij->i", t0[view], py[view], out=numer_y[rows])
            stranded = totals[rows] <= 0
            np.maximum(totals[rows], self._TINY_TOTAL, out=totals[rows])
            np.divide(numer_x[rows], totals[rows], out=numer_x[rows])
            np.divide(numer_y[rows], totals[rows], out=numer_y[rows])
            np.copyto(numer_x[rows], sx[rows], where=stranded)
            np.copyto(numer_y[rows], sy[rows], where=stranded)
            shift_x = numer_x[rows] - sx[rows]
            shift_y = numer_y[rows] - sy[rows]
            moved_sq = shift_x * shift_x + shift_y * shift_y
            np.copyto(sx[rows], numer_x[rows])
            np.copyto(sy[rows], numer_y[rows])
            # A row may only finish on a sweep whose starting point was
            # natural: right after a jump the extrapolated position can sit
            # anywhere inside the tol-ball, so one more unboosted sweep
            # pins the rest position to the same fixed-point resolution as
            # the reference iteration.
            finished = ((moved_sq < tol * tol) & ~boosted[rows]) | stranded
            # Aitken delta-squared acceleration: near a mode the shift map
            # is a smooth contraction, so consecutive shifts shrink by a
            # near-constant ratio r and the remaining travel telescopes to
            # shift * r / (1 - r).  Jumping that distance skips the long
            # geometric tail; convergence is still declared only by the
            # raw ``moved < tol`` test on an unboosted sweep, so the fixed
            # point (and the reported mode) is unchanged.  Rows alternate
            # boosted / natural sweeps because the shift measured right
            # after a jump says nothing about the contraction ratio.
            ratio_num = shift_x * shift_prev_x[rows] + shift_y * shift_prev_y[rows]
            ratio = ratio_num / np.maximum(moved_prev[rows], self._TINY_TOTAL)
            boost = (
                ~finished
                & ~boosted[rows]
                & (moved_prev[rows] > 0)
                & (moved_sq > boost_floor_sq)
                & (ratio > 0)
                & (ratio < np.float32(0.9))
            )
            # Divide only on boosted rows: two equal ulp-sized shifts give
            # ratio == 1 on a row the mask discards anyway, and evaluating
            # r / (1 - r) there would warn about a division by zero.
            gain = np.divide(
                ratio,
                np.float32(1.0) - ratio,
                out=np.zeros_like(ratio),
                where=boost,
            )
            # Cap the jump length: an uncapped extrapolation from two
            # large shifts can fly across a basin boundary and merge two
            # genuinely distinct modes.
            np.minimum(
                gain,
                jump_cap / np.sqrt(np.maximum(moved_sq, self._TINY_TOTAL)),
                out=gain,
            )
            sx[rows] += shift_x * gain
            sy[rows] += shift_y * gain
            boosted[rows] = gain > 0
            shift_prev_x[rows] = shift_x
            shift_prev_y[rows] = shift_y
            moved_prev[rows] = moved_sq
            # Duplicate-trajectory detection: row j shadows the first row
            # whose center coincides with its own.  Shadowing only saves
            # work, so with a handful of live rows the O(alive^2) scan
            # costs more than the sweeps it would avoid -- skip it.
            if alive > 4:
                dxp = sx[rows, None] - sx[None, :alive]
                dyp = sy[rows, None] - sy[None, :alive]
                close = dxp * dxp + dyp * dyp <= merge_sq
                shadow_of = np.argmax(close, axis=0)  # diagonal is always True
                shadowed = (shadow_of < np.arange(alive)) & ~finished
                if shadowed.any():
                    snapshot = order[:alive].copy()
                    for j in np.nonzero(shadowed)[0]:
                        redirect[int(snapshot[j])] = int(snapshot[shadow_of[j]])
                        merges += 1
            else:
                shadowed = np.zeros(alive, dtype=bool)
            drift_sq = (sx[rows] - center_x[rows]) ** 2 + (
                sy[rows] - center_y[rows]
            ) ** 2
            retire = finished | shadowed
            refill = np.nonzero(~retire & (drift_sq > row_margin_sq[rows]))[0]
            if len(refill):
                # Re-gather every drifted row with the same exact-disc
                # query padded_candidate_rows uses.  In the straggler
                # phase the margin doubles on each re-gather so
                # long-travelling rows stop re-querying every bandwidth
                # moved; with many rows
                # live the margin stays tight, because one wide row widens
                # ``cols`` -- and the sweep arithmetic -- for all of them.
                if alive <= 8:
                    # Deep stragglers (a handful of slowly-travelling rows)
                    # get an even wider leash: the extra columns only pad
                    # those few rows, and every avoided re-gather saves a
                    # grid query plus a scatter-fill.
                    cap = max_margin if alive > 4 else deep_margin
                    grown_margin = np.minimum(row_margin[refill] * 2, cap)
                    row_margin[refill] = grown_margin
                    row_margin_sq[refill] = grown_margin * grown_margin
                flat, lengths = meanshift.disc_rows(
                    grid,
                    sx[refill].astype(np.float64),
                    sy[refill].astype(np.float64),
                    radius + row_margin[refill].astype(np.float64),
                )
                gathers += len(refill)
                widest = int(lengths.max())
                regrown = widest > capacity
                if regrown:
                    # Outgrew the row capacity: regrow every matrix (rare
                    # -- a seed drifting into a much denser region).
                    while capacity < widest:
                        capacity *= 2
                    grown = np.zeros((n_seeds, capacity), dtype=np.int64)
                    grown[:alive, : idx_rows.shape[1]] = idx_rows[:alive]
                    idx_rows = grown
                    shape = (n_seeds, capacity)
                    px = scratch.get("ms.px", shape, np.float32)
                    py = scratch.get("ms.py", shape, np.float32)
                    pw = scratch.get("ms.pw", shape, np.float32)
                    t0 = scratch.get("ms.t0", shape, np.float32)
                    t1 = scratch.get("ms.t1", shape, np.float32)
                    columns = scratch.get("ms.cols", (capacity,), np.int64)
                    np.copyto(columns, np.arange(capacity))
                pad = columns[None, :widest] < lengths[:, None]
                fresh = np.zeros((len(refill), widest), dtype=np.int64)
                fresh[pad] = flat
                idx_rows[refill, :widest] = fresh
                idx_rows[refill, widest:] = 0
                counts[refill] = lengths
                center_x[refill] = sx[refill]
                center_y[refill] = sy[refill]
                if regrown:
                    # The re-fetched scratch matrices do not carry the old
                    # contents; reload the live rows (retired rows' data
                    # is never read again).
                    fill_span(0, alive)
                else:
                    # The refilled rows are scattered, so this is the
                    # fancy-indexed form of fill_span: padding columns
                    # gather index 0 but carry weight 0, and the tails
                    # beyond the widest fresh row are zeroed outright.
                    px[refill, :widest] = xs32[fresh]
                    py[refill, :widest] = ys32[fresh]
                    pw[refill, :widest] = w32[fresh] * pad
                    px[refill, widest:] = 0
                    py[refill, widest:] = 0
                    pw[refill, widest:] = 0
            # Retire converged and shadowed rows: record their results,
            # then compact the live window by copying the surviving tail
            # rows into the freed slots (retired row data is never read
            # again, so a one-way copy replaces the old pairwise swap).
            ret_rows = np.nonzero(retire)[0]
            if len(ret_rows):
                ret_ids = order[ret_rows]
                modes[ret_ids, 0] = sx[ret_rows]
                modes[ret_ids, 1] = sy[ret_rows]
                densities[ret_ids] = totals[ret_rows]
                new_alive = alive - len(ret_rows)
                movers = np.nonzero(~retire[new_alive:alive])[0] + new_alive
                slots = ret_rows[ret_rows < new_alive]
                if len(slots):
                    # Padding beyond a mover's count is zero, so spanning
                    # the widest of both row sets keeps the slot rows'
                    # tails zeroed too.
                    span = int(max(counts[slots].max(), counts[movers].max()))
                    for array in (px, py, pw, idx_rows):
                        array[slots, :span] = array[movers, :span]
                    for vector in (
                        sx, sy, center_x, center_y, counts, order,
                        row_margin, row_margin_sq,
                        shift_prev_x, shift_prev_y, moved_prev, boosted,
                    ):
                        vector[slots] = vector[movers]
                alive = new_alive

        if alive:
            # max_iter exhausted with live rows: report their current
            # centers and last-computed kernel totals.
            live_ids = order[:alive]
            modes[live_ids, 0] = sx[:alive]
            modes[live_ids, 1] = sy[:alive]
            densities[live_ids] = totals[:alive]
        densities /= float(total_weight)
        # Shadowed seeds adopt their survivor's mode and density (chains
        # resolve front-to-back: a survivor may itself have been shadowed
        # in a later sweep).
        for seed in list(redirect):
            root = seed
            while root in redirect:
                root = redirect[root]
            modes[seed] = modes[root]
            densities[seed] = densities[root]
        if stats is not None:
            stats["sweeps"] = sweeps
            stats["n_seeds"] = n_seeds
            stats["gathers"] = gathers
            stats["candidates"] = candidates_total
            stats["merges"] = merges
        return modes, densities
