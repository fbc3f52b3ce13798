"""The multiple-source localizer (Section V, Fig. 1).

One :class:`MultiSourceLocalizer` holds the shared particle population and
consumes measurements one at a time, in any order::

    localizer = MultiSourceLocalizer(config, rng=rng)
    for measurement in arrival_stream:
        localizer.observe(measurement)
    for estimate in localizer.estimates():
        print(estimate)

Each ``observe`` is one iteration of the paper's loop: fusion-range
selection, prediction, Poisson weighting, selective resampling.
``observe_batch`` runs the same loop over chunks of readings: chunks of
:data:`FUSED_CHUNK` on an accelerated backend (one fused likelihood pass
per chunk), chunks of one otherwise -- one loop body either way.  Estimates
are computed on demand by mean-shift over the current population, so the
caller chooses the cadence (the simulation runner extracts estimates once
per time step; the runtime benchmark extracts every iteration to mirror
the paper's Table I accounting).
"""

from __future__ import annotations

import logging
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backend import get_backend
from repro.core.config import LocalizerConfig
from repro.core.estimator import SourceEstimate, extract_estimates
from repro.core.fusion import FixedFusionRange, FusionRangePolicy
from repro.core.integrity import SensorCredibility
from repro.core.particles import ParticleSet
from repro.core.resampling import resample_subset
# Not called here: perfbench/layers.py times the single-reading update by
# wrapping this name, and tests/test_perfbench_hooks.py requires it to exist.
from repro.core.weighting import reweight_in_place  # noqa: F401
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sensors.measurement import Measurement

logger = logging.getLogger(__name__)

#: Readings fused per batched likelihood pass on an accelerated backend
#: (otherwise a chunk is one reading).  Within a chunk every reading's
#: update applies to the same population; resampling runs between chunks
#: so the filter keeps the one-reading loop's intra-step annealing.
#: 8 keeps >90% of the batching win on the Table-1 cell while matching
#: the one-reading loop's accuracy on the paper scenarios.
FUSED_CHUNK = 8

#: A movement model maps (xs, ys, strengths, rng) of the touched subset to
#: predicted arrays.  The paper's sources are static (identity model); the
#: hook exists for the moving-source extension.
MovementModel = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.random.Generator],
    tuple,
]


class MultiSourceLocalizer:
    """Particle filter + mean-shift localizer for an unknown number of sources."""

    def __init__(
        self,
        config: LocalizerConfig,
        fusion_policy: Optional[FusionRangePolicy] = None,
        rng: Optional[np.random.Generator] = None,
        movement_model: Optional[MovementModel] = None,
        particles: Optional[ParticleSet] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config
        #: Array backend for the hot kernels (config.backend; see
        #: repro.core.backend).  The default is the float64 reference and
        #: keeps every code path bitwise-identical; accelerated backends
        #: own scratch buffers that live as long as this localizer.
        self.backend = get_backend(config.backend)
        self.fusion_policy = (
            fusion_policy if fusion_policy is not None else FixedFusionRange(config.fusion_range)
        )
        self.rng = rng if rng is not None else np.random.default_rng()
        self.movement_model = movement_model
        if particles is not None:
            if len(particles) != config.n_particles:
                raise ValueError(
                    f"supplied particle set has {len(particles)} particles, "
                    f"config says {config.n_particles}"
                )
            self.particles = particles
        else:
            self.particles = ParticleSet.uniform_random(
                config.n_particles,
                config.area,
                (config.strength_min, config.strength_max),
                self.rng,
                strength_init=config.strength_init,
            )
        #: Structured trace-event emitter; the default NULL_TRACER keeps
        #: the hot loop free of any instrumentation cost (no clock reads,
        #: no ESS computation) -- every instrumented block is gated on
        #: ``tracer.enabled``.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Aggregating metrics registry (counters / gauges / histograms);
        #: disabled by default for the same zero-overhead reason.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        # Suppresses nested extract events while inside a chunk (the
        # interference refresh runs mean-shift mid-iteration; its cost is
        # already accounted to the ``select`` phase).
        self._in_observe = False
        self.iteration = 0
        #: Size of the touched subset in the most recent iteration.
        self.last_touched = 0
        # Cached (x, y, strength) of current estimates, used for
        # interference subtraction; refreshed every
        # config.interference_refresh iterations.
        self._interference_sources: np.ndarray = np.zeros((0, 3))
        self._interference_age = 0
        # Exponential moving average of each sensor's readings, keyed by
        # (x, y) -- used by the report-time echo filter.  Smoothing factor
        # 0.3 averages out Poisson noise over the last few rounds while
        # following a moving source within ~3 time steps.
        self._reading_ema: dict = {}
        self._ema_alpha = 0.3
        # Sensor-integrity layer (config.integrity_enabled): scores each
        # reading's surprise against the credibility reference estimates
        # (refreshed every config.integrity_refresh readings, like the
        # interference cache) and maps it to a likelihood weight --
        # 0 quarantines the sensor outright.  Off by default: the
        # reference refresh consumes filter RNG, so enabling it changes
        # the stream relative to a vanilla run.
        self.credibility: Optional[SensorCredibility] = (
            SensorCredibility(config, tracer=self.tracer, metrics=self.metrics)
            if config.integrity_enabled
            else None
        )
        self._credibility_sources: np.ndarray = np.zeros((0, 3))
        self._credibility_age = 0
        # Estimate cache: (particle revision, unfiltered candidates).  The
        # mean-shift extraction depends only on the population, so it is
        # reusable until the next mutation; the echo filter (which also
        # depends on the reading EMA) always re-runs on top.
        self._estimate_cache: Optional[tuple] = None
        # Grid instrumentation watermarks (metrics report deltas).
        self._grid_rebuilds_seen = 0
        self._grid_incremental_seen = 0
        self._grid_queries_seen = 0
        self._grid_candidates_seen = 0
        # Backend scratch-reuse watermark (same delta-flush pattern).
        self._backend_reuses_seen = 0

    # --- the per-measurement iteration -----------------------------------------

    def observe(self, measurement: Measurement) -> None:
        """Consume one measurement: select, predict, weight, resample."""
        self._observe_chunk([measurement])

    def observe_reading(
        self,
        sensor_x: float,
        sensor_y: float,
        cpm: float,
        sensor_id: int = -1,
    ) -> None:
        """Like :meth:`observe` but from raw values (no Measurement object)."""
        self.observe(
            Measurement(sensor_id, sensor_x, sensor_y, cpm, time_step=0, sequence=0)
        )

    def observe_batch(self, measurements: Sequence[Measurement]) -> None:
        """Consume one step's delivered measurements, fused when possible.

        The readings run through :meth:`_observe_chunk` in delivery order,
        :data:`FUSED_CHUNK` at a time on an accelerated backend without a
        movement model and one at a time otherwise.  A chunk of one is the
        paper's sequential loop, so the default backend and movement
        models compute exactly what calling :meth:`observe` per reading
        does.  The chunk size depends only on the backend and the movement
        model: tracing, metrics, the flight recorder and the ledger
        observe the loop without rerouting it, so an instrumented run
        computes what a plain one does.
        """
        measurements = list(measurements)
        chunk = (
            FUSED_CHUNK
            if self.backend.accelerated and self.movement_model is None
            else 1
        )
        for start in range(0, len(measurements), chunk):
            self._observe_chunk(measurements[start:start + chunk])

    def _observe_chunk(self, measurements: Sequence[Measurement]) -> None:
        """One pass of the paper's loop over a chunk of readings.

        Admission (integrity scoring, quarantine drops, echo-EMA updates,
        fusion ranges) runs per reading in delivery order; then each
        admitted reading selects its fusion disc, is predicted (a movement
        model forces chunks of one, so prediction never mixes with other
        readings' selections) and gets its interference term.  One backend
        call computes the likelihood over every reading's disc rows, each
        reading's values are applied to the same un-mutated population
        they were computed on (the updates are multiplicative, so their
        order within the chunk is immaterial), and then each reading's
        region is selectively resampled in delivery order.  Resampling
        *between* chunks keeps the one-reading loop's intra-step
        annealing -- fusing a whole step into one chunk starves later
        readings of the diversity the intermediate resamples restore.

        With an enabled tracer, one ``iteration`` event covers the chunk:
        ``readings`` and ``sensor_ids`` (the admitted readings), the
        summed ``touched`` / ``resampled`` / ``duplicates`` / ``injected``
        counts, ESS before and after, and ``select`` / ``weight`` /
        ``resample`` phases that sum to ``total_seconds``.  The null
        tracer reads no clocks and computes no ESS.
        """
        config = self.config
        backend = self.backend
        metrics = self.metrics
        traced = self.tracer.enabled
        backend.begin_step()
        if traced:
            # ESS before any clock read: diagnostics stay out of the
            # phase timings, so the phases sum to total_seconds exactly.
            ess_before = self.particles.effective_sample_size()
            t_start = perf_counter()
        self._in_observe = True
        try:
            # 1. Admission, per reading in delivery order, against the
            # un-mutated chunk-start population.
            screened: List[tuple] = []
            for m in measurements:
                admission = self._admit(m.sensor_id, m.x, m.y, m.cpm)
                if admission is not None:
                    screened.append((m, *admission))

            # 2. Selection (Eq. 5) and prediction, per admitted reading.
            admitted: List[tuple] = []  # (measurement, fusion range, disc)
            params: List[tuple] = []  # x, y, cpm, interference, credibility
            for m, fusion_range, credibility_weight in screened:
                indices = self._indices_within(m.x, m.y, fusion_range)
                self.last_touched = len(indices)
                self.iteration += 1
                if metrics.enabled:
                    metrics.counter("localizer.iterations").inc()
                    metrics.histogram("localizer.touched").observe(len(indices))
                if len(indices) == 0:
                    # Nothing hypothesized near this sensor (its region was
                    # written off); random injection elsewhere is what
                    # re-seeds such areas.
                    if metrics.enabled:
                        metrics.counter("localizer.empty_subsets").inc()
                    continue
                if self.movement_model is not None:
                    # Prediction: static sources are the identity.
                    particles = self.particles
                    xs, ys, strengths = self.movement_model(
                        particles.xs[indices],
                        particles.ys[indices],
                        particles.strengths[indices],
                        self.rng,
                    )
                    particles.xs[indices] = xs
                    particles.ys[indices] = ys
                    particles.strengths[indices] = strengths
                    particles.clip_to_area(config.area, indices=indices)
                interference = self._interference_for(m.x, m.y, fusion_range)
                admitted.append((m, fusion_range, indices))
                params.append((m.x, m.y, m.cpm, interference, credibility_weight))
            if traced:
                t_select = t_weight = perf_counter()

            resampled = duplicates = injected = 0
            if admitted:
                # 3. Weighting: one likelihood pass over the chunk's disc
                # rows (each reading's selection, laid end to end), with
                # the predicted contribution of other known sources.
                discs = [entry[2] for entry in admitted]
                sensor_x, sensor_y, counts, interference_cpm, credibility_weights = (
                    np.array(params, dtype=float).T
                )
                log_like = backend.log_likelihood_batch(
                    self.particles,
                    discs,
                    sensor_x,
                    sensor_y,
                    counts,
                    efficiency=config.assumed_efficiency,
                    background_cpm=config.assumed_background_cpm,
                    under_prediction_tempering=config.under_prediction_tempering,
                    interference_cpm=interference_cpm,
                    credibility_weights=credibility_weights,
                )
                if metrics.enabled:
                    metrics.histogram("backend.weight_update_batch_size").observe(
                        len(admitted)
                    )
                # Every reading's likelihood applies to the population it
                # was computed on: interleaving resamples here would move
                # particles out from under the remaining values.
                for indices, disc_log_like in zip(discs, log_like):
                    backend.apply_log_likelihood(
                        self.particles, indices, disc_log_like
                    )
                    self.particles.normalize()
                if traced:
                    t_weight = perf_counter()
                # 4. Selective resampling in delivery order, confined to
                # the inner part of each disc: weighting locality (full
                # fusion range) collects all evidence, but redistribution
                # stays near the sensor so a disc spanning two source
                # clusters cannot teleport one onto the other.  Nothing
                # has moved since the first reading's query (weights only
                # changed), so a full-disc resample reuses its selection;
                # every later reading re-queries, because earlier
                # resamples move particles in and out.
                reusable = self.movement_model is None
                for m, fusion_range, indices in admitted:
                    if np.isinf(fusion_range):
                        resample_radius = None  # indices is the population
                        resample_indices = indices
                    else:
                        resample_radius = (
                            config.resample_range_fraction * fusion_range
                        )
                        if reusable and resample_radius == fusion_range:
                            resample_indices = indices
                        else:
                            resample_indices = self._indices_within(
                                m.x, m.y, resample_radius
                            )
                    reusable = False
                    stats = resample_subset(
                        self.particles,
                        resample_indices,
                        config,
                        self.rng,
                        injection_center=(m.x, m.y),
                        injection_radius=resample_radius,
                        backend=backend,
                    )
                    self.particles.normalize()
                    resampled += stats.n_resampled
                    duplicates += stats.n_duplicates
                    injected += stats.n_injected
                if metrics.enabled:
                    metrics.counter("localizer.resampled_particles").inc(resampled)
                    metrics.counter("localizer.injected_particles").inc(injected)
            if traced and screened:
                t_end = perf_counter()
                self.tracer.emit(
                    "iteration",
                    iteration=self.iteration,
                    readings=len(screened),
                    sensor_ids=[int(entry[0].sensor_id) for entry in screened],
                    touched=sum(len(entry[2]) for entry in admitted),
                    ess_before=float(ess_before),
                    ess_after=float(self.particles.effective_sample_size()),
                    resampled=resampled,
                    duplicates=duplicates,
                    injected=injected,
                    phases={
                        "select": t_select - t_start,
                        "weight": t_weight - t_select,
                        "resample": t_end - t_weight,
                    },
                    total_seconds=t_end - t_start,
                )
            if metrics.enabled:
                metrics.gauge("localizer.ess").set(
                    self.particles.effective_sample_size()
                )
                self._flush_grid_metrics()
                self._flush_backend_metrics()
        finally:
            self._in_observe = False

    def _admit(
        self, sensor_id: int, sensor_x: float, sensor_y: float, cpm: float
    ) -> Optional[tuple]:
        """Per-reading admission, the first step of every chunk.

        Rejects a negative reading, then scores the sensor's credibility
        before the reading touches anything: a quarantined sensor's
        reading is dropped wholesale -- its echo-EMA entry is removed, and
        no particle selection, grid query or reweight follows.  Otherwise
        resolves the fusion range and folds the reading into the
        per-location EMA the echo filter reads.  Returns ``(fusion_range,
        credibility_weight)``, or None for a quarantined reading.
        """
        if cpm < 0:
            raise ValueError(f"measurement CPM must be non-negative, got {cpm}")
        key = (round(sensor_x, 6), round(sensor_y, 6))
        credibility_weight = 1.0
        if self.credibility is not None:
            credibility_weight = self._assess_credibility(
                sensor_id, sensor_x, sensor_y, cpm
            )
            if credibility_weight <= 0.0:
                self._reading_ema.pop(key, None)
                if self.metrics.enabled:
                    self.metrics.counter("integrity.skipped_readings").inc()
                return None
        fusion_range = self.fusion_policy.range_for(sensor_id, sensor_x, sensor_y)
        previous = self._reading_ema.get(key)
        if previous is None:
            self._reading_ema[key] = cpm
        else:
            self._reading_ema[key] = (
                self._ema_alpha * cpm + (1.0 - self._ema_alpha) * previous
            )
        return fusion_range, credibility_weight

    def _assess_credibility(
        self, sensor_id: int, sensor_x: float, sensor_y: float, cpm: float
    ) -> float:
        """Refresh the credibility reference if stale, then score the reading.

        The reference is the current estimate set, refreshed every
        ``config.integrity_refresh`` readings (see
        :meth:`_refresh_reference`).
        """
        config = self.config
        self._credibility_sources, self._credibility_age = self._refresh_reference(
            self._credibility_sources, self._credibility_age, config.integrity_refresh
        )

        from repro.physics.units import CPM_PER_MICROCURIE

        return self.credibility.assess(
            sensor_id,
            sensor_x,
            sensor_y,
            cpm,
            self._credibility_sources,
            self._reading_ema,
            config.assumed_background_cpm,
            CPM_PER_MICROCURIE * config.assumed_efficiency,
        )

    def _refresh_reference(
        self, sources: np.ndarray, age: int, refresh: int
    ) -> Tuple[np.ndarray, int]:
        """Age a reference-estimate snapshot by one reading.

        Returns the ``(sources, age)`` pair to store back: a fresh
        ``(K, 3)`` snapshot of ``estimates()`` (x, y, strength) and age 0
        once ``refresh`` readings have passed, or on the first reading
        while the snapshot is empty; otherwise ``sources`` unchanged and
        ``age + 1``.  Each refresh costs an ``estimates()`` call (and its
        RNG draws), which is why the snapshot is cached at all.
        """
        age += 1
        if age >= refresh or (sources.shape[0] == 0 and age == 1):
            sources = np.array(
                [[e.x, e.y, e.strength] for e in self.estimates()], dtype=float
            ).reshape(-1, 3)
            age = 0
        return sources, age

    def _indices_within(
        self, x: float, y: float, radius: float
    ) -> np.ndarray:
        """Disc selection (Eq. 5) via the grid index.

        Returns the same sorted index array as the brute-force
        :meth:`ParticleSet.indices_within` oracle, scanning only the cells
        overlapping the disc.
        """
        particles = self.particles
        if np.isinf(radius):
            return np.arange(len(particles))
        return particles.indices_within_grid(x, y, radius, self.config.grid_cell())

    def _flush_grid_metrics(self) -> None:
        """Report grid activity since the last flush (metrics-gated)."""
        metrics = self.metrics
        particles = self.particles
        rebuilds = particles.grid_rebuilds - self._grid_rebuilds_seen
        if rebuilds:
            # localizer.grid_rebuilds predates incremental maintenance and
            # keeps its name; grid.full_rebuilds is the same count under
            # the new grid.* namespace, paired with grid.incremental_updates.
            metrics.counter("localizer.grid_rebuilds").inc(rebuilds)
            metrics.counter("grid.full_rebuilds").inc(rebuilds)
            self._grid_rebuilds_seen = particles.grid_rebuilds
        incremental = (
            particles.grid_incremental_updates - self._grid_incremental_seen
        )
        if incremental:
            metrics.counter("grid.incremental_updates").inc(incremental)
            self._grid_incremental_seen = particles.grid_incremental_updates
        queries = particles.grid_queries - self._grid_queries_seen
        if queries:
            candidates = particles.grid_candidates - self._grid_candidates_seen
            metrics.counter("localizer.grid_queries").inc(queries)
            # Fraction of the population examined per query, averaged over
            # the flushed batch: the grid's selectivity.
            metrics.histogram("localizer.grid_candidate_fraction").observe(
                candidates / (queries * len(particles))
            )
            self._grid_queries_seen = particles.grid_queries
            self._grid_candidates_seen = particles.grid_candidates

    def _flush_backend_metrics(self) -> None:
        """Report backend scratch activity since the last flush.

        ``backend.allocations_per_step`` must read 0 on a warmed-up weight
        path -- that gauge is the zero-allocation contract's witness (see
        docs/OBSERVABILITY.md).  Only accelerated backends own scratch, so
        the default path skips this entirely.
        """
        backend = self.backend
        if not backend.accelerated:
            return
        metrics = self.metrics
        pool = backend.scratch
        metrics.gauge("backend.allocations_per_step").set(
            pool.allocations_this_step
        )
        reuse_delta = pool.reuses - self._backend_reuses_seen
        if reuse_delta:
            metrics.counter("backend.scratch_reuse").inc(reuse_delta)
            self._backend_reuses_seen = pool.reuses

    def _interference_for(
        self,
        sensor_x: float,
        sensor_y: float,
        fusion_range: float,
    ) -> float:
        """Expected CPM at this sensor from sources *outside* its disc.

        No particle in the fusion disc can hypothesize a source beyond the
        disc, yet such sources still raise the sensor's reading; without
        this correction that excess breeds phantom clusters in discs that
        "see" a strong source from 30-60 units away.  Sources inside the
        disc are never subtracted -- the particles themselves compete to
        explain them (with under-prediction tempering absorbing the
        superposition).  The estimate set is refreshed every
        ``config.interference_refresh`` iterations (see
        :meth:`_refresh_reference`).
        """
        config = self.config
        if not config.interference_subtraction or np.isinf(fusion_range):
            return 0.0
        self._interference_sources, self._interference_age = self._refresh_reference(
            self._interference_sources, self._interference_age, config.interference_refresh
        )
        sources = self._interference_sources
        if sources.shape[0] == 0:
            return 0.0

        from repro.physics.units import CPM_PER_MICROCURIE

        dx = sources[:, 0] - sensor_x
        dy = sources[:, 1] - sensor_y
        dist_sq = dx * dx + dy * dy
        outside = dist_sq > fusion_range * fusion_range
        if not np.any(outside):
            return 0.0
        contribution = (
            CPM_PER_MICROCURIE
            * config.assumed_efficiency
            * sources[outside, 2]
            / (1.0 + dist_sq[outside])
        )
        return float(contribution.sum())

    # --- estimation -------------------------------------------------------------

    def estimates(self) -> List[SourceEstimate]:
        """Current source estimates via mean-shift (Section V-D).

        Returns one estimate per surviving density mode, after the
        explain-away echo filter; the length of the list is the
        algorithm's belief about the number of sources K.

        The mean-shift extraction is cached keyed on the particle
        revision: repeated calls on an unmutated population -- the
        interference refresh, per-step diagnostics,
        ``estimated_source_count()`` -- reuse the candidate set instead of
        re-running mean-shift.  The echo filter is recomputed every call
        (it also depends on the reading EMA).
        """
        cached = self._estimate_cache
        revision = self.particles.revision
        if cached is not None and cached[0] == revision:
            if self.metrics.enabled:
                self.metrics.counter("localizer.estimate_cache_hits").inc()
            return self._filter_echoes(cached[1])
        # The interference refresh calls estimates() from inside a chunk;
        # suppress the nested extract event there so the trace's phase
        # accounting never counts the same wall-clock twice (that
        # extraction is already inside the iteration's select phase).
        tracer = NULL_TRACER if self._in_observe else self.tracer
        candidates = extract_estimates(
            self.particles, self.config, self.rng, tracer=tracer,
            backend=self.backend,
        )
        self._estimate_cache = (revision, candidates)
        if self.metrics.enabled:
            self.metrics.counter("localizer.estimate_cache_misses").inc()
            self._flush_grid_metrics()
        return self._filter_echoes(candidates)

    def _filter_echoes(
        self, candidates: List[SourceEstimate]
    ) -> List[SourceEstimate]:
        """Explain-away filter for phantom "echo" estimates.

        Sensors 30-60 units from a strong source read a genuine excess
        whose origin lies outside their fusion disc, which breeds phantom
        weak-source clusters there.  Those clusters are real density modes,
        so they survive mean-shift -- but their local sensor readings are
        fully accounted for by the *other* (stronger) estimates.  Greedily
        accept candidates in decreasing mass order; report a candidate only
        if some sensor near it still shows at least
        ``echo_residual_fraction`` of the candidate's own predicted excess
        after subtracting what the already-accepted estimates put there.
        """
        config = self.config
        if config.echo_residual_fraction <= 0 or not candidates or not self._reading_ema:
            return candidates

        from repro.physics.units import CPM_PER_MICROCURIE

        sensor_xy = np.array(list(self._reading_ema.keys()), dtype=float)
        readings = np.array(list(self._reading_ema.values()), dtype=float)
        observed_excess = np.maximum(readings - config.assumed_background_cpm, 0.0)
        scale = CPM_PER_MICROCURIE * config.assumed_efficiency
        radius = (
            config.echo_sensor_radius
            if config.echo_sensor_radius is not None
            else config.fusion_range
        )

        def predicted_excess(x: float, y: float, strength: float) -> np.ndarray:
            d_sq = (sensor_xy[:, 0] - x) ** 2 + (sensor_xy[:, 1] - y) ** 2
            return scale * strength / (1.0 + d_sq)

        # Absolute vouching floor: the unexplained excess must clear the
        # Poisson noise of the background, or a weak candidate's tiny
        # predicted excess would make any 1-2 count fluctuation look like
        # full support.
        noise_floor = config.echo_noise_sigmas * np.sqrt(
            max(config.assumed_background_cpm, 1.0)
        )

        accepted: List[SourceEstimate] = []
        explained = np.zeros(len(sensor_xy))
        for candidate in sorted(candidates, key=lambda e: e.mass, reverse=True):
            own = predicted_excess(candidate.x, candidate.y, candidate.strength)
            d_sq = (
                (sensor_xy[:, 0] - candidate.x) ** 2
                + (sensor_xy[:, 1] - candidate.y) ** 2
            )
            nearby = d_sq <= radius * radius
            if not np.any(nearby):
                # No sensor can vouch either way; report it (coverage gaps
                # should not silently hide sources).
                accepted.append(candidate)
                continue
            residual = observed_excess[nearby] - explained[nearby]
            # Unexplained fraction of each nearby sensor's excess.  An echo
            # has ~0 everywhere (stronger accepted estimates already
            # account for its signal); a true source shows ~1 at its own
            # sensors.  Normalizing by the *observed* excess (not the
            # candidate's own prediction) keeps the test meaningful when a
            # candidate sits almost on top of a sensor.
            support = residual / np.maximum(observed_excess[nearby], 1e-12)
            vouched = (support >= config.echo_residual_fraction) & (
                residual >= noise_floor
            )
            if bool(vouched.any()):
                accepted.append(candidate)
                explained = explained + own
        # Preserve the candidate order (by mass) for reporting stability.
        return accepted

    def estimated_source_count(self) -> int:
        """The learned K: how many sources the localizer currently believes in."""
        return len(self.estimates())

    # --- checkpoint support -----------------------------------------------------

    def export_state(self) -> dict:
        """Complete filter state for checkpointing.

        Returns ``{"meta": <JSON-safe dict>, "arrays": <name -> ndarray>}``.
        Everything a restored localizer needs to continue **bitwise
        identically** is captured: the particle arrays and revision
        counters, the RNG bit-generator state (so no reseeding), the
        interference and reading-EMA caches, and the revision-keyed
        estimate cache (dropping it would change *when* the next
        mean-shift extraction runs, and therefore the RNG stream).
        """
        import dataclasses

        particles = self.particles.export_state()
        arrays = {
            "xs": particles["xs"],
            "ys": particles["ys"],
            "strengths": particles["strengths"],
            "weights": particles["weights"],
            "interference_sources": self._interference_sources.copy(),
        }
        cache = None
        if self._estimate_cache is not None:
            cache = {
                "revision": self._estimate_cache[0],
                "candidates": [
                    dataclasses.asdict(e) for e in self._estimate_cache[1]
                ],
            }
        meta = {
            "iteration": self.iteration,
            "last_touched": self.last_touched,
            "particle_revision": particles["revision"],
            "particle_position_revision": particles["position_revision"],
            "interference_age": self._interference_age,
            # Insertion order is load-bearing: the echo filter builds its
            # sensor arrays straight from this dict's iteration order.
            "reading_ema": [
                [key[0], key[1], value] for key, value in self._reading_ema.items()
            ],
            "estimate_cache": cache,
            "rng_state": self.rng.bit_generator.state,
            # The backend that produced this state: a restore under a
            # different one cannot be bitwise-reproducible (the session
            # layer warns, or raises under --strict-backend).
            "backend": self.backend.describe(),
        }
        # Integrity state only when the layer is on: a vanilla localizer's
        # checkpoint document stays byte-for-byte what it always was.
        if self.credibility is not None:
            arrays["credibility_sources"] = self._credibility_sources.copy()
            meta["credibility_age"] = self._credibility_age
            meta["credibility"] = self.credibility.export_state()
        return {"meta": meta, "arrays": arrays}

    @classmethod
    def from_state(
        cls,
        config: LocalizerConfig,
        state: dict,
        fusion_policy: Optional[FusionRangePolicy] = None,
        movement_model: Optional[MovementModel] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "MultiSourceLocalizer":
        """Rebuild a localizer from :meth:`export_state` output."""
        meta = state["meta"]
        arrays = state["arrays"]
        particles = ParticleSet.from_state(
            {
                "xs": arrays["xs"],
                "ys": arrays["ys"],
                "strengths": arrays["strengths"],
                "weights": arrays["weights"],
                "revision": meta["particle_revision"],
                "position_revision": meta["particle_position_revision"],
            }
        )
        rng_state = meta["rng_state"]
        rng = np.random.default_rng()
        if rng.bit_generator.state["bit_generator"] != rng_state["bit_generator"]:
            raise ValueError(
                f"checkpointed RNG is {rng_state['bit_generator']!r}, this "
                f"runtime uses {rng.bit_generator.state['bit_generator']!r}"
            )
        rng.bit_generator.state = rng_state
        localizer = cls(
            config,
            fusion_policy=fusion_policy,
            rng=rng,
            movement_model=movement_model,
            particles=particles,
            tracer=tracer,
            metrics=metrics,
        )
        recorded = meta.get("backend")
        if recorded is not None and recorded.get("name") != localizer.backend.name:
            logger.warning(
                "checkpoint was written by backend %r (%s); restoring under "
                "%r (%s) -- resumed results will not be bitwise-reproducible",
                recorded.get("name"),
                recorded.get("dtype"),
                localizer.backend.name,
                localizer.backend.dtype,
            )
        localizer.iteration = int(meta["iteration"])
        localizer.last_touched = int(meta["last_touched"])
        localizer._interference_sources = np.asarray(
            arrays["interference_sources"], dtype=float
        ).reshape(-1, 3)
        localizer._interference_age = int(meta["interference_age"])
        localizer._reading_ema = {
            (row[0], row[1]): row[2] for row in meta["reading_ema"]
        }
        cache = meta.get("estimate_cache")
        if cache is not None:
            localizer._estimate_cache = (
                int(cache["revision"]),
                [SourceEstimate(**e) for e in cache["candidates"]],
            )
        credibility_state = meta.get("credibility")
        if credibility_state is not None and localizer.credibility is not None:
            localizer.credibility.load_state(credibility_state)
            localizer._credibility_age = int(meta.get("credibility_age", 0))
            if "credibility_sources" in arrays:
                localizer._credibility_sources = np.asarray(
                    arrays["credibility_sources"], dtype=float
                ).reshape(-1, 3)
        return localizer

    # --- diagnostics -----------------------------------------------------------

    def particle_snapshot(self) -> ParticleSet:
        """A defensive copy of the population (for plotting / inspection)."""
        return self.particles.copy()

    def effective_sample_size(self) -> float:
        return self.particles.effective_sample_size()

    def __repr__(self) -> str:
        return (
            f"MultiSourceLocalizer(iteration={self.iteration}, "
            f"particles={len(self.particles)}, "
            f"fusion={self.fusion_policy!r})"
        )
