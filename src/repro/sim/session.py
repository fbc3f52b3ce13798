"""Incrementally-driven localizer sessions with checkpoint/restore.

A :class:`LocalizerSession` is the stateful heart of a simulation run: it
owns the ground-truth network, the transport stream, the localizer and the
convergence monitor, and advances **one time step at a time**.  It pulls
measurements on demand (:meth:`step`), which makes three things possible:

* **interleaving** -- callers can inspect estimates, inject faults, or
  mutate the world between steps;
* **checkpointing** -- :meth:`export_state` captures *complete* run state
  (particle arrays, weights, revision counters, RNG bit-generator states,
  in-flight transport messages, fusion policy, monitor history, step
  records) into a document that :func:`~repro.sim.serialization.save_checkpoint`
  persists as JSON + ``.npz``;
* **resume parity** -- a run checkpointed at step ``t`` and restored (even
  in a fresh process) emits **bitwise-identical** remaining
  :class:`~repro.sim.results.StepRecord` entries to the uninterrupted run.
  Nothing is reseeded on restore; every generator resumes mid-stream.

The parity contract constrains the implementation in non-obvious ways:
the localizer's revision-keyed estimate cache is checkpointed (a restore
that dropped it would recompute estimates at a different point in the
filter RNG stream), the echo filter's EMA dict round-trips in insertion
order, and the transport event queue's tiebreak counter survives so
simultaneous arrivals keep their order.

A :class:`SessionSpec` is the one way every entry point builds a session
(CLI, repeated runs, sweep cells, replay, serve shards): a frozen,
JSON-round-trippable value whose :meth:`SessionSpec.open` resumes from the
spec's checkpoint when that file exists and opens fresh otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import BACKEND_NAMES
from repro.core.diagnostics import ConvergenceMonitor, population_health
from repro.core.fusion import FusionRangePolicy
from repro.core.localizer import MultiSourceLocalizer
from repro.eval.metrics import MATCH_RADIUS, evaluate_step
from repro.obs.flight import FlightRecorder
from repro.obs.ledger import Ledger, manifest_from_result
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.sinks import TeeSink
from repro.obs.timers import Stopwatch
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.results import RunResult, StepRecord
from repro.sim.rng import export_rng_state, spawn_rngs
from repro.sim.scenario import Scenario
from repro.sim.serialization import (
    CheckpointError,
    fusion_policy_from_dict,
    fusion_policy_to_dict,
    load_checkpoint,
    save_checkpoint,
    scenario_from_dict,
    scenario_to_dict,
    step_record_from_dict,
    step_record_to_dict,
)
from repro.streams.recorder import Recorder
from repro.streams.source import (
    FileReplaySource,
    MeasurementSource,
    SimulatorSource,
)

logger = logging.getLogger(__name__)

#: Convergence: every estimate moves less than this many length units ...
CONVERGENCE_TOLERANCE = 3.0
#: ... for this many consecutive steps.
CONVERGENCE_CHECKS = 3

#: A flight-armed session dumps once (reason ``quarantine_storm``) when at
#: least this share of its sensors is quarantined at the same time.
FLIGHT_STORM_FRACTION = 0.25

#: Session options this build no longer has, each with the one value it
#: hard-wires.  Checkpoints written before they were retired carry them:
#: at exactly these values they still load; any other value asks for
#: behaviour this build cannot give, so restoring raises CheckpointError.
RETIRED_SESSION_KEYS: Dict[str, Any] = {
    "match_radius": MATCH_RADIUS,
    "record_health": True,
    "convergence_tolerance": CONVERGENCE_TOLERANCE,
    "convergence_checks": CONVERGENCE_CHECKS,
}


def with_config(
    scenario: Scenario,
    backend: Optional[str] = None,
    integrity: bool = False,
    n_particles: Optional[int] = None,
) -> Scenario:
    """``scenario`` with its localizer config fields overridden.

    The one override path fresh opens and resumes share; a resume passes
    ``backend`` only (a restored population cannot change size or grow
    an integrity layer mid-run).
    """
    changes: Dict[str, Any] = {}
    if backend is not None:
        changes["backend"] = backend
    if integrity:
        changes["integrity_enabled"] = True
    if n_particles is not None:
        changes["n_particles"] = n_particles
    if not changes:
        return scenario
    return dataclasses.replace(
        scenario,
        localizer_config=scenario.localizer_config.with_overrides(**changes),
    )


class LocalizerSession:
    """One scenario run, advanced step-by-step and snapshotable at any step.

    Build one with :meth:`SessionSpec.open`.  Construction runs RNG
    fan-out (:func:`~repro.sim.rng.spawn_rngs`), network construction,
    localizer initialization (which consumes the filter RNG), and
    transport stream opening, in that order.  The ordering is part of the
    determinism contract -- do not reorder it.

    ``checkpoint_every``/``checkpoint_path`` arm automatic checkpointing:
    every ``checkpoint_every`` completed steps the full state is written
    to ``checkpoint_path`` (overwriting the previous snapshot).
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int = 0,
        fusion_policy: Optional[FusionRangePolicy] = None,
        snapshot_steps: Sequence[int] = (),
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        run_index: Optional[int] = None,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str | Path] = None,
        ledger: Optional[Ledger] = None,
        manifest_name: Optional[str] = None,
        flight_path: Optional[str | Path] = None,
        source: Optional[MeasurementSource] = None,
        record_path: Optional[str | Path] = None,
        record_stream_id: Optional[str] = None,
    ):
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every > 0 and checkpoint_path is None:
            raise ValueError("checkpoint_every > 0 requires a checkpoint_path")
        self.scenario = scenario
        self.seed = seed
        self.fusion_policy = fusion_policy
        self.snapshot_steps = set(snapshot_steps)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        #: Run ledger (None = no manifest emission, the zero-cost default).
        self.ledger = ledger
        self.manifest_name = manifest_name
        # Flight recorder: a bounded ring of the last N trace events,
        # dumped to flight_path on unhandled exception, CheckpointError,
        # or quarantine storm.  Tees off the caller's sink (or becomes
        # the sole sink, which force-enables tracing for this session).
        self.flight_path = Path(flight_path) if flight_path is not None else None
        self.flight: Optional[FlightRecorder] = None
        self._storm_dumped = False
        if self.flight_path is not None:
            self.flight = FlightRecorder()
            if self.tracer.enabled:
                self.tracer = Tracer(TeeSink(self.tracer.sink, self.flight))
            else:
                self.tracer = Tracer(self.flight)
        self.run_index = run_index
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )

        measurement_rng, transport_rng, filter_rng = spawn_rngs(seed, 3)
        self.measurement_rng = measurement_rng
        self.transport_rng = transport_rng
        # The ingestion seam: every raw batch comes from a
        # MeasurementSource.  The default wraps the in-process simulator
        # bitwise-identically (construction consumes no RNG draws, so the
        # RNG fan-out -> localizer-init ordering above is preserved);
        # replay sources feed the same downstream pipeline from a file or
        # socket.
        if source is None:
            source = SimulatorSource(scenario, measurement_rng)
        self.source = source
        available = source.n_time_steps
        if available is not None and available < scenario.n_time_steps:
            raise ValueError(
                f"source supplies {available} time steps but scenario "
                f"{scenario.name!r} needs {scenario.n_time_steps}"
            )
        self.recorder: Optional[Recorder] = None
        if record_path is not None:
            self.recorder = Recorder.for_scenario(
                record_path,
                scenario,
                seed,
                stream_id=record_stream_id,
            )
            source.recorder = self.recorder
        self.localizer = MultiSourceLocalizer(
            scenario.localizer_config,
            fusion_policy=fusion_policy,
            rng=filter_rng,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.monitor = ConvergenceMonitor(
            CONVERGENCE_TOLERANCE, CONVERGENCE_CHECKS
        )
        self.stream = scenario.delivery.open_stream(transport_rng)
        # Fault injector (scenario.faults): applied by the source between
        # the raw read and stream.push (after the record tee, so stream
        # files hold pre-fault data).  Its RNG derives from
        # (schedule.seed, run seed) independently of the spawn_rngs
        # fan-out, so an absent/empty schedule leaves every session
        # stream untouched -- including replayed ones.
        self.injector = (
            scenario.faults.injector(
                seed, tracer=self.tracer, metrics=self.metrics
            )
            if scenario.faults
            else None
        )
        source.injector = self.injector

        self.step_index = 0
        self.records: List[StepRecord] = []
        self._total_seconds = 0.0
        self._started = False
        self._finished = False

    # --- lifecycle --------------------------------------------------------------

    @property
    def network(self):
        """The ground-truth :class:`SensorNetwork` (simulator sources only).

        Replay sources have no simulator behind them; this is ``None``
        for them.
        """
        return getattr(self.source, "network", None)

    @property
    def finished(self) -> bool:
        """True once the final step (and the straggler tail) is processed."""
        return self._finished

    def step(self) -> StepRecord:
        """Advance one time step; returns the step's record.

        The final call additionally drains the transport stream's
        straggler tail and folds it into the last record (matching the
        legacy runner's semantics), then emits ``run_end``.

        With a flight recorder armed (``flight_path``), any exception
        escaping the step -- including a :class:`CheckpointError` from the
        automatic snapshot -- dumps the last N trace events to the
        ``*.flight.json`` artifact before propagating, and a quarantine
        storm (at least :data:`FLIGHT_STORM_FRACTION` of the sensors
        quarantined at once) dumps once without interrupting the run.
        """
        if self.flight is None:
            return self._step()
        try:
            record = self._step()
        except Exception as exc:
            reason = (
                "checkpoint_error"
                if isinstance(exc, CheckpointError)
                else "exception"
            )
            self.flight.dump(
                self.flight_path, reason, exception=exc,
                context=self._flight_context(),
            )
            raise
        self._check_quarantine_storm()
        return record

    def _step(self) -> StepRecord:
        if self._finished:
            raise RuntimeError(
                f"session for {self.scenario.name!r} already finished "
                f"({self.step_index} steps)"
            )
        self._ensure_started()
        scenario = self.scenario
        step = self.step_index
        generated = self.source.measure(step)
        batch = self.stream.push(generated)
        elapsed = self._consume(batch)
        record = self._record(step, len(batch), elapsed / max(1, len(batch)))
        self.records.append(record)
        self._emit_step(step, len(batch), elapsed, record)
        self.step_index += 1
        if self.step_index >= scenario.n_time_steps:
            self._drain_tail()
            self._finish()
            return self.records[-1]
        if (
            self.checkpoint_every > 0
            and self.step_index % self.checkpoint_every == 0
        ):
            self.save_checkpoint(self.checkpoint_path)
        return record

    def run(self) -> RunResult:
        """Drive the session to completion and return the run result."""
        while not self._finished:
            self.step()
        return self.result()

    def result(self) -> RunResult:
        """The run result accumulated so far (complete once finished)."""
        return RunResult(
            scenario_name=self.scenario.name,
            source_labels=[
                s.label or f"Source {i + 1}"
                for i, s in enumerate(self.scenario.sources)
            ],
            steps=list(self.records),
        )

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        scenario = self.scenario
        logger.info(
            "run start: scenario=%s seed=%d sensors=%d steps=%d particles=%d",
            scenario.name, self.seed, len(scenario.sensors),
            scenario.n_time_steps, scenario.localizer_config.n_particles,
        )
        backend = self.localizer.backend.describe()
        self.tracer.emit(
            "run_start",
            scenario=scenario.name,
            seed=self.seed,
            run_index=self.run_index,
            n_sensors=len(scenario.sensors),
            n_steps=scenario.n_time_steps,
            n_particles=scenario.localizer_config.n_particles,
            backend=backend["name"],
            backend_dtype=backend["dtype"],
        )

    def _drain_tail(self) -> None:
        """Fold an out-of-order link's stragglers into the final record."""
        tail = self.stream.drain()
        if not tail:
            return
        self._consume(tail)
        if self.records:
            self.records[-1] = self._record(
                self.scenario.n_time_steps - 1, len(tail), 0.0
            )

    def _finish(self) -> None:
        self._finished = True
        scenario = self.scenario
        logger.info(
            "run end: scenario=%s seed=%d iterations=%d converged_at=%s "
            "total=%.3fs",
            scenario.name, self.seed, self.localizer.iteration,
            self.monitor.converged_at, self._total_seconds,
        )
        self.tracer.emit(
            "run_end",
            scenario=scenario.name,
            seed=self.seed,
            run_index=self.run_index,
            n_iterations=self.localizer.iteration,
            converged_at=self.monitor.converged_at,
            total_seconds=self._total_seconds,
        )
        if self.metrics.enabled:
            self.metrics.counter("runner.runs").inc()
            self.metrics.histogram("runner.run_seconds").observe(
                self._total_seconds
            )
        # Finalize the recording (and its digest) before the manifest is
        # built, so the ledger entry pins the completed stream's sha256.
        if self.recorder is not None:
            sha = self.recorder.close()
            self.tracer.emit(
                "stream_recorded",
                path=str(self.recorder.path),
                stream_id=self.recorder.stream_id,
                sha256=sha,
                steps=self.recorder.steps_written,
            )
        if self.ledger is not None:
            manifest = self.manifest()
            self.ledger.append(manifest)
            if self.metrics.enabled:
                self.metrics.counter("ledger.appends").inc()

    def manifest(self):
        """The run's ledger manifest (callable any time; final at finish).

        Replayed runs carry their stream identity (``stream_id`` +
        ``stream_sha256``) in the context, which is what lets the trend
        observatory separate live from replayed history and key golden
        streams; recorded runs pin the stream they produced as
        ``recorded_stream_id``/``recorded_stream_sha256``.  Every manifest
        carries :meth:`spec_sha256`, so equal hashes across entry points
        name the same run.
        """
        context = {
            **(
                {"run_index": self.run_index}
                if self.run_index is not None
                else {}
            ),
            "backend": self.localizer.backend.describe()["name"],
            "backend_dtype": self.localizer.backend.describe()["dtype"],
        }
        source_info = self.source.describe()
        if source_info.get("kind") != "simulator":
            context["source_kind"] = source_info["kind"]
            if "stream_id" in source_info:
                context["stream_id"] = source_info["stream_id"]
            if "stream_sha256" in source_info:
                context["stream_sha256"] = source_info["stream_sha256"]
        if self.recorder is not None:
            context["recorded_stream_id"] = self.recorder.stream_id
            if self.recorder.sha256 is not None:
                context["recorded_stream_sha256"] = self.recorder.sha256
        context["spec_sha256"] = self.spec_sha256()
        return manifest_from_result(
            self.result(),
            kind="session",
            name=self.manifest_name or self.scenario.name,
            seeds=[self.seed],
            scenario=self.scenario,
            wall_seconds=self._total_seconds,
            context=context,
        )

    def spec_sha256(self) -> str:
        """SHA-256 of the resolved spec fields that determine the records.

        Covers the scenario (backend, faults and integrity included), the
        seed, the fusion policy, the snapshot steps, the array backend
        that actually runs, and the replayed stream's bytes.  Paths,
        cadences, the repeat index and every observability attachment are
        left out, so a run hashes the same whichever entry point built
        it.
        """
        doc = {
            "scenario": scenario_to_dict(self.scenario),
            "seed": self.seed,
            "fusion_policy": fusion_policy_to_dict(self.fusion_policy),
            "snapshot_steps": sorted(self.snapshot_steps),
            "backend": self.localizer.backend.describe()["name"],
            "stream_sha256": self.source.describe().get("stream_sha256"),
        }
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def _flight_context(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "seed": self.seed,
            "run_index": self.run_index,
            "step_index": self.step_index,
        }

    def _check_quarantine_storm(self) -> None:
        """Dump the flight ring (once) when quarantines cross the storm bar."""
        if self._storm_dumped or self.flight is None:
            return
        credibility = self.localizer.credibility
        if credibility is None:
            return
        n_sensors = max(1, len(self.scenario.sensors))
        threshold = max(2.0, FLIGHT_STORM_FRACTION * n_sensors)
        quarantined = len(credibility.quarantined_ids())
        if quarantined >= threshold:
            self._storm_dumped = True
            self.flight.dump(
                self.flight_path,
                "quarantine_storm",
                context={
                    **self._flight_context(),
                    "quarantined": quarantined,
                    "n_sensors": n_sensors,
                },
            )

    # --- per-step internals -----------------------------------------------------

    def _consume(self, batch) -> float:
        watch = Stopwatch().start()
        # One fused weight update per delivery batch under an accelerated
        # backend; the default backend loops observe() inside, bitwise.
        self.localizer.observe_batch(list(batch))
        elapsed = watch.stop()
        self._total_seconds += elapsed
        return elapsed

    def _record(
        self, step: int, n_measurements: int, per_iteration_seconds: float
    ) -> StepRecord:
        estimates = self.localizer.estimates()
        metrics = evaluate_step(
            step,
            self.scenario.sources,
            estimates,
        )
        snapshot = (
            self.localizer.particle_snapshot()
            if step in self.snapshot_steps
            else None
        )
        health = population_health(self.localizer)
        converged = self.monitor.update(estimates)
        return StepRecord(
            metrics=metrics,
            estimates=estimates,
            mean_iteration_seconds=per_iteration_seconds,
            n_measurements=n_measurements,
            snapshot=snapshot,
            health=health,
            converged=converged,
        )

    def _emit_step(
        self, step: int, n_measurements: int, elapsed: float, record: StepRecord
    ) -> None:
        if not self.tracer.enabled:
            return
        health = record.health
        health_fields = (
            {
                "ess": health.effective_sample_size,
                "ess_fraction": health.ess_fraction,
                "spatial_spread": health.spatial_spread,
                "strength_median": health.strength_median,
                "strength_iqr": health.strength_iqr,
            }
            if health is not None
            else {}
        )
        self.tracer.emit(
            "step",
            step=step,
            n_measurements=n_measurements,
            elapsed_seconds=elapsed,
            n_estimates=len(record.estimates),
            false_positives=record.metrics.false_positives,
            false_negatives=record.metrics.false_negatives,
            converged=record.converged,
            **health_fields,
        )

    # --- checkpoint / restore ---------------------------------------------------

    def export_state(self) -> dict:
        """Complete session state as a checkpoint document.

        JSON-safe throughout except ``state["arrays"]``, a flat dict of
        ndarrays destined for the ``.npz`` sidecar (see
        :func:`~repro.sim.serialization.save_checkpoint`).
        """
        localizer_state = self.localizer.export_state()
        arrays = {
            f"localizer.{name}": array
            for name, array in localizer_state["arrays"].items()
        }
        state = {
            "session": {
                "scenario": scenario_to_dict(self.scenario),
                "seed": self.seed,
                "run_index": self.run_index,
                "manifest_name": self.manifest_name,
                "fusion_policy": fusion_policy_to_dict(self.fusion_policy),
                "snapshot_steps": sorted(self.snapshot_steps),
                "step_index": self.step_index,
                "finished": self._finished,
                "started": self._started,
                "total_seconds": self._total_seconds,
                "records": [step_record_to_dict(r) for r in self.records],
            },
            "transport": {
                "rng": export_rng_state(self.transport_rng),
                "stream": self.stream.export_state(),
            },
            "localizer": localizer_state["meta"],
            "monitor": self.monitor.export_state(),
            "arrays": arrays,
        }
        # Source cursor.  Simulator cursors keep the pre-source layout
        # under "network" ({"sequence", "measurement_rng"}) so existing
        # checkpoints restore byte-for-byte; replay cursors go under
        # "source" (stream id + sha256 + next batch index).
        if isinstance(self.source, SimulatorSource):
            state["network"] = self.source.export_cursor()
        else:
            state["source"] = self.source.export_cursor()
        # Fault-injector state only when a schedule is attached, so
        # fault-free checkpoint documents are unchanged.
        if self.injector is not None:
            state["faults"] = self.injector.export_state()
        return state

    @classmethod
    def from_state(
        cls,
        state: dict,
        spec: Optional["SessionSpec"] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        ledger: Optional[Ledger] = None,
    ) -> "LocalizerSession":
        """Rebuild a session from :meth:`export_state` output.

        The restored session continues exactly where the exported one
        stopped: no RNG is reseeded, the transport queue resumes with its
        in-flight messages, and ``run_start`` is *not* re-emitted.
        Observability attachments (tracer, metrics, ledger, flight
        recorder) are runtime concerns, not run state -- they are never
        checkpointed and must be re-supplied on restore.

        ``spec`` supplies what the checkpoint does not fix (cadence and
        path, flight path, ``backend`` and ``strict_backend``, a moved
        ``stream_path``); its scenario and seed are ignored.

        A replayed session's checkpoint carries its stream cursor
        (``state["source"]``): the stream file is reopened -- from
        ``spec.stream_path`` if given, else the recorded location --
        verified against the pinned SHA-256, and resumed at the next
        batch, so mid-stream resume is bitwise too.

        ``strict_backend=True`` turns the backend-mismatch warning (the
        checkpoint records which array backend wrote it; restoring under
        a different one forfeits bitwise resume parity) into a
        :class:`~repro.sim.serialization.CheckpointError`.
        """
        spec = spec if spec is not None else SessionSpec()
        doc = state["session"]
        for key, expected in RETIRED_SESSION_KEYS.items():
            value = doc.get(key, expected)
            if type(value) is not type(expected) or value != expected:
                raise CheckpointError(
                    f"checkpoint session key {key!r} is retired; this build "
                    f"hard-wires {expected!r}, got {value!r}"
                )
        scenario = with_config(
            scenario_from_dict(doc["scenario"]), backend=spec.backend
        )
        recorded_backend = (state.get("localizer") or {}).get("backend")
        if spec.strict_backend and recorded_backend is not None:
            from repro.core.backend import get_backend

            active = get_backend(scenario.localizer_config.backend).describe()
            if recorded_backend.get("name") != active["name"]:
                raise CheckpointError(
                    f"checkpoint was written by backend "
                    f"{recorded_backend.get('name')!r} "
                    f"({recorded_backend.get('dtype')}) but would restore "
                    f"under {active['name']!r} ({active['dtype']}); pass "
                    f"strict_backend=False to accept non-bitwise resume"
                )
        source = (
            FileReplaySource.from_cursor(state["source"], path=spec.stream_path)
            if "source" in state
            else None
        )
        session = cls(
            scenario,
            seed=doc["seed"],
            fusion_policy=fusion_policy_from_dict(doc["fusion_policy"]),
            snapshot_steps=doc["snapshot_steps"],
            tracer=tracer,
            metrics=metrics,
            run_index=doc["run_index"],
            checkpoint_every=spec.checkpoint_every,
            checkpoint_path=spec.checkpoint_path,
            ledger=ledger,
            manifest_name=spec.manifest_name or doc.get("manifest_name"),
            flight_path=spec.flight_path,
            source=source,
        )
        if source is None:
            session.source.load_cursor(state["network"])
        session.transport_rng.bit_generator.state = state["transport"]["rng"]
        session.stream.load_state(state["transport"]["stream"])
        faults_state = state.get("faults")
        if faults_state is not None and session.injector is not None:
            session.injector.load_state(faults_state)
        localizer_arrays = {
            name.split(".", 1)[1]: array
            for name, array in state["arrays"].items()
            if name.startswith("localizer.")
        }
        session.localizer = MultiSourceLocalizer.from_state(
            scenario.localizer_config,
            {"meta": state["localizer"], "arrays": localizer_arrays},
            fusion_policy=session.fusion_policy,
            tracer=session.tracer,
            metrics=session.metrics,
        )
        session.monitor = ConvergenceMonitor.from_state(state["monitor"])
        session.records = [step_record_from_dict(r) for r in doc["records"]]
        session.step_index = int(doc["step_index"])
        session._finished = bool(doc["finished"])
        session._started = bool(doc["started"])
        session._total_seconds = float(doc["total_seconds"])
        return session

    def save_checkpoint(self, path: str | Path) -> int:
        """Write the session state to ``path`` (plus an ``.npz`` sidecar).

        Emits a ``checkpoint`` trace event and bumps the
        ``checkpoint.writes`` / ``checkpoint.bytes`` counters.  Returns
        the number of bytes written.
        """
        watch = Stopwatch().start()
        nbytes = save_checkpoint(self.export_state(), path)
        seconds = watch.stop()
        self.tracer.emit(
            "checkpoint",
            step=self.step_index,
            path=str(path),
            bytes=nbytes,
            seconds=seconds,
        )
        if self.metrics.enabled:
            self.metrics.counter("checkpoint.writes").inc()
            self.metrics.counter("checkpoint.bytes").inc(nbytes)
        return nbytes


#: SessionSpec fields with a scalar JSON value, and that value's type.
_SCALAR_FIELDS: Dict[str, type] = {
    **dict.fromkeys(("seed", "n_particles", "run_index", "checkpoint_every"), int),
    **dict.fromkeys(("stream_path", "backend", "checkpoint_path", "flight_path",
                     "record_path", "record_stream_id", "manifest_name"), str),
    "strict_backend": bool,
}
_PATH_FIELDS = ("stream_path", "checkpoint_path", "flight_path", "record_path")


@dataclass(frozen=True)
class SessionSpec:
    """Everything that builds one session, as one frozen JSON-safe value.

    What runs: a ``scenario`` to simulate, or a ``stream_path`` to replay
    (under ``scenario`` if given -- it may ask for fewer steps than the
    file holds -- else the stream header's); the ``seed`` (default: the
    header's, else 0); a ``fusion_policy``; ``snapshot_steps`` whose
    particle population lands in the step record; a ``backend`` override
    (also applied on resume); an ``n_particles`` override (fresh opens
    only).  Around it: the ``run_index`` within a repeated run,
    ``checkpoint_path``/``checkpoint_every``, ``strict_backend`` (refuse
    a resume under another backend), ``flight_path``,
    ``record_path``/``record_stream_id`` (tee the raw batches to a stream
    file) and the ledger ``manifest_name`` (default: scenario name).

    :meth:`open` applies the one rule every entry point shares: if the
    spec's checkpoint file exists the session resumes from it, otherwise
    it opens fresh.  Tracer, metrics and ledger are arguments of
    :meth:`open`, not fields: they are attachments, not run state.
    """

    scenario: Optional[Scenario] = None
    stream_path: Optional[str] = None
    seed: Optional[int] = None
    fusion_policy: Optional[FusionRangePolicy] = None
    snapshot_steps: Tuple[int, ...] = ()
    backend: Optional[str] = None
    n_particles: Optional[int] = None
    run_index: Optional[int] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 0
    strict_backend: bool = False
    flight_path: Optional[str] = None
    record_path: Optional[str] = None
    record_stream_id: Optional[str] = None
    manifest_name: Optional[str] = None

    def __post_init__(self) -> None:
        for name in _PATH_FIELDS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, str(value))
        object.__setattr__(
            self, "snapshot_steps", tuple(int(s) for s in self.snapshot_steps)
        )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be None or one of {', '.join(BACKEND_NAMES)}, "
                f"got {self.backend!r}"
            )
        if self.n_particles is not None and self.n_particles < 1:
            raise ValueError(f"n_particles must be >= 1, got {self.n_particles}")

    # --- JSON round trip ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-safe document (:meth:`from_dict` inverts it)."""
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        doc["scenario"] = (
            None if self.scenario is None else scenario_to_dict(self.scenario)
        )
        doc["fusion_policy"] = (
            None
            if self.fusion_policy is None
            else fusion_policy_to_dict(self.fusion_policy)
        )
        doc["snapshot_steps"] = list(self.snapshot_steps)
        return doc

    @classmethod
    def from_dict(cls, doc: Any) -> "SessionSpec":
        """Parse a spec document; any malformed input raises ``ValueError``.

        Unknown keys, wrongly typed values and unparsable scenario or
        fusion-policy documents are all rejected before anything opens.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"a session spec is a JSON object, got {doc!r}")
        unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown session spec key(s) {unknown}")
        kwargs = dict(doc)
        for key, parse in (
            ("scenario", scenario_from_dict),
            ("fusion_policy", fusion_policy_from_dict),
        ):
            if kwargs.get(key) is not None:
                try:
                    kwargs[key] = parse(kwargs[key])
                except (AttributeError, CheckpointError, KeyError,
                        TypeError, ValueError) as exc:
                    raise ValueError(f"bad session spec {key!r}: {exc!r}")
        steps = kwargs.get("snapshot_steps", [])
        if not isinstance(steps, list) or any(type(v) is not int for v in steps):
            raise ValueError(f"bad session spec 'snapshot_steps': {steps!r}")
        for key, expected in _SCALAR_FIELDS.items():
            value = kwargs.get(key)
            optional = key not in ("checkpoint_every", "strict_backend")
            if key in kwargs and type(value) is not expected and not (
                value is None and optional
            ):
                raise ValueError(
                    f"session spec key {key!r} must be {expected.__name__}, "
                    f"got {value!r}"
                )
        return cls(**kwargs)

    # --- opening -------------------------------------------------------------------

    @property
    def resumable(self) -> bool:
        """True when :meth:`open` will resume (the checkpoint file exists)."""
        return (
            self.checkpoint_path is not None
            and Path(self.checkpoint_path).exists()
        )

    def open(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        ledger: Optional[Ledger] = None,
    ) -> LocalizerSession:
        """The session this spec describes, resumed or fresh.

        If ``checkpoint_path`` exists the session resumes from it (a
        corrupt file raises :class:`CheckpointError`; callers choose
        their own fallback); otherwise it opens fresh.
        """
        if self.resumable:
            return self._resume(tracer, metrics, ledger)
        return self._fresh(tracer, metrics, ledger)

    def _fresh(self, tracer, metrics, ledger) -> LocalizerSession:
        scenario = self.scenario
        seed = self.seed
        source = None
        if self.stream_path is not None:
            # An explicit scenario may replay a prefix of the stream; the
            # session checks the stream holds the steps it asks for.
            source = FileReplaySource(
                self.stream_path, allow_partial=scenario is not None
            )
            if scenario is None:
                scenario = scenario_from_dict(source.header.scenario)
            if seed is None:
                seed = source.header.seed
        elif scenario is None:
            raise ValueError(
                f"nothing to open: the spec names no scenario or stream and "
                f"has no checkpoint at {self.checkpoint_path}"
            )
        return LocalizerSession(
            with_config(
                scenario, backend=self.backend, n_particles=self.n_particles
            ),
            seed=seed if seed is not None else 0,
            fusion_policy=self.fusion_policy,
            snapshot_steps=self.snapshot_steps,
            tracer=tracer,
            metrics=metrics,
            run_index=self.run_index,
            checkpoint_every=self.checkpoint_every,
            checkpoint_path=self.checkpoint_path,
            ledger=ledger,
            manifest_name=self.manifest_name,
            flight_path=self.flight_path,
            source=source,
            record_path=self.record_path,
            record_stream_id=self.record_stream_id,
        )

    def _resume(self, tracer, metrics, ledger) -> LocalizerSession:
        state = load_checkpoint(self.checkpoint_path)
        session = LocalizerSession.from_state(
            state, spec=self, tracer=tracer, metrics=metrics, ledger=ledger
        )
        session.tracer.emit(
            "restore", step=session.step_index, path=self.checkpoint_path
        )
        if session.metrics.enabled:
            session.metrics.counter("checkpoint.restores").inc()
        return session
