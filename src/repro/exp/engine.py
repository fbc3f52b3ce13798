"""The parallel experiment engine: fans sweep cells out to worker processes.

The paper's evaluation protocol repeats every simulation 10 times and
averages; the repeats are mutually independent, so the repeat/sweep axis
is embarrassingly parallel.  This module executes the cells of a
:class:`~repro.exp.spec.SweepSpec` across a persistent
:class:`~repro.core.parallel.WorkerPool` and reassembles the results so
that the outcome is **indistinguishable from the serial loop**:

* each cell's seed comes from the frozen derivation contract in
  :mod:`repro.sim.rng`, so per-run series are bitwise-identical to serial
  execution;
* workers record their trace events into an in-memory sink and their
  metrics into a private registry; the parent replays events and merges
  registries *in cell order*, so a merged trace/metrics stream reads the
  same as a serial run's;
* results cross the process boundary as the JSON-shaped documents of
  :mod:`repro.sim.serialization`.

Failure handling: a cell that times out or dies is retried once on a
rebuilt pool, then falls back to in-process execution; ``workers=0``
skips the pool entirely.  Either way the caller gets every cell's result.

Resumable cells: with ``checkpoint_every=N`` (and a ``checkpoint_dir``)
each cell's session checkpoints its full state every N steps to a
per-cell file.  A retried cell -- crashed worker, broken pool, timeout --
restores from its last checkpoint instead of starting over, and the
resumed remainder is bitwise-identical to what the uninterrupted run
would have produced (see :mod:`repro.sim.session`).

Cross-process telemetry: when the parent traces, every worker attempt
gets a **span id** (``cell-<i>-a<attempt>``) tagged onto its events and
an append-only **spool file** the events are flushed to as they happen.
A cell that dies -- killed worker, timeout, exception -- leaves its
partial event buffer in the spool; the parent recovers it with a lenient
read, replays it (in cell order, like everything else) and emits a
``cell_failure`` event carrying the exception type and traceback.  The
same failure records are returned to the caller as
:class:`CellFailure` entries (``failures=`` accumulator /
``SweepResult.failures``), so no worker death is ever silent.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
import time
import traceback as traceback_module
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.parallel import WorkerPool
from repro.exp.spec import SweepCell, SweepSpec
from repro.obs.ledger import RunManifest
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.sinks import InMemorySink, JsonlSink, TagSink, TeeSink, read_jsonl_lenient
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.results import RepeatedRunResult, RunResult
from repro.sim.rng import retry_backoff_seconds
from repro.sim.serialization import (
    CheckpointError,
    run_result_from_dict,
    run_result_to_dict,
)
from repro.sim.session import LocalizerSession, SessionSpec

logger = logging.getLogger(__name__)


@dataclass
class CellFailure:
    """One failed attempt at a sweep cell, with everything it left behind.

    ``stage`` is ``"worker"`` (first attempt) or ``"retry"`` (second
    attempt on the rebuilt pool); a cell that also fails its retry falls
    back to serial and re-raises there, so at most two failures are
    recorded per cell.  ``partial_records`` holds the span-tagged trace
    events recovered from the attempt's spool file -- whatever the worker
    managed to flush before dying.
    """

    cell_index: int
    attempt: int
    stage: str
    span: str
    exception_type: str
    exception_message: str
    traceback: str
    events_recovered: int = 0
    partial_records: List[dict] = field(default_factory=list, repr=False)

    def to_event(self) -> dict:
        """The fields of the ``cell_failure`` trace event."""
        return {
            "cell": self.cell_index,
            "attempt": self.attempt,
            "stage": self.stage,
            "span": self.span,
            "exception_type": self.exception_type,
            "exception_message": self.exception_message,
            "traceback": self.traceback,
            "events_recovered": self.events_recovered,
        }

    def summary_line(self) -> str:
        return (
            f"cell {self.cell_index} ({self.stage}, attempt {self.attempt}): "
            f"{self.exception_type}: {self.exception_message} "
            f"[{self.events_recovered} events recovered]"
        )


def _spool_path(spool_dir: Optional[str], i: int, attempt: int) -> Optional[str]:
    if spool_dir is None:
        return None
    return str(Path(spool_dir) / f"cell-{i}-a{attempt}.jsonl")


def _capture_failure(
    i: int,
    attempt: int,
    stage: str,
    exc: BaseException,
    timeout: Optional[float],
    spool_path: Optional[str],
) -> CellFailure:
    """Build the failure record for one dead attempt.

    Recovers whatever the worker flushed to its spool before dying; a
    truncated final line (killed mid-write) is skipped by the lenient
    reader, not fatal.
    """
    span = f"cell-{i}-a{attempt}"
    if isinstance(exc, FuturesTimeoutError):
        exc_type = "TimeoutError"
        message = f"cell timed out after {timeout}s"
        tb = ""
    else:
        exc_type = type(exc).__name__
        message = str(exc)
        # format_exception includes the __cause__ chain, which for pool
        # failures carries the remote worker traceback text.
        tb = "".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        )
    records: List[dict] = []
    if spool_path is not None and Path(spool_path).exists():
        records, _ = read_jsonl_lenient(spool_path)
    return CellFailure(
        cell_index=i,
        attempt=attempt,
        stage=stage,
        span=span,
        exception_type=exc_type,
        exception_message=message,
        traceback=tb,
        events_recovered=len(records),
        partial_records=records,
    )


def cell_checkpoint_path(checkpoint_dir: str | Path, cell: SweepCell) -> Path:
    """The per-cell checkpoint file: one per (variant, repeat) coordinate."""
    return Path(checkpoint_dir) / (
        f"cell-v{cell.variant_index}-r{cell.repeat_index}.ckpt.json"
    )


def _open_cell(spec: SessionSpec, tracer, metrics) -> Tuple[LocalizerSession, bool]:
    """``(session, resumed)`` for one cell.

    An unreadable checkpoint is logged and deleted: the cell restarts
    from scratch rather than failing the sweep.
    """
    resumed = spec.resumable
    try:
        return spec.open(tracer, metrics), resumed
    except CheckpointError as exc:
        if not resumed:
            raise
        logger.warning(
            "unusable checkpoint %s (%s); cell restarts from scratch",
            spec.checkpoint_path, exc,
        )
        Path(spec.checkpoint_path).unlink()
        return spec.open(tracer, metrics), False


def _drive_cell(
    payload: dict,
    tracer: Optional[Tracer],
    metrics: Optional[MetricsRegistry],
) -> Tuple[RunResult, dict]:
    """Drive one cell's session to completion: ``(result, manifest doc)``."""
    session, resumed = _open_cell(payload["spec"], tracer, metrics)
    fail_at = payload.get("fail_at_step")
    if fail_at is not None and not resumed:
        # Fault-injection hook for resilience tests: die abruptly (no
        # cleanup, like a kill -9) part-way through a *fresh* cell.  A
        # resumed cell runs clean, which is exactly what the retry path
        # relies on.
        while not session.finished:
            if session.step_index == fail_at:
                os._exit(2)
            session.step()
    else:
        session.run()
    if session.checkpoint_path is not None and session.checkpoint_every > 0:
        # Final snapshot: a crash *after* this point restores to a
        # finished session and returns instantly.
        session.save_checkpoint(session.checkpoint_path)
    return session.result(), session.manifest().to_dict()


def _execute_cell(payload: dict) -> dict:
    """Run one sweep cell; executed inside a worker process.

    Returns a picklable outcome document: the run result as a
    serialization dict, the session manifest, the cell's trace records
    (when the parent traces), and the worker-local metrics registry (when
    the parent aggregates).

    When the payload carries a ``span``/``spool_path``, every event is
    tagged with the span id and *also* flushed line-by-line to the spool
    file, so the parent can recover the partial buffer even if this
    process is killed outright (``kill -9`` / ``os._exit``).
    """
    sink = InMemorySink() if payload["trace"] else None
    chain = sink
    spool = None
    if chain is not None and payload.get("spool_path") is not None:
        spool = JsonlSink(payload["spool_path"], mode="w", autoflush=True)
        chain = TeeSink(chain, spool)
    if chain is not None and payload.get("span") is not None:
        chain = TagSink(chain, span=payload["span"])
    tracer = Tracer(chain) if chain is not None else None
    registry = MetricsRegistry() if payload["metrics"] else None
    try:
        result, manifest = _drive_cell(payload, tracer, registry)
    finally:
        if spool is not None:
            spool.close()
    return {
        "result": run_result_to_dict(result),
        "manifest": manifest,
        "records": sink.records if sink is not None else None,
        "metrics": registry,
    }


def _replay_records(records: Optional[List[dict]], tracer: Tracer) -> None:
    """Re-emit worker trace records through the parent's tracer."""
    if not records:
        return
    for record in records:
        if not isinstance(record, dict) or "type" not in record:
            continue
        fields = {k: v for k, v in record.items() if k not in ("type", "seq")}
        tracer.emit(record["type"], **fields)


def _replay(
    outcome: dict, tracer: Tracer, metrics: MetricsRegistry
) -> Tuple[RunResult, dict]:
    """Fold one worker outcome back into the parent's observability."""
    _replay_records(outcome["records"], tracer)
    if outcome["metrics"] is not None:
        metrics.merge(outcome["metrics"])
    return run_result_from_dict(outcome["result"]), outcome["manifest"]


def run_cells(
    cells: Sequence[SweepCell],
    workers: int = 0,
    timeout: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str | Path] = None,
    failures: Optional[List[CellFailure]] = None,
    manifests: Optional[List[dict]] = None,
    _fault_steps: Optional[Dict[int, int]] = None,
) -> List[RunResult]:
    """Execute sweep cells, returning results in cell order.

    ``workers=0`` (or a single cell) runs serially in-process -- the
    graceful-fallback mode and the reference the parallel path is
    parity-tested against.  With ``workers=N`` the cells fan out to a
    process pool; each cell gets ``timeout`` seconds (``None`` = no
    limit), one retry on a rebuilt pool, and a final in-process fallback,
    so a sick pool degrades to serial execution instead of failing the
    sweep.

    ``checkpoint_every=N`` (requires ``checkpoint_dir``) makes every cell
    resumable: the session snapshots its state every N steps to a
    per-cell file (:func:`cell_checkpoint_path`), and both the retry and
    the serial fallback restore from that file instead of re-running the
    cell from step zero.  ``_fault_steps`` maps cell index to a step at
    which a *fresh* (non-resumed) worker run aborts the whole process --
    the fault-injection hook the resilience tests use; never set it in
    production code.

    ``failures`` (optional accumulator list) receives one
    :class:`CellFailure` per dead attempt, in cell order -- exception
    type, traceback, and the partial trace events recovered from the
    attempt's spool file.  The same information flows into the parent's
    tracer as ``cell_failure`` events.  ``manifests`` (optional
    accumulator list) receives each cell's session manifest document
    (:meth:`LocalizerSession.manifest`), in cell order, for the caller
    to append to a ledger.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = metrics if metrics is not None else NULL_REGISTRY
    cells = list(cells)
    if checkpoint_every > 0 and checkpoint_dir is None:
        raise ValueError("checkpoint_every > 0 requires a checkpoint_dir")
    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
    if metrics.enabled:
        metrics.counter("sweep.cells").inc(len(cells))
    fault_steps = _fault_steps or {}

    payloads = [
        {
            "spec": cell.spec if checkpoint_every <= 0 else replace(
                cell.spec,
                checkpoint_every=checkpoint_every,
                checkpoint_path=cell_checkpoint_path(checkpoint_dir, cell),
            ),
            "trace": tracer.enabled,
            "metrics": metrics.enabled,
            "fail_at_step": fault_steps.get(i),
        }
        for i, cell in enumerate(cells)
    ]

    if workers <= 0 or len(cells) <= 1:
        # Serial path: same session machinery (hence also resumable), the
        # parent's tracer/metrics wired straight in.  Fault injection is a
        # worker-only concept -- it would kill the caller here.
        results = []
        for payload in payloads:
            result, manifest = _drive_cell(
                {**payload, "fail_at_step": None}, tracer, metrics
            )
            results.append(result)
            if manifests is not None:
                manifests.append(manifest)
        return results
    # Each worker attempt spools its events to an append-flushed file so
    # the parent can recover the partial buffer of a killed/hung attempt.
    spool_dir = (
        tempfile.mkdtemp(prefix="repro-spool-") if tracer.enabled else None
    )
    cell_failures: Dict[int, List[CellFailure]] = {}

    def submit(pool: WorkerPool, i: int, attempt: int):
        return pool.submit(
            _execute_cell,
            {
                **payloads[i],
                "span": f"cell-{i}-a{attempt}",
                "spool_path": _spool_path(spool_dir, i, attempt),
            },
        )

    def record_failure(i: int, attempt: int, stage: str, exc: BaseException):
        failure = _capture_failure(
            i, attempt, stage, exc, timeout, _spool_path(spool_dir, i, attempt)
        )
        cell_failures.setdefault(i, []).append(failure)
        if metrics.enabled:
            metrics.counter("sweep.cell_failures").inc()

    outcomes: List[Optional[dict]] = [None] * len(cells)
    try:
        with WorkerPool(workers, tracer=tracer) as pool:
            futures = {
                i: submit(pool, i, attempt=1) for i in range(len(cells))
            }
            failed: List[int] = []
            for i, future in futures.items():
                try:
                    outcomes[i] = future.result(timeout=timeout)
                except FuturesTimeoutError as exc:
                    logger.warning(
                        "sweep cell %d timed out after %ss", i, timeout
                    )
                    record_failure(i, 1, "worker", exc)
                    failed.append(i)
                except Exception as exc:
                    logger.warning("sweep cell %d failed in worker: %r", i, exc)
                    record_failure(i, 1, "worker", exc)
                    failed.append(i)

            if failed:
                # One retry on a fresh pool (stuck workers are terminated) ...
                pool.discard()
                if metrics.enabled:
                    metrics.counter("sweep.retries").inc(len(failed))
                retry_futures = {}
                fallback: List[int] = []
                for i in failed:
                    # Seed-derived stagger (see retry_backoff_seconds): failed
                    # cells re-land on the rebuilt pool spread apart, not as
                    # the same thundering herd that just died together.
                    delay = retry_backoff_seconds(payloads[i]["spec"].seed)
                    logger.info(
                        "sweep cell %d retrying after %.3fs backoff", i, delay
                    )
                    time.sleep(delay)
                    try:
                        retry_futures[i] = submit(pool, i, attempt=2)
                    except Exception as exc:
                        # An earlier retry broke the rebuilt pool before
                        # this cell could even land on it.
                        record_failure(i, 2, "retry", exc)
                        fallback.append(i)
                for i, future in retry_futures.items():
                    try:
                        outcomes[i] = future.result(timeout=timeout)
                    except FuturesTimeoutError as exc:
                        record_failure(i, 2, "retry", exc)
                        fallback.append(i)
                    except Exception as exc:
                        record_failure(i, 2, "retry", exc)
                        fallback.append(i)
                if fallback:
                    # ... then give up on the pool for the stragglers and run
                    # them here.  A deterministic cell error will re-raise now,
                    # in the caller's process, with its real traceback.
                    pool.discard()
                    if metrics.enabled:
                        metrics.counter("sweep.serial_fallbacks").inc(
                            len(fallback)
                        )
                    for i in fallback:
                        logger.warning("sweep cell %d falling back to serial", i)
                        # Never let the fault-injection hook abort the caller.
                        outcomes[i] = _execute_cell(
                            {
                                **payloads[i],
                                "fail_at_step": None,
                                "span": f"cell-{i}-serial",
                            }
                        )

        # Replay in cell order so merged traces and metrics read exactly
        # like a serial run's stream: each cell's recovered partial
        # attempts and their cell_failure events come first, then the
        # attempt that succeeded.
        results: List[RunResult] = []
        for i, outcome in enumerate(outcomes):
            for failure in cell_failures.get(i, ()):
                _replay_records(failure.partial_records, tracer)
                if tracer.enabled:
                    tracer.emit("cell_failure", **failure.to_event())
                if failures is not None:
                    failures.append(failure)
            result, manifest = _replay(outcome, tracer, metrics)
            results.append(result)
            if manifests is not None:
                manifests.append(manifest)
        return results
    finally:
        if spool_dir is not None:
            shutil.rmtree(spool_dir, ignore_errors=True)


@dataclass
class SweepResult:
    """All variants of a sweep, aggregated the way the paper reports them."""

    spec: SweepSpec
    workers: int
    elapsed_seconds: float
    results: Dict[str, RepeatedRunResult] = field(default_factory=dict)
    #: Failed worker attempts (retried or serial-fallback'd, never lost).
    failures: List[CellFailure] = field(default_factory=list)

    def __getitem__(self, variant_name: str) -> RepeatedRunResult:
        return self.results[variant_name]

    def variant_names(self) -> List[str]:
        return list(self.results)

    def __repr__(self) -> str:
        return (
            f"SweepResult({len(self.results)} variants x "
            f"{self.spec.n_repeats} repeats, workers={self.workers}, "
            f"{self.elapsed_seconds:.2f}s)"
        )


def run_sweep(
    spec: SweepSpec,
    workers: int = 0,
    timeout: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str | Path] = None,
    ledger=None,
) -> SweepResult:
    """Execute a full :class:`SweepSpec` and aggregate per variant.

    Worker attempts that died (and were recovered by retry or serial
    fallback) are reported in ``SweepResult.failures`` with exception
    type, traceback and recovered trace events.

    ``ledger`` (a :class:`repro.obs.ledger.Ledger`) appends each cell's
    session manifest as a ``sweep`` entry, parent-side, after all
    results are in -- one series per variant name.
    """
    start = time.perf_counter()
    failures: List[CellFailure] = []
    manifests: List[dict] = []
    runs = run_cells(
        spec.cells(),
        workers=workers,
        timeout=timeout,
        tracer=tracer,
        metrics=metrics,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        failures=failures,
        manifests=manifests,
    )
    elapsed = time.perf_counter() - start
    result = SweepResult(
        spec=spec, workers=workers, elapsed_seconds=elapsed, failures=failures
    )
    for vi, variant in enumerate(spec.variants):
        variant_runs = runs[vi * spec.n_repeats : (vi + 1) * spec.n_repeats]
        result.results[variant.name] = RepeatedRunResult(
            scenario_name=variant.scenario.name,
            source_labels=variant_runs[0].source_labels,
            runs=variant_runs,
        )
    if ledger is not None:
        for doc in manifests:
            ledger.append(RunManifest.from_dict({**doc, "kind": "sweep"}))
    logger.info(
        "sweep done: %d cells, workers=%d, %.2fs", spec.n_cells, workers, elapsed
    )
    return result
