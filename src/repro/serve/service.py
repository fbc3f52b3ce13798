"""The asyncio serving front-end: many sessions, few processes, no hangs.

:class:`LocalizationService` multiplexes hundreds of concurrent
:class:`~repro.sim.session.LocalizerSession` streams over a small set of
*shards* -- each shard one persistent worker process (a
:class:`~repro.core.parallel.WorkerPool` of size 1) hosting its share of
the sessions (see :mod:`repro.serve.shard`).  The supervision tree:

.. code-block:: text

    LocalizationService
      |- AdmissionController      (quotas, rate limits, typed shedding)
      |- BreakerBoard             (per-tenant circuit breakers)
      |- _Shard x N               (asyncio.Lock + WorkerPool(1))
      |     '- ShardHost          (worker-side session registry)
      '- health endpoint          (asyncio TCP, line-JSON)

Failure handling is layered exactly as ISSUE PR 10 prescribes:

* every shard call carries a **deadline** (``step_timeout_seconds``) --
  a wedged worker turns into a typed timeout, never a hang;
* failed calls are **retried** with deterministic seed-derived
  exponential backoff (:func:`repro.serve.breaker.step_backoff_seconds`),
  resurrecting the shard between attempts;
* exhausted retries feed the tenant's **circuit breaker**; a tripped
  breaker quarantines the tenant at admission;
* a killed worker process (``BrokenProcessPool``) triggers
  **resurrection**: the shard pool is discarded (hard-kill deadline) and
  every active session re-opened from its last ``repro-checkpoint v1``
  snapshot -- bitwise-identical continuation by the resume-parity
  contract;
* under sustained pressure the service **degrades gracefully**: a
  session can be stepped down to the ``fast`` backend with a widened
  checkpoint cadence (and, for fresh opens, a reduced particle count),
  each transition recorded in the trace and the service manifest.

Everything observable flows through ``service.*`` metrics
(:mod:`repro.obs.metrics`) and trace events, documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import asyncio
import json
import time
import zlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.parallel import WorkerPool
from repro.obs.ledger import Ledger, RunManifest
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    Admitted,
    Rejected,
)
from repro.serve.breaker import BreakerBoard, step_backoff_seconds
from repro.sim.session import SessionSpec
from repro.serve.shard import (
    ShardHost,
    host_drop,
    host_evict,
    host_list,
    host_open,
    host_pid,
    host_result,
    host_step,
)

__all__ = [
    "LocalizationService",
    "ServiceConfig",
    "SessionHandle",
    "StepFailed",
]

_HOST_FNS = {
    "open": host_open,
    "step": host_step,
    "result": host_result,
    "evict": host_evict,
    "drop": host_drop,
    "list": host_list,
}


class StepFailed(RuntimeError):
    """A session step exhausted its deadline-aware retry budget."""

    def __init__(self, session_id: str, attempts: int, cause: str):
        super().__init__(
            f"session {session_id!r} step failed after {attempts} attempts: "
            f"{cause}"
        )
        self.session_id = session_id
        self.attempts = attempts
        self.cause = cause


@dataclass
class ServiceConfig:
    """Knobs for one :class:`LocalizationService` instance."""

    #: Directory holding every session's ``repro-checkpoint v1`` snapshot.
    checkpoint_dir: Union[str, Path] = "serve-checkpoints"
    #: Shard (worker process) count.
    n_shards: int = 2
    #: Run shards in-process instead of in worker processes.  The fast
    #: path for tests and property-based suites; chaos coverage needs
    #: real processes.
    inline: bool = False
    #: Snapshot cadence armed on every hosted session.
    checkpoint_every: int = 1
    #: Steps advanced per shard call (amortizes the submit round-trip).
    steps_per_call: int = 4
    #: Deadline on any single shard call.
    step_timeout_seconds: float = 60.0
    #: Attempts per step before the failure feeds the tenant's breaker.
    max_step_attempts: int = 3
    #: Consecutive step failures before a tenant's breaker opens.
    breaker_failure_threshold: int = 3
    #: Seconds an open breaker waits before its half-open probe.
    breaker_recovery_seconds: float = 30.0
    #: Admission limits (quotas, rates, ingest-queue capacity).
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Backend sessions are stepped down to when degraded.
    degrade_backend: str = "fast"
    #: Multiplier applied to ``checkpoint_every`` per degrade level.
    degrade_checkpoint_factor: int = 4
    #: Particle-count fraction for degraded *fresh* opens (resumes keep
    #: their particle arrays; counts cannot change mid-run).
    degrade_particle_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.steps_per_call < 1:
            raise ValueError(
                f"steps_per_call must be >= 1, got {self.steps_per_call}"
            )
        if not self.step_timeout_seconds > 0:
            raise ValueError(
                f"step_timeout_seconds must be > 0, "
                f"got {self.step_timeout_seconds}"
            )
        if self.max_step_attempts < 1:
            raise ValueError(
                f"max_step_attempts must be >= 1, "
                f"got {self.max_step_attempts}"
            )
        self.checkpoint_dir = Path(self.checkpoint_dir)


@dataclass
class SessionHandle:
    """The service-side registry entry for one hosted session."""

    session_id: str
    tenant: str
    shard: int
    spec: SessionSpec
    state: str = "active"  # active | evicted | completed | failed
    step_index: int = 0
    n_time_steps: Optional[int] = None
    finished: bool = False
    degrade_level: int = 0
    resurrections: int = 0
    retries: int = 0


class _Shard:
    """One worker process (or inline host) plus its serialization lock."""

    def __init__(self, index: int, inline: bool, tracer=None):
        self.index = index
        self.inline = inline
        self.lock = asyncio.Lock()
        self.host: Optional[ShardHost] = ShardHost() if inline else None
        self.pool: Optional[WorkerPool] = (
            None if inline else WorkerPool(1, tracer=tracer)
        )

    async def call(
        self, fn_name: str, *args, timeout: Optional[float] = None
    ) -> Any:
        """One host call, deadline-bounded.  Caller holds the lock."""
        if self.inline:
            if fn_name == "pid":
                import os

                return os.getpid()
            return getattr(self.host, fn_name)(*args)
        fn = host_pid if fn_name == "pid" else _HOST_FNS[fn_name]
        future = self.pool.submit(fn, *args)
        return await asyncio.wait_for(
            asyncio.wrap_future(future), timeout=timeout
        )

    def discard(self) -> None:
        if self.pool is not None:
            self.pool.discard()
        if self.host is not None:
            self.host = ShardHost()

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


class LocalizationService:
    """Asyncio front-end multiplexing sessions over shard processes."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        ledger: Optional[Ledger] = None,
        clock=time.monotonic,
    ):
        self.config = config or ServiceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.ledger = ledger
        self._clock = clock
        self.config.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.admission = AdmissionController(self.config.admission, clock)
        self.breakers = BreakerBoard(
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_seconds=self.config.breaker_recovery_seconds,
            clock=clock,
        )
        self.shards = [
            _Shard(i, self.config.inline, tracer=self.tracer)
            for i in range(self.config.n_shards)
        ]
        self.sessions: Dict[str, SessionHandle] = {}
        #: Degradation transitions, in order (also traced + manifested).
        self.degradations: List[Dict[str, Any]] = []
        self._started_unix = time.time()
        self._health_server: Optional[asyncio.AbstractServer] = None

    # --- placement -----------------------------------------------------------

    def _shard_for(self, session_id: str) -> int:
        """Stable session -> shard placement (CRC32, not ``hash``)."""
        return zlib.crc32(session_id.encode("utf-8")) % len(self.shards)

    def _checkpoint_path(self, session_id: str) -> Path:
        return self.config.checkpoint_dir / f"{session_id}.ckpt.json"

    # --- admission + lifecycle -----------------------------------------------

    async def submit(
        self, tenant: str, session_id: str, spec: Dict[str, Any]
    ) -> Union[Admitted, Rejected]:
        """Admit and open one session; sheds with a typed rejection.

        ``spec`` is a :class:`~repro.sim.session.SessionSpec` document
        naming exactly one of ``scenario`` / ``stream_path``; the service
        owns ``checkpoint_path`` and defaults ``checkpoint_every``.  A
        malformed spec is rejected here with ``bad_spec`` (400) before
        any admission slot or shard is touched.
        """
        try:
            parsed = self._parse_spec(spec)
        except ValueError as exc:
            self.metrics.counter("service.rejected").inc()
            self.tracer.emit(
                "service_reject",
                tenant=tenant,
                session_id=session_id,
                reason="bad_spec",
            )
            return Rejected(
                reason="bad_spec", detail=str(exc), status=400, tenant=tenant
            )
        if session_id in self.sessions:
            return Rejected(
                reason="duplicate_session",
                detail=f"session {session_id!r} already registered",
                status=409,
                tenant=tenant,
            )
        shard_index = self._shard_for(session_id)
        outcome = self.admission.admit(tenant, session_id, shard=shard_index)
        if isinstance(outcome, Rejected):
            self.metrics.counter("service.rejected").inc()
            self.tracer.emit(
                "service_reject",
                tenant=tenant,
                session_id=session_id,
                reason=outcome.reason,
            )
            return outcome
        spec = replace(parsed, checkpoint_path=self._checkpoint_path(session_id))
        handle = SessionHandle(
            session_id=session_id,
            tenant=tenant,
            shard=shard_index,
            spec=spec,
        )
        try:
            opened = await self._robust_call(
                handle, "open", session_id, spec
            )
        except StepFailed:
            self.admission.release(session_id)
            self.metrics.counter("service.rejected").inc()
            return Rejected(
                reason="open_failed",
                detail=f"session {session_id!r} could not be opened",
                tenant=tenant,
            )
        handle.step_index = opened["step_index"]
        handle.n_time_steps = opened["n_time_steps"]
        handle.finished = opened["finished"]
        self.sessions[session_id] = handle
        self.metrics.counter("service.admitted").inc()
        self.metrics.gauge("service.sessions_active").set(
            self.admission.active_sessions
        )
        self.tracer.emit(
            "service_admit",
            tenant=tenant,
            session_id=session_id,
            shard=shard_index,
            resumed=opened["resumed"],
        )
        return Admitted(
            session_id=session_id, tenant=tenant, shard=shard_index
        )

    def request_steps(
        self, session_id: str, n_steps: int = 1
    ) -> Union[Admitted, Rejected]:
        """Enqueue a step request on the session's bounded ingest queue.

        Backpressure surfaces here: a full queue sheds the request with a
        typed 503 instead of buffering without bound or blocking.
        """
        handle = self._handle(session_id)
        queue = self.admission.queue(session_id)
        if queue is None:
            return Rejected(
                reason="not_admitted",
                detail=f"session {session_id!r} holds no admission slot",
                status=404,
                tenant=handle.tenant,
            )
        if not queue.push(int(n_steps)):
            self.metrics.counter("service.shed_steps").inc()
            self.tracer.emit(
                "service_shed",
                session_id=session_id,
                queue_depth=queue.depth,
            )
            return Rejected(
                reason="queue_full",
                detail=(
                    f"ingest queue for {session_id!r} at capacity "
                    f"{queue.capacity}"
                ),
                retry_after=0.1,
                tenant=handle.tenant,
            )
        self.metrics.gauge("service.ingest_depth").set(queue.depth)
        return Admitted(
            session_id=session_id,
            tenant=handle.tenant,
            shard=handle.shard,
            status=202,
        )

    async def pump(self, session_id: str) -> SessionHandle:
        """Drain the session's ingest queue, stepping the worker."""
        handle = self._handle(session_id)
        queue = self.admission.queue(session_id)
        while queue is not None and queue and not handle.finished:
            n_steps = queue.pop()
            self.metrics.gauge("service.ingest_depth").set(queue.depth)
            await self._advance(handle, n_steps)
        return handle

    async def advance(
        self, session_id: str, n_steps: Optional[int] = None
    ) -> SessionHandle:
        """Step the session directly (no queue), honoring the deadline."""
        handle = self._handle(session_id)
        await self._advance(
            handle,
            n_steps if n_steps is not None else self.config.steps_per_call,
        )
        return handle

    async def run_to_completion(self, session_id: str) -> Dict[str, Any]:
        """Drive one session to its final step; returns its result doc."""
        handle = self._handle(session_id)
        while not handle.finished:
            await self._advance(handle, self.config.steps_per_call)
        return await self.collect(session_id)

    async def _advance(self, handle: SessionHandle, n_steps: int) -> None:
        if handle.state == "evicted":
            raise StepFailed(
                handle.session_id, 0, "session is evicted; restore it first"
            )
        start = self._clock()
        stepped = await self._robust_call(
            handle, "step", handle.session_id, int(n_steps)
        )
        self.metrics.histogram("service.step_seconds").observe(
            self._clock() - start
        )
        handle.step_index = stepped["step_index"]
        handle.finished = stepped["finished"]
        self.breakers.breaker(handle.tenant).record_success()

    async def collect(self, session_id: str) -> Dict[str, Any]:
        """Fetch the finished session's result and free its slot."""
        handle = self._handle(session_id)
        result = await self._robust_call(handle, "result", session_id)
        if handle.finished:
            await self._robust_call(handle, "drop", session_id)
            handle.state = "completed"
            self.admission.release(session_id)
            self.metrics.counter("service.completed").inc()
            self.metrics.gauge("service.sessions_active").set(
                self.admission.active_sessions
            )
        return result

    # --- eviction / restore --------------------------------------------------

    async def evict(self, session_id: str) -> Dict[str, Any]:
        """Checkpoint the session out of memory, freeing its slot."""
        handle = self._handle(session_id)
        evicted = await self._robust_call(handle, "evict", session_id)
        handle.state = "evicted"
        self.admission.release(session_id)
        self.metrics.counter("service.evicted").inc()
        self.metrics.gauge("service.sessions_active").set(
            self.admission.active_sessions
        )
        self.tracer.emit(
            "service_evict",
            session_id=session_id,
            step=handle.step_index,
            checkpoint=evicted["checkpoint_path"],
        )
        return evicted

    async def restore(
        self, session_id: str
    ) -> Union[Admitted, Rejected]:
        """Re-admit an evicted session from its checkpoint, on demand."""
        handle = self._handle(session_id)
        if handle.state != "evicted":
            return Rejected(
                reason="not_evicted",
                detail=f"session {session_id!r} is {handle.state}",
                status=409,
                tenant=handle.tenant,
            )
        outcome = self.admission.admit(
            handle.tenant, session_id, shard=handle.shard
        )
        if isinstance(outcome, Rejected):
            self.metrics.counter("service.rejected").inc()
            return outcome
        try:
            opened = await self._robust_call(
                handle, "open", session_id, handle.spec
            )
        except StepFailed:
            self.admission.release(session_id)
            return Rejected(
                reason="restore_failed",
                detail=f"session {session_id!r} failed to restore",
                tenant=handle.tenant,
            )
        handle.state = "active"
        handle.step_index = opened["step_index"]
        handle.finished = opened["finished"]
        self.metrics.counter("service.restored").inc()
        self.metrics.gauge("service.sessions_active").set(
            self.admission.active_sessions
        )
        self.tracer.emit(
            "service_restore",
            session_id=session_id,
            step=handle.step_index,
        )
        return outcome

    # --- degradation ---------------------------------------------------------

    async def degrade(
        self, session_id: str, reason: str = "overload"
    ) -> SessionHandle:
        """Step one session down the degradation ladder.

        Level 1: switch to the ``fast`` backend and widen the checkpoint
        cadence.  Level 2+: additionally halve the particle count for
        any future *fresh* open (a resumed session keeps its arrays).
        The transition is traced and recorded for the service manifest.
        """
        handle = self._handle(session_id)
        handle.degrade_level += 1
        spec = replace(
            handle.spec,
            backend=self.config.degrade_backend,
            checkpoint_every=(
                handle.spec.checkpoint_every
                * self.config.degrade_checkpoint_factor
            ),
        )
        if handle.degrade_level >= 2 and spec.scenario is not None:
            particles = spec.scenario.localizer_config.n_particles
            spec = replace(
                spec,
                n_particles=max(
                    1, int(particles * self.config.degrade_particle_fraction)
                )
            )
        handle.spec = spec
        # Cycle through the checkpoint so the new backend/cadence apply.
        if handle.state == "active":
            await self._robust_call(handle, "evict", session_id)
            opened = await self._robust_call(
                handle, "open", session_id, spec
            )
            handle.step_index = opened["step_index"]
            handle.finished = opened["finished"]
        transition = {
            "session_id": session_id,
            "level": handle.degrade_level,
            "reason": reason,
            "backend": spec.backend,
            "checkpoint_every": spec.checkpoint_every,
            "step": handle.step_index,
        }
        self.degradations.append(transition)
        self.metrics.counter("service.degraded").inc()
        self.tracer.emit("service_degrade", **transition)
        return handle

    # --- the robust call core ------------------------------------------------

    async def _robust_call(
        self, handle: SessionHandle, fn_name: str, *args
    ) -> Any:
        """Deadline + retry + resurrect around one shard call."""
        shard = self.shards[handle.shard]
        last_error = "unknown"
        for attempt in range(1, self.config.max_step_attempts + 1):
            async with shard.lock:
                try:
                    return await shard.call(
                        fn_name,
                        *args,
                        timeout=self.config.step_timeout_seconds,
                    )
                except (asyncio.TimeoutError, TimeoutError) as exc:
                    last_error = f"deadline exceeded: {exc or 'timeout'}"
                    await self._resurrect_shard(shard, exclude=fn_name == "open")
                except (BrokenProcessPool, OSError) as exc:
                    last_error = f"worker died: {exc or type(exc).__name__}"
                    await self._resurrect_shard(shard, exclude=fn_name == "open")
                except KeyError as exc:
                    # The worker lost the session (fresh pool after a
                    # kill): resurrect re-opens it, then retry.
                    last_error = f"session missing in worker: {exc}"
                    await self._resurrect_shard(shard, exclude=fn_name == "open")
            if attempt < self.config.max_step_attempts:
                handle.retries += 1
                self.metrics.counter("service.step_retries").inc()
                await asyncio.sleep(
                    step_backoff_seconds(handle.session_id, attempt)
                )
        breaker = self.breakers.breaker(handle.tenant)
        if breaker.record_failure():
            self.admission.quarantine(
                handle.tenant, self.config.breaker_recovery_seconds
            )
            self.metrics.counter("service.quarantined").inc()
            self.tracer.emit(
                "service_quarantine",
                tenant=handle.tenant,
                session_id=handle.session_id,
            )
        raise StepFailed(
            handle.session_id, self.config.max_step_attempts, last_error
        )

    async def _resurrect_shard(
        self, shard: _Shard, exclude: bool = False
    ) -> None:
        """Rebuild a dead shard and re-open its sessions from checkpoints.

        ``exclude=True`` skips re-opening (used when the failing call was
        itself an open: the retry will re-issue it).  Caller holds the
        shard lock.
        """
        shard.discard()
        if exclude:
            return
        for handle in self.sessions.values():
            if handle.shard != shard.index or handle.state != "active":
                continue
            try:
                opened = await shard.call(
                    "open",
                    handle.session_id,
                    handle.spec,
                    timeout=self.config.step_timeout_seconds,
                )
            except Exception:
                handle.state = "failed"
                self.metrics.counter("service.resurrect_failures").inc()
                continue
            handle.step_index = opened["step_index"]
            handle.finished = opened["finished"]
            handle.resurrections += 1
            self.metrics.counter("service.resurrected").inc()
            self.tracer.emit(
                "service_resurrect",
                session_id=handle.session_id,
                shard=shard.index,
                step=handle.step_index,
                resumed=opened["resumed"],
            )

    # --- health / readiness --------------------------------------------------

    async def shard_pids(self) -> List[int]:
        """Worker PIDs, one per shard (chaos tests kill these)."""
        pids = []
        for shard in self.shards:
            async with shard.lock:
                pids.append(
                    await shard.call(
                        "pid", timeout=self.config.step_timeout_seconds
                    )
                )
        return pids

    def health(self) -> Dict[str, Any]:
        """Liveness + load snapshot (the ``health`` endpoint body)."""
        states: Dict[str, int] = {}
        for handle in self.sessions.values():
            states[handle.state] = states.get(handle.state, 0) + 1
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self._started_unix,
            "n_shards": len(self.shards),
            "sessions": states,
            "admission": self.admission.snapshot(),
            "breakers": self.breakers.snapshot(),
            "degradations": len(self.degradations),
        }

    def ready(self) -> Dict[str, Any]:
        """Readiness: can the service take a new session right now?"""
        capacity_free = (
            self.admission.active_sessions
            < self.config.admission.max_sessions
        )
        return {
            "ready": capacity_free,
            "active_sessions": self.admission.active_sessions,
            "max_sessions": self.config.admission.max_sessions,
        }

    async def serve_health(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple:
        """Start the line-JSON health endpoint; returns (host, port).

        Protocol: the client sends one line (``health``, ``ready`` or
        ``metrics``) and receives one JSON line back.
        """

        async def handler(reader, writer):
            try:
                line = (await reader.readline()).decode("utf-8").strip()
                if line == "ready":
                    body = self.ready()
                elif line == "metrics":
                    body = self.metrics.snapshot()
                else:
                    body = self.health()
                writer.write((json.dumps(body) + "\n").encode("utf-8"))
                await writer.drain()
            finally:
                writer.close()

        self._health_server = await asyncio.start_server(
            handler, host=host, port=port
        )
        sockname = self._health_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def manifest(self, name: str = "serve") -> RunManifest:
        """A ``repro-manifest v1`` document for this service run."""
        snapshot = self.metrics.snapshot() if self.metrics.enabled else {}
        metrics: Dict[str, float] = {}
        for key in (
            "service.admitted",
            "service.rejected",
            "service.evicted",
            "service.restored",
            "service.resurrected",
            "service.completed",
            "service.degraded",
        ):
            entry = snapshot.get(key)
            if entry is not None:
                metrics[key] = float(entry.get("value", 0.0))
        hist = snapshot.get("service.step_seconds")
        if hist and hist.get("count"):
            metrics["service.step_p50_seconds"] = hist["p50"]
            metrics["service.step_p99_seconds"] = hist["p99"]
        return RunManifest(
            kind="serve",
            name=name,
            created_unix=time.time(),
            seeds=(),
            metrics=metrics,
            context={
                "n_shards": len(self.shards),
                "inline": self.config.inline,
                "degradations": list(self.degradations),
                "sessions": len(self.sessions),
            },
        )

    async def close(self) -> None:
        """Shut everything down cleanly (pools, health endpoint)."""
        if self._health_server is not None:
            self._health_server.close()
            await self._health_server.wait_closed()
            self._health_server = None
        for shard in self.shards:
            shard.close()
        if self.ledger is not None:
            self.ledger.append(self.manifest())

    # --- plumbing ------------------------------------------------------------

    def _parse_spec(self, doc: Any) -> SessionSpec:
        """The wire spec as a :class:`SessionSpec` (``ValueError`` if bad)."""
        spec = SessionSpec.from_dict(doc)
        if (spec.scenario is None) == (spec.stream_path is None):
            raise ValueError(
                "a session spec names exactly one of 'scenario' and "
                "'stream_path'"
            )
        if "checkpoint_every" not in doc:
            spec = replace(spec, checkpoint_every=self.config.checkpoint_every)
        return spec

    def _handle(self, session_id: str) -> SessionHandle:
        handle = self.sessions.get(session_id)
        if handle is None:
            raise KeyError(f"unknown session {session_id!r}")
        return handle
