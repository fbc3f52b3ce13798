"""Structured trace events for the localizer pipeline.

A :class:`Tracer` turns typed pipeline moments into flat dict records and
hands them to a :class:`~repro.obs.sinks.Sink`.  Producers emit, sinks
decide what to do::

    tracer = Tracer(JsonlSink("trace.jsonl"))
    localizer = MultiSourceLocalizer(config, tracer=tracer)

Event vocabulary (the authoritative schema is docs/OBSERVABILITY.md):

``run_start`` / ``run_end``
    One run of a scenario (emitted by the simulation runner).
``iteration``
    One chunk of the localizer's observe loop (one reading on the
    default backend, up to ``FUSED_CHUNK`` on an accelerated one):
    ``readings`` and ``sensor_ids``, summed touched-subset sizes and
    resample/injection counts, ESS before/after, and per-phase seconds
    (``select``, ``weight``, ``resample``).
``extract``
    One mean-shift estimate extraction: seed count, mean-shift sweep
    count, per-phase seconds (``seed``, ``shift``, ``merge``, ``filter``).
``step``
    One simulation time step: population health, convergence state,
    elapsed wall-clock.
``metrics``
    A metrics-registry snapshot (``MetricsRegistry.flush_to``).

Hot-loop contract: producers check ``tracer.enabled`` *before* reading
clocks or computing diagnostics, so the default :data:`NULL_TRACER` keeps
the uninstrumented cost profile -- no ``perf_counter`` calls, no ESS
computation, no dict building.  An enabled tracer only observes: it never
decides which code path runs, so a traced run computes what an untraced
one does.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

from repro.obs.sinks import NullSink, Sink

logger = logging.getLogger(__name__)


class Tracer:
    """Emits typed trace events to one sink."""

    __slots__ = ("sink", "enabled", "_seq")

    def __init__(self, sink: Optional[Sink] = None):
        self.sink: Sink = sink if sink is not None else NullSink()
        #: Producers gate all instrumentation work on this flag.
        self.enabled: bool = not isinstance(self.sink, NullSink)
        self._seq = 0

    def emit(self, event_type: str, **fields) -> None:
        """Emit one event; ``fields`` must be JSON-serializable values."""
        if not self.enabled:
            return
        self._seq += 1
        self.sink.write({"type": event_type, "seq": self._seq, **fields})

    @contextmanager
    def span(self, event_type: str, **fields) -> Iterator[dict]:
        """Time a block and emit one event with its ``seconds`` on exit.

        For coarse, non-hot-path phases (a whole run, a report pass).  The
        yielded dict may be filled with extra fields inside the block.
        """
        if not self.enabled:
            yield {}
            return
        extra: dict = {}
        start = perf_counter()
        try:
            yield extra
        finally:
            self.emit(event_type, seconds=perf_counter() - start, **fields, **extra)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, sink={self.sink!r}, events={self._seq})"


class _NullTracer(Tracer):
    """Always disabled; shared default for all instrumented components."""

    def emit(self, event_type: str, **fields) -> None:
        pass


#: Shared disabled tracer -- the zero-overhead default.
NULL_TRACER = _NullTracer()


def jsonl_tracer(path) -> Tracer:
    """Convenience: a tracer writing JSONL records to ``path``."""
    from repro.obs.sinks import JsonlSink

    logger.info("tracing to %s", path)
    return Tracer(JsonlSink(path))
