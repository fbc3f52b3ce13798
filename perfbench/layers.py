"""Outside-in layer timing: wrap the program's public callables, charge self time.

Nothing here touches ``repro.obs``: the program's own tracer reroutes the
``fast`` backend's batched path (``observe_batch`` falls back to the
sequential loop whenever a tracer is enabled), so measuring through it
would measure a different program.  Instead :class:`LayerProbe` replaces
selected functions and methods with timing wrappers for the duration of
a ``with`` block and restores the originals on exit.

Each wrapped call is a span.  Spans nest through a stack, and a span's
*self* time is its duration minus the time of the spans it called, so
the self times of every span opened inside a root span (one session
step) add up to the root span's duration exactly.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional

clock = time.perf_counter

#: Result key under which a wrapped shard function reports its own time.
WORKER_SECONDS = "perfbench_worker_seconds"


class LayerProbe:
    """Span recorder over monkey-patched callables (restored on exit)."""

    def __init__(self, root: str):
        #: Span name whose calls are the unit of work (e.g. one session step).
        self.root = root
        #: Span name -> self seconds, for every span.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Span name -> self seconds, only for spans inside a root span.
        self.inner_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Counters filled by per-call ``count`` callbacks.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Total duration of root spans.
        self.root_s = 0.0
        #: Wall-clock samples of un-nested (async) calls, by name.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    # --- patching ---------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Optional[Callable] = None,
    ) -> None:
        """Time ``owner.attr`` as span ``name`` (``owner`` defines ``attr``).

        ``count(counts, result, args)`` runs after each call to update
        :attr:`counts`.
        """
        original = vars(owner)[attr]
        self._patch(owner, attr, self._timed(name, original, count))

    def wrap_async(self, owner, attr: str, name: str) -> None:
        """Record each call's wall time of coroutine method ``owner.attr``."""
        original = vars(owner)[attr]
        samples = self.samples[name]

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            start = clock()
            try:
                return await original(*args, **kwargs)
            finally:
                samples.append(clock() - start)

        self._patch(owner, attr, wrapper)

    def wrap_roundtrip(self, owner, attr: str, prefix: str) -> None:
        """Record submit-to-completion time of futures ``owner.attr`` returns.

        Samples land under ``<prefix>.<fn.__name__>``, and the worker-side
        time a result reports (see :func:`install_worker_compute`) under
        ``<prefix>.<fn.__name__>.worker``.  Completion callbacks run on the
        executor's management thread, hence the lock.
        """
        original = vars(owner)[attr]
        probe = self

        @functools.wraps(original)
        def wrapper(pool, fn, *args, **kwargs):
            start = clock()
            future = original(pool, fn, *args, **kwargs)
            key = f"{prefix}.{getattr(fn, '__name__', 'call')}"

            def done(done_future) -> None:
                elapsed = clock() - start
                result = None
                if not done_future.cancelled() and done_future.exception() is None:
                    result = done_future.result()
                with probe._lock:
                    probe.samples[key].append(elapsed)
                    if isinstance(result, dict) and WORKER_SECONDS in result:
                        probe.samples[f"{key}.worker"].append(result[WORKER_SECONDS])

            future.add_done_callback(done)
            return future

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, replacement) -> None:
        original = vars(owner)[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_item(self, mapping: dict, key, replacement) -> None:
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = replacement

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "LayerProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # --- spans ------------------------------------------------------------

    def _timed(self, name: str, fn: Callable, count: Optional[Callable]):
        probe = self
        stack = self._stack
        is_root = name == self.root

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame = [seconds spent in child spans, inside a root span?]
            frame = [0.0, is_root or bool(stack and stack[-1][1])]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[0]
                probe.self_s[name] += own
                if frame[1]:
                    probe.inner_s[name] += own
                probe.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if is_root:
                    probe.root_s += elapsed
            if count is not None:
                count(probe.counts, result, args)
            return result

        return wrapper


# --- the layer map ----------------------------------------------------------


def install_session_layers(probe: LayerProbe) -> None:
    """Wrap every layer one :class:`LocalizerSession` step passes through.

    Module-level functions are patched in the namespace of the module
    that calls them (``from x import f`` binds ``f`` there), methods on
    every class of the hierarchy that defines them.
    """
    from repro.core import backend as backend_mod
    from repro.core import localizer as localizer_mod
    from repro.core.diagnostics import ConvergenceMonitor
    from repro.core.integrity import SensorCredibility
    from repro.core.localizer import MultiSourceLocalizer
    from repro.core.particles import ParticleSet
    from repro.faults.schedule import FaultInjector
    from repro.network import transport
    from repro.obs.ledger import Ledger
    from repro.sim import session as session_mod
    from repro.streams.source import FileReplaySource, MeasurementSource

    def add(key: str, amount: float = 1.0):
        def count(counts, _result, _args):
            counts[key] += amount

        return count

    probe.wrap(FileReplaySource, "__init__", "streams.open")
    probe.wrap(MeasurementSource, "measure", "streams.measure")

    seen_injected: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def count_injected(counts, _result, args):
        injector = args[0]
        total = sum(injector.injected.values())
        counts["faults.injected"] += total - seen_injected.get(injector, 0)
        seen_injected[injector] = total

    probe.wrap(FaultInjector, "apply", "faults.apply", count_injected)

    def count_push(counts, result, args):
        counts["network.delivered"] += len(result)
        queue = getattr(args[0], "queue", None)
        counts["network.held"] += len(queue) if queue is not None else 0

    def count_drain(counts, result, _args):
        counts["network.delivered"] += len(result)

    for cls in vars(transport).values():
        if isinstance(cls, type) and issubclass(cls, transport.DeliveryStream):
            if "push" in vars(cls):
                probe.wrap(cls, "push", "network.push", count_push)
            if "drain" in vars(cls):
                probe.wrap(cls, "drain", "network.push", count_drain)

    def count_quarantined(counts, result, _args):
        if result <= 0.0:
            counts["core.integrity.quarantined"] += 1

    probe.wrap(
        SensorCredibility, "assess", "core.integrity.assess", count_quarantined
    )
    probe.wrap(ParticleSet, "grid", "core.grid.maintain")
    probe.wrap(
        ParticleSet,
        "indices_within_grid",
        "core.grid.select",
        add("core.grid.queries"),
    )

    def count_batch_queries(counts, _result, args):
        counts["core.grid.queries"] += len(args[2])

    kernels = (
        ("log_likelihood_batch", "core.backend.likelihood", None),
        ("apply_log_likelihood", "core.backend.apply", None),
        ("multi_disc_query", "core.backend.disc_query", count_batch_queries),
    )
    for cls in (backend_mod.ArrayBackend, backend_mod.FastNumpyBackend):
        for attr, name, count in kernels:
            if attr in vars(cls):
                probe.wrap(cls, attr, name, count)

    def count_resample(counts, result, _args):
        counts["core.resampling.injected"] += result.n_injected

    probe.wrap(localizer_mod, "reweight_in_place", "core.weighting.reweight")
    probe.wrap(
        localizer_mod, "resample_subset", "core.resampling.resample", count_resample
    )
    probe.wrap(localizer_mod, "extract_estimates", "core.estimator.extract")
    probe.wrap(MultiSourceLocalizer, "observe_batch", "core.localizer")
    probe.wrap(
        MultiSourceLocalizer,
        "estimates",
        "core.localizer",
        add("core.localizer.estimates_calls"),
    )
    probe.wrap(session_mod, "population_health", "core.diagnostics.health")
    probe.wrap(ConvergenceMonitor, "update", "core.diagnostics.health")
    probe.wrap(session_mod, "evaluate_step", "eval.evaluate")

    def count_bytes(counts, result, _args):
        counts["sim.serialization.save_bytes"] += result

    probe.wrap(session_mod, "save_checkpoint", "sim.serialization.save", count_bytes)
    probe.wrap(session_mod, "load_checkpoint", "sim.serialization.load")
    probe.wrap(Ledger, "append", "obs.ledger.append")
    probe.wrap(session_mod.LocalizerSession, "step", "sim.session")


def install_serve_layers(probe: LayerProbe) -> None:
    """Client-side serving spans: service calls and pool round-trips."""
    from repro.core.parallel import WorkerPool
    from repro.serve.service import LocalizationService

    for attr in ("submit", "advance", "evict", "restore", "collect"):
        probe.wrap_async(LocalizationService, attr, f"serve.{attr}")
    probe.wrap_roundtrip(WorkerPool, "submit", "serve.roundtrip")


def install_worker_compute(probe: LayerProbe) -> None:
    """Time ``host_step`` inside the shard worker, reported in its result.

    The pool pickles ``host_step`` by reference, so a worker forked after
    this patch resolves the wrapper and runs it; the elapsed time rides
    back in the result dict, which the service ignores beyond the keys
    it reads.  A worker started by ``spawn`` or ``forkserver`` imports
    the unpatched module and reports nothing.
    """
    from repro.serve import service, shard

    original = shard.host_step

    @functools.wraps(original)
    def host_step(session_id: str, n_steps: int = 1):
        start = clock()
        result = original(session_id, n_steps)
        result[WORKER_SECONDS] = clock() - start
        return result

    probe._patch(shard, "host_step", host_step)
    probe._patch_item(service._HOST_FNS, "step", host_step)


def install_shard_compute(probe: LayerProbe) -> None:
    """Time worker-side stepping on an inline shard (same process)."""
    from repro.serve.shard import ShardHost

    probe.wrap(ShardHost, "step", "serve.shard_compute")
