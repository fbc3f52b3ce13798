"""Process-parallel mean-shift (the paper's Section VI-E concurrency).

The paper reports that "the majority of the concurrency is achieved using
the mean-shift technique" and shows ~5x speedup from 4 to 24 cores
(Table I).  Our mean-shift is already BLAS-vectorized, so single-process
throughput is high; this module adds the explicit multi-core dimension by
sharding the mean-shift *seeds* across worker processes.  Each seed ascends
independently, so the computation is embarrassingly parallel, exactly as
the paper exploits.

Note the realistic trade-off this exposes (and the Table I benchmark
measures): for small populations the fork/pickle overhead exceeds the
gain, while for 15000-particle populations with many seeds the sharded run
wins -- the same "parallelism pays off at scale" shape as the paper's 4-
vs 24-core columns.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.meanshift import mean_shift_modes


class WorkerPool:
    """A persistent, lazily-built, repairable process pool.

    The one long-lived pool the experiment engine (:mod:`repro.exp`) and
    the serving shards (:mod:`repro.serve`) own:

    * the executor is created on first use, not at construction, so a pool
      configured but never exercised costs nothing;
    * :meth:`discard` tears the executor down *without waiting* -- the
      recovery path for stuck, killed or broken workers -- while
      :meth:`close` shuts down cleanly.  Either way the pool stays usable:
      the next call builds a fresh executor.

    An optional ``tracer`` (any object with an ``emit(type, **fields)``
    method and an ``enabled`` flag, i.e. :class:`repro.obs.trace.Tracer`)
    records the pool's lifecycle -- ``pool_build`` / ``pool_discard`` /
    ``pool_close`` events tagged with the build count -- so a merged
    sweep trace shows exactly when the pool was rebuilt and why results
    arrived in the order they did.
    """

    def __init__(
        self,
        n_workers: int,
        initializer=None,
        initargs: tuple = (),
        tracer=None,
    ):
        if n_workers < 1:
            raise ValueError(f"WorkerPool needs n_workers >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self._initializer = initializer
        self._initargs = initargs
        self._executor: Optional[ProcessPoolExecutor] = None
        self.tracer = tracer
        #: Executors created so far (1 after first use; +1 per repair).
        self.builds = 0

    def _emit(self, event: str, **fields) -> None:
        if self.tracer is not None and getattr(self.tracer, "enabled", False):
            self.tracer.emit(event, n_workers=self.n_workers, **fields)

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, building it on first use."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
            self.builds += 1
            self._emit("pool_build", build=self.builds)
        return self._executor

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        return self.executor().submit(fn, *args, **kwargs)

    #: Grace period between SIGTERM and SIGKILL in :meth:`discard`.
    KILL_DEADLINE_SECONDS = 2.0

    def discard(self, kill_deadline: Optional[float] = None) -> None:
        """Drop the executor without waiting for in-flight work.

        Used to recover from hung or killed workers: pending futures are
        cancelled and worker processes still running a task are escalated
        through a hard-kill deadline -- ``terminate()`` (SIGTERM), a
        bounded ``join``, then ``kill()`` (SIGKILL) for anything that
        ignored the polite signal -- and finally reaped, so a discard can
        neither hang on a SIGTERM-blocking worker nor leak zombies: when it
        returns, every worker is dead and has an exit code.  The next call
        builds a fresh executor.
        """
        if self._executor is None:
            return
        if kill_deadline is None:
            kill_deadline = self.KILL_DEADLINE_SECONDS
        executor, self._executor = self._executor, None
        processes = list(getattr(executor, "_processes", {}).values())
        manager = getattr(executor, "_executor_manager_thread", None)
        executor.shutdown(wait=False, cancel_futures=True)
        terminated = 0
        for process in processes:
            if process.is_alive():
                process.terminate()
                terminated += 1
        killed = 0
        deadline_each = kill_deadline / max(1, terminated) if terminated else 0.0
        for process in processes:
            process.join(timeout=deadline_each)
            if process.is_alive():
                process.kill()
                killed += 1
        # The executor's manager thread reaps these same workers.  A join
        # that loses that waitpid race returns before the winner records
        # the exit code, so wait the manager out: then one reaper is left.
        if manager is not None:
            manager.join(timeout=kill_deadline)
        for process in processes:
            # Post-SIGKILL join cannot block; it reaps the zombie.
            process.join()
        self._emit(
            "pool_discard",
            build=self.builds,
            terminated=terminated,
            killed=killed,
        )

    def close(self) -> None:
        """Shut the executor down cleanly (the pool can be reused)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            self._emit("pool_close", build=self.builds)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self._executor is not None else "idle"
        return f"WorkerPool(n_workers={self.n_workers}, {state}, builds={self.builds})"

# Worker state initialized once per process to avoid re-pickling the
# particle arrays for every chunk.
_WORKER_DATA: dict = {}


def _init_worker(points: np.ndarray, weights: np.ndarray) -> None:
    _WORKER_DATA["points"] = points
    _WORKER_DATA["weights"] = weights


def _run_chunk(args: Tuple[np.ndarray, float, float, int]) -> Tuple[np.ndarray, np.ndarray]:
    seeds, bandwidth, tol, max_iter = args
    return mean_shift_modes(
        seeds,
        _WORKER_DATA["points"],
        _WORKER_DATA["weights"],
        bandwidth=bandwidth,
        tol=tol,
        max_iter=max_iter,
    )


def parallel_mean_shift_modes(
    seeds: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    bandwidth: float,
    tol: float = 1e-2,
    max_iter: int = 100,
    n_workers: int = 2,
    executor: Optional[ProcessPoolExecutor] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Like :func:`repro.core.meanshift.mean_shift_modes`, sharded over processes.

    Results are identical to the serial version (same seeds, same particle
    data, deterministic iteration); only wall-clock time differs.  Pass a
    pre-built ``executor`` to amortize process start-up across calls; note
    that a reused executor must have been created with the same
    ``points``/``weights`` via :func:`make_executor`.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers == 1 or len(seeds) < 2 * n_workers:
        return mean_shift_modes(
            seeds, points, weights, bandwidth=bandwidth, tol=tol, max_iter=max_iter
        )

    chunks = np.array_split(seeds, n_workers)
    args = [(chunk, bandwidth, tol, max_iter) for chunk in chunks if len(chunk)]

    own_executor = executor is None
    if own_executor:
        executor = make_executor(points, weights, n_workers)
    try:
        results = list(executor.map(_run_chunk, args))
    finally:
        if own_executor:
            executor.shutdown()
    modes = np.vstack([r[0] for r in results])
    densities = np.concatenate([r[1] for r in results])
    return modes, densities


def make_executor(
    points: np.ndarray,
    weights: np.ndarray,
    n_workers: int,
) -> ProcessPoolExecutor:
    """A worker pool pre-loaded with the particle arrays."""
    return ProcessPoolExecutor(
        max_workers=n_workers,
        initializer=_init_worker,
        initargs=(np.asarray(points, dtype=float), np.asarray(weights, dtype=float)),
    )
