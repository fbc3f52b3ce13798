"""Tests for the worker pool."""

import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.parallel import WorkerPool


def _square(x):
    return x * x


def _pid(_):
    import os

    return os.getpid()


def _ignore_sigterm_and_sleep(seconds):
    import signal as worker_signal
    import time as worker_time

    worker_signal.signal(worker_signal.SIGTERM, worker_signal.SIG_IGN)
    worker_time.sleep(seconds)


def _run(pool, fn, *args):
    return pool.submit(fn, *args).result(timeout=60)


class TestWorkerPool:
    def test_lazy_build_and_reuse(self):
        with WorkerPool(2) as pool:
            assert pool.builds == 0
            assert "idle" in repr(pool)
            assert _run(pool, _square, 3) == 9
            assert pool.builds == 1
            assert "live" in repr(pool)
            assert _run(pool, _square, 4) == 16
            assert pool.builds == 1  # same executor reused

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="n_workers >= 1"):
            WorkerPool(0)

    def test_submit_returns_future(self):
        with WorkerPool(1) as pool:
            assert pool.submit(_square, 7).result(timeout=60) == 49

    def test_rebuilds_after_broken_pool(self):
        with WorkerPool(1) as pool:
            _run(pool, _square, 1)
            # Kill the worker behind the executor's back: the executor is
            # broken, and discard is the repair that callers run on it.
            for process in pool.executor()._processes.values():
                process.terminate()
                process.join()
            with pytest.raises(BrokenProcessPool):
                _run(pool, _square, 5)
            pool.discard()
            assert _run(pool, _square, 5) == 25
            assert pool.builds == 2

    def test_close_allows_reuse(self):
        pool = WorkerPool(1)
        try:
            _run(pool, _square, 2)
            pool.close()
            assert "idle" in repr(pool)
            assert _run(pool, _square, 3) == 9
            assert pool.builds == 2
        finally:
            pool.close()

    def test_discard_then_fresh_executor(self):
        pool = WorkerPool(1)
        try:
            first = _run(pool, _pid, None)
            pool.discard()
            assert "idle" in repr(pool)
            second = _run(pool, _pid, None)
            assert second != first  # genuinely new worker process
            assert pool.builds == 2
        finally:
            pool.close()

    def test_discard_without_executor_is_noop(self):
        pool = WorkerPool(2)
        pool.discard()
        assert pool.builds == 0

    def test_discard_reaps_workers(self):
        """Dead and reaped when discard returns, every cycle.

        The executor's manager thread reaps the same workers discard
        joins; a join that lost that race used to return early and leave
        a worker reading alive or without an exit code (exitcode is only
        set once the child has been reaped).  The race hit a few cycles
        in a hundred, so 200 cycles pin it.
        """
        pool = WorkerPool(2)
        unreaped = 0
        try:
            for _ in range(200):
                futures = [pool.submit(_square, i) for i in (1, 2)]
                assert [f.result(timeout=60) for f in futures] == [1, 4]
                processes = list(pool.executor()._processes.values())
                pool.discard()
                unreaped += sum(
                    p.is_alive() or p.exitcode is None for p in processes
                )
        finally:
            pool.close()
        assert unreaped == 0

    def test_discard_hard_kills_sigterm_ignoring_worker(self):
        """A worker blocking SIGTERM must still die within the deadline."""
        pool = WorkerPool(1)
        try:
            # Park a task that first makes the worker immune to SIGTERM,
            # then sleeps far longer than any deadline.
            future = pool.submit(_ignore_sigterm_and_sleep, 120.0)
            # Wait until the worker has actually installed the handler.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                processes = list(pool.executor()._processes.values())
                if processes and future.running():
                    break
                time.sleep(0.02)
            time.sleep(0.3)  # give the signal handler swap time to land
            start = time.monotonic()
            pool.discard(kill_deadline=0.5)
            elapsed = time.monotonic() - start
            assert elapsed < 30.0  # escalated to SIGKILL, did not hang
            assert all(not p.is_alive() for p in processes)
            assert any(p.exitcode == -signal.SIGKILL for p in processes)
            # The pool is still usable afterwards.
            assert _run(pool, _square, 3) == 9
        finally:
            pool.close()
