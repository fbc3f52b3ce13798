"""Per-tenant circuit breakers for the serving front-end.

A tenant whose sessions keep failing their steps is tripped into
quarantine instead of being allowed to grind the shared worker pool:
the breaker opens after ``failure_threshold`` consecutive failures,
admission control rejects the tenant while it is open, and after
``recovery_seconds`` one probe admission is allowed (half-open).  A
successful probe closes the breaker; a failed one re-opens it.

Retry pacing reuses the sweep engine's deterministic, seed-derived
jitter (:func:`repro.sim.rng.retry_backoff_seconds`) in its
exponential mode, so two replicas of the service retrying the same
failing session back off by *different* amounts (seeded by session) yet
each replica's schedule is reproducible run-to-run.
"""

from __future__ import annotations

import time
import zlib
from typing import Callable, Dict, Optional

from repro.sim.rng import retry_backoff_seconds

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "step_backoff_seconds",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Base / cap for the serve-side exponential retry schedule.
SERVE_BACKOFF_BASE = 0.05
SERVE_BACKOFF_MAX = 5.0


def step_backoff_seconds(session_id: str, attempt: int) -> float:
    """Deterministic exponential backoff for one session's step retry.

    The seed is derived from the session id (stable across processes via
    CRC32, not :func:`hash`), so each session gets its own jitter stream
    and a re-run of the same failure sequence pauses identically.
    """
    seed = zlib.crc32(session_id.encode("utf-8"))
    return retry_backoff_seconds(
        seed,
        attempt,
        base=SERVE_BACKOFF_BASE,
        cap=SERVE_BACKOFF_MAX,
        exponential=True,
    )


class CircuitBreaker:
    """Closed -> open -> half-open breaker with an injectable clock.

    * **closed**: calls flow; consecutive failures are counted.
    * **open**: calls are refused until ``recovery_seconds`` elapse.
    * **half-open**: one probe call is allowed through; its outcome
      decides between closing and re-opening.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = int(failure_threshold)
        self.recovery_seconds = float(recovery_seconds)
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        #: Lifetime trip count (observability).
        self.trips = 0

    @property
    def state(self) -> str:
        self._maybe_half_open()
        return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.recovery_seconds
        ):
            self._state = HALF_OPEN

    def allow(self) -> bool:
        """May a call proceed right now?"""
        self._maybe_half_open()
        return self._state in (CLOSED, HALF_OPEN)

    def record_success(self) -> None:
        self._maybe_half_open()
        self._consecutive_failures = 0
        self._state = CLOSED
        self._opened_at = None

    def record_failure(self) -> bool:
        """Count one failure; returns True when this call trips the breaker."""
        self._maybe_half_open()
        if self._state == HALF_OPEN:
            # The probe failed: straight back to open, fresh clock.
            self._state = OPEN
            self._opened_at = self._clock()
            self.trips += 1
            return True
        self._consecutive_failures += 1
        if (
            self._state == CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._state = OPEN
            self._opened_at = self._clock()
            self.trips += 1
            return True
        return False

    def seconds_until_probe(self) -> Optional[float]:
        """Time until the next half-open probe (None unless open)."""
        self._maybe_half_open()
        if self._state != OPEN or self._opened_at is None:
            return None
        return max(
            0.0, self.recovery_seconds - (self._clock() - self._opened_at)
        )

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state}, "
            f"failures={self._consecutive_failures}/"
            f"{self.failure_threshold}, trips={self.trips})"
        )


class BreakerBoard:
    """One breaker per tenant, created on first touch."""

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self._clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, tenant: str) -> CircuitBreaker:
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                recovery_seconds=self.recovery_seconds,
                clock=self._clock,
            )
            self._breakers[tenant] = breaker
        return breaker

    def snapshot(self) -> Dict[str, str]:
        return {name: b.state for name, b in self._breakers.items()}
