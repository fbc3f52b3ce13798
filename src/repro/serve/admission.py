"""Admission control for the multi-tenant serving front-end.

The load-shedding doctrine (ISSUE PR 10): **reject new work before
degrading existing work, and never hang**.  Every refusal is a typed
:class:`Rejected` value carrying an HTTP-shaped status and a
machine-readable reason -- a caller polling :func:`is_rejected` can
distinguish "come back later" (429/503, ``retry_after`` set) from
"this tenant is quarantined" (503, breaker open) without parsing text.

Three independent gates, applied in order by
:class:`AdmissionController`:

1. **quarantine** -- the tenant's circuit breaker is open (managed by the
   service, surfaced here);
2. **rate** -- a per-tenant :class:`TokenBucket` caps session admissions
   per second, absorbing bursts up to the bucket capacity;
3. **capacity** -- per-tenant and service-wide active-session quotas.

Per-session ingest backpressure is the same shape one level down:
:class:`BoundedQueue` refuses pushes beyond its capacity instead of
growing without bound, so a slow consumer surfaces as typed shedding at
the producer, not as unbounded memory.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Union

__all__ = [
    "Admitted",
    "AdmissionController",
    "AdmissionConfig",
    "BoundedQueue",
    "QueueFull",
    "Rejected",
    "TokenBucket",
    "is_rejected",
]


@dataclass(frozen=True)
class Admitted:
    """A request that passed every admission gate."""

    session_id: str
    tenant: str
    shard: int

    status: int = 200


@dataclass(frozen=True)
class Rejected:
    """A typed shed decision -- the 503 that never hangs.

    ``reason`` is one of ``"tenant_quarantined"``, ``"rate_limited"``,
    ``"tenant_quota"``, ``"service_capacity"``, ``"queue_full"``, or the
    service's ``"bad_spec"`` (status 400) and ``"open_failed"``.
    ``retry_after`` (seconds) is set when the condition is transient.
    """

    reason: str
    detail: str
    status: int = 503
    retry_after: Optional[float] = None
    tenant: Optional[str] = None


def is_rejected(outcome: Union[Admitted, Rejected]) -> bool:
    return isinstance(outcome, Rejected)


class QueueFull(RuntimeError):
    """Raised by :meth:`BoundedQueue.push` when shedding is refused."""


class BoundedQueue:
    """A FIFO that refuses growth beyond ``capacity`` -- never blocks.

    The property-based invariant (tested in
    ``tests/test_serve_admission.py``): ``depth <= capacity`` holds after
    *any* interleaving of pushes and pops, and a refused push always
    surfaces as an explicit ``False`` (or :class:`QueueFull` from
    :meth:`push_or_raise`), never as a silent drop or a wait.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._items: Deque[Any] = deque()
        #: Total pushes refused over the queue's lifetime.
        self.shed = 0

    def push(self, item: Any) -> bool:
        """Append if there is room; return whether the item was taken."""
        if len(self._items) >= self.capacity:
            self.shed += 1
            return False
        self._items.append(item)
        return True

    def push_or_raise(self, item: Any) -> None:
        if not self.push(item):
            raise QueueFull(
                f"queue at capacity {self.capacity}; request shed"
            )

    def pop(self) -> Any:
        if not self._items:
            raise IndexError("pop from empty BoundedQueue")
        return self._items.popleft()

    @property
    def depth(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class TokenBucket:
    """Classic token-bucket rate limiter with an injectable clock.

    ``rate`` tokens accrue per second up to ``capacity``; each admission
    costs one token.  With a deterministic ``clock`` the limiter is fully
    reproducible, which is how the property tests pin its arithmetic.
    """

    def __init__(
        self,
        rate: float,
        capacity: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = self.capacity
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def seconds_until_available(self, tokens: float = 1.0) -> float:
        """How long until ``tokens`` could be acquired (0 if now)."""
        self._refill()
        deficit = tokens - self._tokens
        return max(0.0, deficit / self.rate)

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


@dataclass
class AdmissionConfig:
    """Static limits the controller enforces."""

    #: Service-wide ceiling on concurrently active sessions.
    max_sessions: int = 256
    #: Per-tenant ceiling on concurrently active sessions.
    tenant_max_sessions: int = 32
    #: Per-tenant session admissions per second.
    tenant_rate: float = 50.0
    #: Burst capacity of the per-tenant token bucket.
    tenant_burst: float = 10.0
    #: Ingest-queue capacity for each admitted session.
    ingest_queue_capacity: int = 64

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.tenant_max_sessions < 1:
            raise ValueError(
                f"tenant_max_sessions must be >= 1, "
                f"got {self.tenant_max_sessions}"
            )


@dataclass
class _TenantState:
    active: int = 0
    bucket: Optional[TokenBucket] = None
    quarantined: bool = False
    quarantine_until: Optional[float] = None
    admitted: int = 0
    rejected: int = 0
    queues: Dict[str, BoundedQueue] = field(default_factory=dict)


class AdmissionController:
    """Applies the quarantine -> rate -> capacity gates for one service.

    Pure and synchronous by design: the asyncio front-end calls it under
    its own locking, and property-based tests drive it with a fake clock.
    The controller owns each admitted session's bounded ingest queue, so
    queue shedding is counted next to admission shedding.
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or AdmissionConfig()
        self._clock = clock
        self._tenants: Dict[str, _TenantState] = {}
        self._active_total = 0
        self._session_tenant: Dict[str, str] = {}

    # --- gates ---------------------------------------------------------------

    def _tenant(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(
                bucket=TokenBucket(
                    rate=self.config.tenant_rate,
                    capacity=self.config.tenant_burst,
                    clock=self._clock,
                )
            )
            self._tenants[tenant] = state
        return state

    def admit(
        self, tenant: str, session_id: str, shard: int = 0
    ) -> Union[Admitted, Rejected]:
        """One session admission decision; never blocks, never raises."""
        state = self._tenant(tenant)
        if self.tenant_quarantined(tenant):
            state.rejected += 1
            retry = None
            if state.quarantine_until is not None:
                retry = max(0.0, state.quarantine_until - self._clock())
            return Rejected(
                reason="tenant_quarantined",
                detail=f"tenant {tenant!r} is quarantined (breaker open)",
                retry_after=retry,
                tenant=tenant,
            )
        if not state.bucket.try_acquire():
            state.rejected += 1
            return Rejected(
                reason="rate_limited",
                detail=(
                    f"tenant {tenant!r} exceeded "
                    f"{self.config.tenant_rate}/s admissions"
                ),
                status=429,
                retry_after=state.bucket.seconds_until_available(),
                tenant=tenant,
            )
        if state.active >= self.config.tenant_max_sessions:
            state.rejected += 1
            return Rejected(
                reason="tenant_quota",
                detail=(
                    f"tenant {tenant!r} already holds {state.active} of "
                    f"{self.config.tenant_max_sessions} sessions"
                ),
                tenant=tenant,
            )
        if self._active_total >= self.config.max_sessions:
            state.rejected += 1
            return Rejected(
                reason="service_capacity",
                detail=(
                    f"service at capacity "
                    f"({self._active_total}/{self.config.max_sessions} "
                    f"sessions)"
                ),
                tenant=tenant,
            )
        state.active += 1
        state.admitted += 1
        self._active_total += 1
        self._session_tenant[session_id] = tenant
        state.queues[session_id] = BoundedQueue(
            self.config.ingest_queue_capacity
        )
        return Admitted(session_id=session_id, tenant=tenant, shard=shard)

    def release(self, session_id: str) -> None:
        """Free a session's slot (eviction or completion)."""
        tenant = self._session_tenant.pop(session_id, None)
        if tenant is None:
            return
        state = self._tenants[tenant]
        state.active = max(0, state.active - 1)
        state.queues.pop(session_id, None)
        self._active_total = max(0, self._active_total - 1)

    def queue(self, session_id: str) -> Optional[BoundedQueue]:
        tenant = self._session_tenant.get(session_id)
        if tenant is None:
            return None
        return self._tenants[tenant].queues.get(session_id)

    # --- quarantine ----------------------------------------------------------

    def quarantine(
        self, tenant: str, duration: Optional[float] = None
    ) -> None:
        """Trip a tenant into quarantine (breaker open)."""
        state = self._tenant(tenant)
        state.quarantined = True
        state.quarantine_until = (
            self._clock() + duration if duration is not None else None
        )

    def lift_quarantine(self, tenant: str) -> None:
        state = self._tenant(tenant)
        state.quarantined = False
        state.quarantine_until = None

    def tenant_quarantined(self, tenant: str) -> bool:
        state = self._tenants.get(tenant)
        if state is None or not state.quarantined:
            return False
        if (
            state.quarantine_until is not None
            and self._clock() >= state.quarantine_until
        ):
            state.quarantined = False
            state.quarantine_until = None
            return False
        return True

    # --- introspection -------------------------------------------------------

    @property
    def active_sessions(self) -> int:
        return self._active_total

    def tenant_active(self, tenant: str) -> int:
        state = self._tenants.get(tenant)
        return state.active if state is not None else 0

    def snapshot(self) -> Dict[str, Any]:
        """Health-endpoint view of the admission state."""
        return {
            "active_sessions": self._active_total,
            "max_sessions": self.config.max_sessions,
            "tenants": {
                name: {
                    "active": state.active,
                    "admitted": state.admitted,
                    "rejected": state.rejected,
                    "quarantined": self.tenant_quarantined(name),
                    "queue_depths": {
                        sid: q.depth for sid, q in state.queues.items()
                    },
                }
                for name, state in self._tenants.items()
            },
        }
