"""Deterministic random-number management.

Every stochastic component (measurement noise, delivery latency, particle
filter) gets its own child generator spawned from one seed, so a run is
exactly reproducible and components stay independent: adding a draw to the
transport layer does not perturb the particle filter's stream.

Seed-derivation contract
------------------------
Repeated experiments (the paper's "each simulation is repeated 10 times")
derive one seed per repeat with :func:`derive_run_seed`::

    run_seed = base_seed + RUN_SEED_STRIDE * run_index

and each run seed is expanded into per-component generators with
:func:`spawn_rngs`.  A run is therefore fully determined by
``(base_seed, run_index)`` -- never by which process, worker, or execution
order produced it -- which is what lets the experiment engine
(:mod:`repro.exp`) fan repeats out to a process pool and still produce
**bitwise-identical** per-run series to the serial loop.  This contract is
frozen: both the serial path in :func:`repro.sim.runner.run_repeated` and
the parallel engine call the same function.
"""

from __future__ import annotations

from typing import List

import numpy as np


#: Gap between consecutive run seeds.  Part of the frozen derivation
#: contract (see the module docstring); changing it would silently change
#: every recorded experiment.
RUN_SEED_STRIDE = 1000


def derive_run_seed(base_seed: int, run_index: int) -> int:
    """The master seed for repeat ``run_index`` of a repeated experiment.

    Deterministic and process-independent: serial loops and pool workers
    derive identical seeds for the same ``(base_seed, run_index)``, so
    per-run results are bitwise-identical regardless of execution mode.
    """
    if run_index < 0:
        raise ValueError(f"run_index must be >= 0, got {run_index}")
    return base_seed + RUN_SEED_STRIDE * run_index


def seeded_rng(seed: int) -> np.random.Generator:
    """A fresh PCG64 generator for the given seed."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, n: int) -> List[np.random.Generator]:
    """``n`` statistically independent generators derived from one seed."""
    if n < 1:
        raise ValueError(f"need at least one generator, got {n}")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def export_rng_state(generator: np.random.Generator) -> dict:
    """A generator's bit-state as a JSON-safe dict (plain ints/strs).

    The shared checkpoint helper: sessions, fault injectors and
    measurement sources all snapshot their generators through this so the
    state survives a JSON round-trip (numpy scalars become plain ints).
    Restore by assigning the dict back to ``generator.bit_generator.state``.
    """

    def _clean(value):
        if isinstance(value, dict):
            return {k: _clean(v) for k, v in value.items()}
        if isinstance(value, str):
            return value
        return int(value)

    return _clean(generator.bit_generator.state)


#: Base unit (seconds) of the seed-derived retry backoff below.
RETRY_BACKOFF_BASE = 0.1

#: Upper bound on a single retry pause, whatever the derivation says.
RETRY_BACKOFF_MAX = 1.0


def retry_backoff_seconds(
    seed: int,
    attempt: int = 1,
    base: float = RETRY_BACKOFF_BASE,
    cap: float = RETRY_BACKOFF_MAX,
    exponential: bool = False,
) -> float:
    """Deterministic pause before resubmitting a failed cell.

    Cells that failed together usually failed on a *shared* bottleneck
    (an overloaded host, a memory spike); re-landing them on the rebuilt
    pool at the same instant invites the same collision.  The stagger is
    derived from the cell's seed through :class:`numpy.random.SeedSequence`
    -- no wall-clock randomness, so a re-run of the same sweep backs off
    by exactly the same amounts -- and spans ``[0.5, 1.5) * base *
    growth(attempt)``, capped at ``cap``.

    Growth is linear in ``attempt`` by default (the sweep engine's
    historical behaviour).  ``exponential=True`` doubles per attempt
    (``base * 2**(attempt-1)``) -- the schedule the serving front-end
    uses, where repeated failures should back a tenant off sharply
    rather than gently.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    unit = (
        np.random.SeedSequence(entropy=(int(seed), int(attempt))).generate_state(1)[0]
        / 2**32
    )
    growth = base * (2 ** (attempt - 1)) if exponential else base * attempt
    return min(cap, growth * (0.5 + unit))
