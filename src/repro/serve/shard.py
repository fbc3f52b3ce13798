"""Worker-side session host: many localizer sessions in one process.

A serve *shard* is one worker process (a ``WorkerPool(n_workers=1)``)
holding a :class:`ShardHost` -- a dict of live
:class:`~repro.sim.session.LocalizerSession` objects keyed by session
id.  The parent drives them through the picklable module-level
``host_*`` functions below, each a single pool submit: open a session,
advance it N steps, collect its result, evict it to a checkpoint.

Everything the parent needs back crosses the process boundary as plain
JSON-safe dicts (step records via the canonical
:func:`~repro.sim.results.step_record_to_dict` codec), never live
session objects, so a host call's payload is exactly what the chaos
tests compare bitwise.

Self-healing rests on two properties of this layout:

* every hosted session auto-checkpoints (``checkpoint_every`` /
  ``checkpoint_path`` armed at open), so SIGKILLing the worker loses at
  most the steps since the last snapshot;
* :func:`host_open` opens a :class:`~repro.sim.session.SessionSpec`,
  whose one rule covers a fresh open and a restore alike -- if the
  spec's checkpoint file exists, the session resumes from it; otherwise
  it starts from scratch.  Resurrection after a worker death is
  therefore literally "re-submit every open spec to the rebuilt pool",
  and the resume-parity contract makes the replayed tail
  bitwise-identical to the uninterrupted run.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from repro.sim.serialization import step_record_to_dict
from repro.sim.session import LocalizerSession, SessionSpec

__all__ = [
    "ShardHost",
    "host_evict",
    "host_list",
    "host_open",
    "host_pid",
    "host_result",
    "host_step",
]


class ShardHost:
    """The in-process registry of hosted sessions (one per shard process)."""

    def __init__(self) -> None:
        self.sessions: Dict[str, LocalizerSession] = {}

    # --- lifecycle -----------------------------------------------------------

    def open(self, session_id: str, spec: SessionSpec) -> Dict[str, Any]:
        """Open (or resume) a session from its spec.

        The service fills in ``checkpoint_path`` and ``checkpoint_every``,
        so a resurrected shard resumes every session from its last
        snapshot -- :meth:`SessionSpec.open`'s one rule is the whole
        resurrection protocol.
        """
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} already hosted")
        resumed = spec.resumable
        session = spec.open()
        self.sessions[session_id] = session
        return {
            "session_id": session_id,
            "resumed": resumed,
            "step_index": session.step_index,
            "n_time_steps": session.scenario.n_time_steps,
            "finished": session.finished,
            "pid": os.getpid(),
        }

    def step(self, session_id: str, n_steps: int = 1) -> Dict[str, Any]:
        """Advance up to ``n_steps``; stops early at completion."""
        session = self._session(session_id)
        advanced = 0
        while advanced < n_steps and not session.finished:
            session.step()
            advanced += 1
        return {
            "session_id": session_id,
            "advanced": advanced,
            "step_index": session.step_index,
            "finished": session.finished,
            "pid": os.getpid(),
        }

    def result(self, session_id: str) -> Dict[str, Any]:
        """The session's run result as canonical step-record dicts."""
        session = self._session(session_id)
        result = session.result()
        return {
            "session_id": session_id,
            "finished": session.finished,
            "scenario_name": result.scenario_name,
            "source_labels": list(result.source_labels),
            "steps": [step_record_to_dict(r) for r in result.steps],
            "manifest": session.manifest().to_dict(),
        }

    def evict(self, session_id: str) -> Dict[str, Any]:
        """Checkpoint the session and drop it from memory."""
        session = self._session(session_id)
        path = session.checkpoint_path
        if path is None:
            raise ValueError(
                f"session {session_id!r} has no checkpoint_path; "
                f"cannot evict without losing state"
            )
        nbytes = session.save_checkpoint(path)
        del self.sessions[session_id]
        return {
            "session_id": session_id,
            "checkpoint_path": str(path),
            "bytes": nbytes,
            "step_index": session.step_index,
        }

    def drop(self, session_id: str) -> bool:
        """Forget a session without checkpointing (completion cleanup)."""
        return self.sessions.pop(session_id, None) is not None

    def list(self) -> List[str]:
        return sorted(self.sessions)

    def _session(self, session_id: str) -> LocalizerSession:
        session = self.sessions.get(session_id)
        if session is None:
            raise KeyError(f"session {session_id!r} not hosted here")
        return session


#: The per-process host instance the module-level functions close over.
#: In a shard worker this lives in the worker process; the inline
#: (process-free) service mode instantiates its own ``ShardHost``
#: objects instead and never touches this global.
_HOST = ShardHost()


def host_open(session_id: str, spec: SessionSpec) -> Dict[str, Any]:
    return _HOST.open(session_id, spec)


def host_step(session_id: str, n_steps: int = 1) -> Dict[str, Any]:
    return _HOST.step(session_id, n_steps)


def host_result(session_id: str) -> Dict[str, Any]:
    return _HOST.result(session_id)


def host_evict(session_id: str) -> Dict[str, Any]:
    return _HOST.evict(session_id)


def host_drop(session_id: str) -> bool:
    return _HOST.drop(session_id)


def host_list() -> List[str]:
    return _HOST.list()


def host_pid() -> int:
    return os.getpid()
