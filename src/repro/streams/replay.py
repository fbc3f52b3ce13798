"""Replay helpers: build a live session from a recorded stream.

:func:`open_replay_session` is the library shorthand for opening a
stream :class:`~repro.sim.session.SessionSpec`: the stream header
supplies the scenario and seed, and a
:class:`~repro.streams.source.FileReplaySource` feeds the session.
Replaying with the header's own seed and scenario reproduces the recorded
live run bitwise (same transport/filter RNG streams, same faults);
overrides let callers study the same canned measurements under different
conditions:

* ``faults=`` injects a *different* schedule over the recorded stream
  (``no_faults=True`` strips the recorded one);
* ``seed=`` re-randomizes transport/filter while holding the data fixed;
* ``backend=`` re-runs the stream under another array backend;
* ``pacer=`` switches from as-fast-as-possible to wall-clock pacing.

:func:`serve_stream` is the socket half: it serves a stream file's bytes
over TCP once, for :class:`~repro.streams.source.SocketReplaySource`
consumers (tests, demos, the ``replay --socket`` path).
"""

from __future__ import annotations

import dataclasses
import socket
import threading
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.streams.format import (
    StreamFormatError,
    StreamHeader,
    parse_header_line,
)
from repro.streams.source import FileReplaySource, WallClockPacer


def read_header(path) -> StreamHeader:
    """The header of a stream file (first line only; cheap)."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            line = handle.readline()
    except OSError as exc:
        raise StreamFormatError(f"cannot read stream {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StreamFormatError(f"stream {path} is not UTF-8 text: {exc}") from exc
    if not line.strip():
        raise StreamFormatError(f"stream {path} is empty")
    return parse_header_line(line)


def scenario_from_header(header, faults: Any = ...):
    """Rebuild the header's scenario, optionally with another fault schedule.

    ``faults`` uses ``...`` (Ellipsis) as the "keep the recorded schedule"
    sentinel, because ``None`` already means "strip faults".
    """
    from repro.sim.serialization import scenario_from_dict

    scenario = scenario_from_dict(header.scenario)
    if faults is not ...:
        scenario = scenario.with_faults(faults)
    return scenario


def open_replay_session(
    path,
    seed: Optional[int] = None,
    pacer: Optional[WallClockPacer] = None,
    faults: Any = ...,
    backend: Optional[str] = None,
    allow_partial: bool = False,
    tracer=None,
    metrics=None,
    ledger=None,
    **spec_fields,
):
    """Open ``SessionSpec(stream_path=path, seed=..., backend=..., **spec_fields)``.

    With no overrides the session reproduces the recorded run bitwise.
    ``faults`` (replace the recorded schedule) and ``allow_partial``
    (replay a truncated recording) hand the spec an explicit scenario.
    """
    from repro.sim.session import SessionSpec

    scenario = None
    if faults is not ... or allow_partial:
        source = FileReplaySource(path, allow_partial=allow_partial)
        scenario = scenario_from_header(source.header, faults=faults)
        if source.n_time_steps < scenario.n_time_steps:
            scenario = dataclasses.replace(
                scenario, n_time_steps=source.n_time_steps
            )
    spec = SessionSpec(
        scenario=scenario,
        stream_path=path,
        seed=seed,
        backend=backend,
        **spec_fields,
    )
    session = spec.open(tracer, metrics, ledger)
    session.source.pacer = pacer
    return session


def serve_stream(
    path, host: str = "127.0.0.1", port: int = 0
) -> Tuple[str, int, threading.Thread]:
    """Serve a stream file's bytes over TCP to one client, once.

    Returns ``(host, port, thread)`` with the server already listening,
    so callers can connect immediately; the daemon thread exits after the
    single transfer.
    """
    payload = Path(path).read_bytes()
    server = socket.create_server((host, port))
    bound_host, bound_port = server.getsockname()[:2]

    def _serve() -> None:
        try:
            conn, _ = server.accept()
            with conn:
                conn.sendall(payload)
        finally:
            server.close()

    thread = threading.Thread(target=_serve, name="stream-server", daemon=True)
    thread.start()
    return bound_host, bound_port, thread
