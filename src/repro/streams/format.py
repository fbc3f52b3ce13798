"""The ``repro-stream v1`` on-disk measurement-stream format.

A stream file is line-oriented JSON (JSONL): one header line followed by
one line per time step.  The header carries everything a replayer needs
to rebuild the consuming session -- the full scenario document (sensor
geometry, obstacles, localizer config, delivery model, fault schedule),
the seed the recording ran under, and a canonical config hash -- so a
stream file is self-describing: ``repro replay file.jsonl`` needs no
other input.

Header line::

    {"format": "repro-stream", "format_version": 1, "stream_id": ...,
     "seed": ..., "n_time_steps": ..., "dt_seconds": ...,
     "config_hash": ..., "scenario": {...}, "context": {...}}

Batch line (one per time step, in order)::

    {"t": <int>, "ts": <float seconds>, "measurements": [<measurement>...]}

Measurements use the canonical codec from
:mod:`repro.sensors.measurement` (alphabetical keys, ``repr``-round-trip
floats), and every line is serialized with :func:`canonical_dumps`
(sorted keys, no whitespace), so byte-identical runs produce
byte-identical stream files and a file's SHA-256 is a stable identity
the ledger and checkpoints can pin.

The recorded batches are the **raw generated measurements** -- before
fault injection and before transport reordering.  Replay re-applies the
header scenario's fault schedule and delivery model deterministically
(their RNGs derive from the seed, not from the measurement stream), which
is what makes a replayed run bitwise-identical to the live run while
still letting callers inject *different* faults over the same canned
stream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.sensors.measurement import (
    Measurement,
    measurement_from_dict,
    measurement_to_dict,
)

#: Stream document magic + version (independent of scenario/checkpoint
#: documents; bump on incompatible line-schema changes).
STREAM_FORMAT = "repro-stream"
STREAM_VERSION = 1


class StreamFormatError(RuntimeError):
    """A stream file/line is missing, malformed, or unsupported."""


class StreamTransportError(StreamFormatError):
    """The transport under a stream failed (dead peer, timeout, reset).

    Subclasses :class:`StreamFormatError` so existing handlers that treat
    "the stream broke" as one failure class keep working, while callers
    that care can distinguish a bad *peer* (retryable: reconnect, fail
    over) from bad *bytes* (not retryable: the stream itself is wrong).
    """


def canonical_dumps(value: Any) -> str:
    """Deterministic single-line JSON (sorted keys, no whitespace).

    Floats serialize via ``repr`` -- the shortest representation that
    parses back to the exact same double -- so canonical encoding is
    lossless, and equal documents always produce equal bytes.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass
class StreamHeader:
    """The self-description line at the top of every stream file."""

    #: Stable identity of the stream (ledger trend key, checkpoint pin).
    stream_id: str
    #: The seed the recording ran under; replaying with it reproduces the
    #: live run's transport/filter RNG streams bitwise.
    seed: int
    #: Number of batch lines a complete file contains.
    n_time_steps: int
    #: Wall-clock seconds per time step (drives wall-clock pacing).
    dt_seconds: float
    #: Full scenario document (``scenario_to_dict`` output).
    scenario: Dict[str, Any]
    #: Canonical hash of the scenario document.
    config_hash: str
    #: Free-form recording context (backend, argv, ...).
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": STREAM_FORMAT,
            "format_version": STREAM_VERSION,
            "stream_id": self.stream_id,
            "seed": int(self.seed),
            "n_time_steps": int(self.n_time_steps),
            "dt_seconds": float(self.dt_seconds),
            "config_hash": self.config_hash,
            "scenario": self.scenario,
            "context": self.context,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "StreamHeader":
        if not isinstance(doc, dict) or doc.get("format") != STREAM_FORMAT:
            raise StreamFormatError(
                f"not a {STREAM_FORMAT} header: {str(doc)[:80]!r}"
            )
        version = doc.get("format_version")
        if version != STREAM_VERSION:
            raise StreamFormatError(
                f"stream format version {version!r} is unsupported; this "
                f"build reads {STREAM_FORMAT} v{STREAM_VERSION}"
            )
        try:
            return cls(
                stream_id=str(doc["stream_id"]),
                seed=int(doc["seed"]),
                n_time_steps=int(doc["n_time_steps"]),
                dt_seconds=float(doc["dt_seconds"]),
                scenario=dict(doc["scenario"]),
                config_hash=str(doc["config_hash"]),
                context=dict(doc.get("context", {})),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StreamFormatError(
                f"stream header is missing/malformed field: {exc}"
            ) from exc


@dataclass
class StreamBatch:
    """One time step's raw measurement batch with its stream timestamp."""

    time_step: int
    #: Seconds since stream start (``time_step * dt_seconds`` for recorded
    #: simulations; real feeds carry whatever their clock said).
    timestamp: float
    measurements: List[Measurement]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t": int(self.time_step),
            "ts": float(self.timestamp),
            "measurements": [
                measurement_to_dict(m) for m in self.measurements
            ],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "StreamBatch":
        try:
            return cls(
                time_step=int(doc["t"]),
                timestamp=float(doc["ts"]),
                measurements=[
                    measurement_from_dict(m) for m in doc["measurements"]
                ],
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StreamFormatError(
                f"stream batch line is missing/malformed field: {exc}"
            ) from exc


def header_for_scenario(
    scenario,
    seed: int,
    stream_id: Optional[str] = None,
    dt_seconds: float = 1.0,
    context: Optional[Dict[str, Any]] = None,
) -> StreamHeader:
    """Build a stream header describing a recording of ``scenario``.

    The default stream id -- ``<name>-s<seed>-<hash8>`` -- is stable
    across re-recordings of the same configuration, which is what lets
    the ledger treat repeated recordings as one trend series.
    """
    from repro.obs.ledger import config_digest
    from repro.sim.serialization import scenario_to_dict

    doc = scenario_to_dict(scenario)
    config_hash = config_digest(doc)
    if stream_id is None:
        stream_id = f"{scenario.name}-s{seed}-{config_hash[:8]}"
    return StreamHeader(
        stream_id=stream_id,
        seed=int(seed),
        n_time_steps=int(scenario.n_time_steps),
        dt_seconds=float(dt_seconds),
        scenario=doc,
        config_hash=config_hash,
        context=dict(context or {}),
    )


def parse_header_line(line: str) -> StreamHeader:
    """Parse the first line of a stream (raises :class:`StreamFormatError`)."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StreamFormatError(
            f"stream header is not valid JSON: {exc}"
        ) from exc
    return StreamHeader.from_dict(doc)


def parse_batch_line(line: str) -> StreamBatch:
    """Parse one batch line (raises :class:`StreamFormatError`)."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StreamFormatError(
            f"stream batch line is not valid JSON: {exc}"
        ) from exc
    if not isinstance(doc, dict):
        raise StreamFormatError(
            f"stream batch line is not an object: {line[:80]!r}"
        )
    return StreamBatch.from_dict(doc)


def load_stream(
    path,
) -> Tuple[StreamHeader, List[StreamBatch], str]:
    """Read a whole stream file: ``(header, batches, sha256)``.

    The SHA-256 is computed over the file's raw bytes -- the same digest
    an incremental :class:`~repro.streams.recorder.Recorder` reports at
    close -- so checkpoints and manifests can pin the exact stream they
    consumed.  Batch lines must be consecutive time steps from 0.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise StreamFormatError(f"cannot read stream {path}: {exc}") from exc
    sha256 = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StreamFormatError(f"stream {path} is not UTF-8 text: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise StreamFormatError(f"stream {path} is empty")
    header = parse_header_line(lines[0])
    batches = [parse_batch_line(line) for line in lines[1:]]
    for expected, batch in enumerate(batches):
        if batch.time_step != expected:
            raise StreamFormatError(
                f"stream {path} batch {expected} carries time_step "
                f"{batch.time_step}; batches must be consecutive from 0"
            )
    return header, batches, sha256
