"""Record -> replay parity tests for the ingestion seam.

The hard bar (ISSUE PR 9): a live run recorded to a ``repro-stream v1``
file and replayed from that file must reproduce the live step records and
estimates **bitwise** -- including across a mid-stream checkpoint/resume
split, from a moved stream file, and over a socket.
"""

import json
import socket
import threading

import pytest

from repro.faults.models import DropoutWindow, SpoofedCounts
from repro.faults.schedule import FaultSchedule
from repro.sim.session import LocalizerSession, SessionSpec
from repro.streams import (
    FileReplaySource,
    SocketReplaySource,
    StreamFormatError,
    StreamTransportError,
    WallClockPacer,
    load_stream,
    open_replay_session,
    read_header,
    serve_stream,
)
from tests.test_session_checkpoint import comparable, tiny_scenario

FAULTS = FaultSchedule(
    models=(
        DropoutWindow(sensor_ids=(3, 7), start=1, end=3),
        SpoofedCounts(sensor_ids=(1,), low=150.0, high=300.0, start=0),
    ),
    seed=5,
)


def record_run(tmp_path, scenario=None, seed=11, name="live.stream.jsonl"):
    """(stream path, live result) for a recorded tiny-scenario run."""
    scenario = scenario or tiny_scenario()
    path = tmp_path / name
    session = LocalizerSession(scenario, seed=seed, record_path=path)
    result = session.run()
    return path, result


class TestRecordReplayParity:
    def test_replay_reproduces_live_run_bitwise(self, tmp_path):
        path, live = record_run(tmp_path)
        replay = open_replay_session(path).run()
        assert comparable(replay) == comparable(live)

    def test_recording_is_deterministic(self, tmp_path):
        a, _ = record_run(tmp_path, name="a.jsonl")
        b, _ = record_run(tmp_path, name="b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_replay_with_faults_reproduces_faulted_run(self, tmp_path):
        scenario = tiny_scenario(faults=FAULTS)
        path, live = record_run(tmp_path, scenario=scenario)
        # The stream holds the *raw* pre-fault batches; the replay
        # re-applies the recorded schedule deterministically.
        replay = open_replay_session(path).run()
        assert comparable(replay) == comparable(live)

    def test_recorded_stream_is_prefault(self, tmp_path):
        clean = tiny_scenario()
        faulted = tiny_scenario(faults=FAULTS)
        p_clean, _ = record_run(tmp_path, scenario=clean, name="c.jsonl")
        p_fault, _ = record_run(tmp_path, scenario=faulted, name="f.jsonl")
        _, clean_batches, _ = load_stream(p_clean)
        _, fault_batches, _ = load_stream(p_fault)
        assert [b.measurements for b in clean_batches] == [
            b.measurements for b in fault_batches
        ]

    def test_swapped_faults_over_recorded_stream(self, tmp_path):
        path, live = record_run(tmp_path)
        swapped = open_replay_session(path, faults=FAULTS).run()
        stripped = open_replay_session(path, faults=None).run()
        assert comparable(stripped) == comparable(live)
        assert comparable(swapped) != comparable(live)

    def test_replay_seed_override_changes_downstream_rng(self, tmp_path):
        path, live = record_run(tmp_path)
        other = open_replay_session(path, seed=999).run()
        assert comparable(other) != comparable(live)

    def test_replay_checkpoint_resume_parity(self, tmp_path):
        path, live = record_run(tmp_path)
        ckpt = tmp_path / "replay.ckpt.json"
        session = open_replay_session(
            path, checkpoint_every=2, checkpoint_path=ckpt
        )
        for _ in range(3):
            session.step()
        del session
        resumed = SessionSpec(checkpoint_path=ckpt).open()
        assert resumed.step_index == 2
        result = resumed.run()
        assert comparable(result) == comparable(live)

    def test_resume_from_moved_stream_file(self, tmp_path):
        path, live = record_run(tmp_path)
        ckpt = tmp_path / "replay.ckpt.json"
        session = open_replay_session(
            path, checkpoint_every=2, checkpoint_path=ckpt
        )
        for _ in range(2):
            session.step()
        del session
        moved = tmp_path / "elsewhere" / "moved.stream.jsonl"
        moved.parent.mkdir()
        moved.write_bytes(path.read_bytes())
        path.unlink()
        resumed = SessionSpec(checkpoint_path=ckpt, stream_path=moved).open()
        assert comparable(resumed.run()) == comparable(live)

    def test_resume_rejects_tampered_stream(self, tmp_path):
        path, _ = record_run(tmp_path)
        ckpt = tmp_path / "replay.ckpt.json"
        session = open_replay_session(
            path, checkpoint_every=2, checkpoint_path=ckpt
        )
        for _ in range(2):
            session.step()
        del session
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["measurements"][0]["cpm"] += 1.0
        lines[1] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StreamFormatError, match="sha256"):
            SessionSpec(checkpoint_path=ckpt).open()

    def test_socket_replay_parity(self, tmp_path):
        path, live = record_run(tmp_path)
        host, port, thread = serve_stream(path)
        source = SocketReplaySource.connect(host, port)
        scenario = tiny_scenario()
        replay = LocalizerSession(scenario, seed=11, source=source).run()
        thread.join(timeout=5)
        assert comparable(replay) == comparable(live)


class TestReplaySourceBehaviour:
    def test_manifest_records_stream_identity(self, tmp_path):
        path, _ = record_run(tmp_path)
        header, _, sha = load_stream(path)
        session = open_replay_session(path)
        session.run()
        manifest = session.manifest()
        assert manifest.context["source_kind"] == "file-replay"
        assert manifest.context["stream_id"] == header.stream_id
        assert manifest.context["stream_sha256"] == sha

    def test_recording_manifest_carries_stream_identity(self, tmp_path):
        scenario = tiny_scenario()
        path = tmp_path / "rec.jsonl"
        session = LocalizerSession(scenario, seed=11, record_path=path)
        session.run()
        manifest = session.manifest()
        _, _, sha = load_stream(path)
        assert manifest.context["recorded_stream_sha256"] == sha
        assert "stream_id" not in manifest.context  # live run, not a replay

    def test_short_stream_rejected_without_allow_partial(self, tmp_path):
        path, _ = record_run(tmp_path, scenario=tiny_scenario(n_time_steps=3))
        long_scenario = tiny_scenario(n_time_steps=5)
        with pytest.raises(ValueError, match="3"):
            LocalizerSession(
                long_scenario, seed=11, source=FileReplaySource(path)
            )

    def test_allow_partial_shrinks_run(self, tmp_path):
        path, _ = record_run(tmp_path)
        lines = path.read_text().splitlines()
        short = tmp_path / "short.jsonl"
        short.write_text("\n".join(lines[:4]) + "\n")  # header + 3 batches
        session = open_replay_session(short, allow_partial=True)
        result = session.run()
        assert len(result.steps) == 3

    def test_exhausted_stream_raises(self, tmp_path):
        path, _ = record_run(tmp_path)
        source = FileReplaySource(path)
        scenario = tiny_scenario()
        for t in range(scenario.n_time_steps):
            source.read(t)
        with pytest.raises(StreamFormatError, match="exhausted"):
            source.read(scenario.n_time_steps)

    def test_pacer_waits_on_recorded_timestamps(self):
        waits = []
        now = [100.0]

        def clock():
            return now[0]

        def sleep(seconds):
            waits.append(seconds)
            now[0] += seconds

        pacer = WallClockPacer(speed=2.0, clock=clock, sleep=sleep)
        pacer.wait(0.0)  # anchors, no sleep
        pacer.wait(1.0)  # 1s of stream time at 2x -> 0.5s wall
        pacer.wait(2.0)
        assert waits == pytest.approx([0.5, 0.5])

    def test_read_header_reads_only_first_line(self, tmp_path):
        path, _ = record_run(tmp_path)
        header = read_header(path)
        full_header, _, _ = load_stream(path)
        assert header == full_header


def _one_shot_server(handler):
    """Serve one connection with ``handler(conn)``; return (host, port)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()

    def run():
        conn, _ = listener.accept()
        try:
            handler(conn)
        finally:
            conn.close()
            listener.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return host, port, thread


class TestSocketTransportHardening:
    """A dead or stalled peer must fail fast with a typed error."""

    def test_transport_error_is_a_stream_format_error(self):
        assert issubclass(StreamTransportError, StreamFormatError)

    def test_refused_connection_raises_typed_error(self):
        # Bind-then-close guarantees the port exists but nothing listens.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        _, dead_port = probe.getsockname()
        probe.close()
        with pytest.raises(StreamTransportError, match="cannot connect"):
            SocketReplaySource.connect("127.0.0.1", dead_port, timeout=1.0)

    def test_stalled_peer_header_times_out(self, tmp_path):
        stop = threading.Event()

        def never_speaks(conn):
            stop.wait(timeout=10.0)

        host, port, _ = _one_shot_server(never_speaks)
        try:
            with pytest.raises(StreamTransportError, match="timed out"):
                SocketReplaySource.connect(host, port, read_timeout=0.2)
        finally:
            stop.set()

    def test_stalled_peer_batch_times_out(self, tmp_path):
        path, _ = record_run(tmp_path)
        header_line = path.read_text().splitlines()[0]
        stop = threading.Event()

        def header_then_silence(conn):
            conn.sendall((header_line + "\n").encode("utf-8"))
            stop.wait(timeout=10.0)

        host, port, _ = _one_shot_server(header_then_silence)
        try:
            source = SocketReplaySource.connect(host, port, read_timeout=0.2)
            with pytest.raises(StreamTransportError, match="timed out"):
                source.read(0)
            source.close()
        finally:
            stop.set()

    def test_reset_peer_raises_typed_error(self, tmp_path):
        path, _ = record_run(tmp_path)
        header_line = path.read_text().splitlines()[0]

        def header_then_reset(conn):
            conn.sendall((header_line + "\n").encode("utf-8"))
            # SO_LINGER with zero timeout turns close() into a TCP RST.
            conn.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",
            )

        host, port, thread = _one_shot_server(header_then_reset)
        # The RST can reach the client before its connect() returns (the
        # server accepts, sends and resets without waiting); the dial
        # must then raise the same typed error the read would.
        try:
            source = SocketReplaySource.connect(host, port, read_timeout=2.0)
        except StreamTransportError:
            return
        thread.join(timeout=5.0)
        with pytest.raises((StreamTransportError, StreamFormatError)):
            source.read(0)
        source.close()

    def test_clean_eof_is_format_error_not_transport(self, tmp_path):
        path, _ = record_run(tmp_path)
        header_line = path.read_text().splitlines()[0]

        def header_then_close(conn):
            conn.sendall((header_line + "\n").encode("utf-8"))

        host, port, thread = _one_shot_server(header_then_close)
        source = SocketReplaySource.connect(host, port, read_timeout=2.0)
        thread.join(timeout=5.0)
        with pytest.raises(StreamFormatError, match="closed at time"):
            source.read(0)
        source.close()

    def test_healthy_socket_replay_still_bitwise(self, tmp_path):
        path, live = record_run(tmp_path)
        host, port, thread = serve_stream(path)
        source = SocketReplaySource.connect(host, port, read_timeout=5.0)
        replay = LocalizerSession(tiny_scenario(), seed=11, source=source).run()
        thread.join(timeout=5)
        assert comparable(replay) == comparable(live)


class TestStreamSweepCells:
    def test_of_streams_replays_bitwise_through_engine(self, tmp_path):
        from repro.exp.engine import run_sweep
        from repro.exp.spec import SweepSpec

        path, live = record_run(tmp_path)
        header = read_header(path)
        spec = SweepSpec.of_streams([str(path)], n_repeats=1)
        assert spec.variants[0].name == header.stream_id
        assert spec.variants[0].base_seed == header.seed
        sweep = run_sweep(spec, workers=0)
        replayed = sweep[header.stream_id].runs[0]
        assert comparable(replayed) == comparable(live)

    def test_of_streams_parallel_worker(self, tmp_path):
        from repro.exp.engine import run_sweep
        from repro.exp.spec import SweepSpec

        path, live = record_run(tmp_path)
        header = read_header(path)
        spec = SweepSpec.of_streams([str(path)], n_repeats=1)
        sweep = run_sweep(spec, workers=1)
        replayed = sweep[header.stream_id].runs[0]
        assert comparable(replayed) == comparable(live)

    def test_stream_cell_checkpoint_resume(self, tmp_path):
        from repro.exp.engine import run_cells
        from repro.exp.spec import SweepSpec

        path, live = record_run(tmp_path)
        spec = SweepSpec.of_streams([str(path)], n_repeats=1)
        ckpt_dir = tmp_path / "ckpts"
        runs = run_cells(
            spec.cells(),
            workers=0,
            checkpoint_every=2,
            checkpoint_dir=ckpt_dir,
        )
        assert comparable(runs[0]) == comparable(live)


class TestTrendsStreamFilter:
    def test_filter_by_stream(self):
        from repro.obs.ledger import RunManifest
        from repro.obs.trends import filter_by_stream, manifest_stream_id

        def manifest(context):
            return RunManifest(
                kind="session",
                name="series",
                created_unix=0.0,
                seeds=(0,),
                metrics={"final_ospa": 1.0},
                context=context,
            )

        live = manifest({})
        replay_a = manifest({"stream_id": "A-s0-deadbeef"})
        replay_b = manifest({"stream_id": "B-s0-cafef00d"})
        history = [live, replay_a, replay_b]
        assert filter_by_stream(history, None) == history
        assert filter_by_stream(history, "live") == [live]
        assert filter_by_stream(history, "A-s0-deadbeef") == [replay_a]
        assert manifest_stream_id(live) is None
        assert manifest_stream_id(replay_b) == "B-s0-cafef00d"
