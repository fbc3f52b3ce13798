"""Tests for the ``repro-stream v1`` format and measurement codec.

The bar for the codec is **losslessness**: every finite float survives a
JSON round trip bit-for-bit (Python's ``repr`` emits the shortest
round-tripping decimal), and the canonical serialization is stable
(sorted keys, no whitespace) so recorded bytes -- and therefore stream
sha256 digests -- are reproducible.
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors.measurement import (
    Measurement,
    measurement_from_dict,
    measurement_to_dict,
)
from repro.streams import (
    Recorder,
    StreamBatch,
    StreamFormatError,
    StreamHeader,
    canonical_dumps,
    header_for_scenario,
    load_stream,
    parse_batch_line,
    parse_header_line,
    read_header,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
coords = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
cpms = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)

measurements = st.builds(
    Measurement,
    sensor_id=st.integers(min_value=0, max_value=10_000),
    x=coords,
    y=coords,
    cpm=cpms,
    time_step=st.integers(min_value=0, max_value=100_000),
    sequence=st.integers(min_value=0, max_value=10_000_000),
)


class TestMeasurementCodec:
    @given(measurements)
    @settings(max_examples=200)
    def test_round_trip_is_lossless(self, m):
        doc = measurement_to_dict(m)
        again = measurement_from_dict(json.loads(canonical_dumps(doc)))
        assert again == m
        # Bitwise, not approximately: the replay path depends on it.
        assert math.copysign(1.0, again.cpm) == math.copysign(1.0, m.cpm)
        assert again.x.hex() == m.x.hex()
        assert again.y.hex() == m.y.hex()
        assert again.cpm.hex() == m.cpm.hex()

    @given(measurements)
    @settings(max_examples=50)
    def test_canonical_form_is_stable(self, m):
        doc = measurement_to_dict(m)
        shuffled = {k: doc[k] for k in reversed(list(doc))}
        assert canonical_dumps(doc) == canonical_dumps(shuffled)

    def test_keys_are_sorted_and_compact(self):
        m = Measurement(sensor_id=3, x=1.5, y=2.5, cpm=10.0, time_step=0, sequence=0)
        text = canonical_dumps(measurement_to_dict(m))
        assert ": " not in text and ", " not in text
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_shortest_repr_survives(self):
        # 0.1 has no exact binary representation; repr round-trips it.
        m = Measurement(
            sensor_id=0, x=0.1, y=0.3, cpm=1e-300, time_step=0, sequence=0
        )
        again = measurement_from_dict(
            json.loads(canonical_dumps(measurement_to_dict(m)))
        )
        assert (again.x, again.y, again.cpm) == (0.1, 0.3, 1e-300)


class TestHeaderAndBatchCodec:
    def _header(self, **kwargs):
        from tests.test_session_checkpoint import tiny_scenario

        return header_for_scenario(tiny_scenario(), seed=7, **kwargs)

    def test_header_round_trip(self):
        header = self._header(context={"note": "golden"})
        again = StreamHeader.from_dict(
            json.loads(canonical_dumps(header.to_dict()))
        )
        # Canonical bytes are the round-trip contract (a JSON pass turns
        # tuples into lists, so dataclass equality is too strict here).
        assert canonical_dumps(again.to_dict()) == canonical_dumps(
            header.to_dict()
        )
        assert (again.stream_id, again.seed, again.config_hash) == (
            header.stream_id,
            header.seed,
            header.config_hash,
        )

    def test_header_line_round_trip(self):
        header = self._header()
        line = canonical_dumps(header.to_dict())
        assert canonical_dumps(
            parse_header_line(line).to_dict()
        ) == line

    def test_default_stream_id_embeds_config_hash(self):
        header = self._header()
        assert header.config_hash[:8] in header.stream_id
        assert header.stream_id.startswith("session-tiny")

    def test_batch_round_trip(self):
        batch = StreamBatch(
            time_step=4,
            timestamp=4.0,
            measurements=[
                Measurement(
                    sensor_id=1, x=3.0, y=4.0, cpm=7.5, time_step=4, sequence=9
                )
            ],
        )
        assert parse_batch_line(canonical_dumps(batch.to_dict())) == batch

    def test_bad_header_rejected(self):
        with pytest.raises(StreamFormatError, match="repro-stream"):
            parse_header_line(json.dumps({"format": "nope", "version": 1}))
        with pytest.raises(StreamFormatError):
            parse_header_line("not json at all")
        line = canonical_dumps(self._header().to_dict())
        assert '"seed":7' in line
        with pytest.raises(StreamFormatError, match="malformed field"):
            parse_header_line(line.replace('"seed":7', '"seed":1e400'))


class TestRecorderAndLoad:
    def _record(self, tmp_path, n_steps=3):
        from tests.test_session_checkpoint import tiny_scenario

        scenario = tiny_scenario(n_time_steps=n_steps)
        path = tmp_path / "s.stream.jsonl"
        with Recorder.for_scenario(path, scenario, seed=1) as recorder:
            for t in range(n_steps):
                recorder.record(
                    t,
                    [
                        Measurement(
                            sensor_id=0,
                            x=1.0,
                            y=2.0,
                            cpm=5.0,
                            time_step=t,
                            sequence=t,
                        )
                    ],
                )
        return path, recorder

    def test_load_round_trip_and_sha(self, tmp_path):
        path, recorder = self._record(tmp_path)
        header, batches, sha = load_stream(path)
        assert [b.time_step for b in batches] == [0, 1, 2]
        assert sha == recorder.sha256
        assert sha == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_recorder_rejects_gaps(self, tmp_path):
        from tests.test_session_checkpoint import tiny_scenario

        recorder = Recorder.for_scenario(
            tmp_path / "gap.jsonl", tiny_scenario(), seed=0
        )
        recorder.record(0, [])
        with pytest.raises(ValueError, match="expected time step 1"):
            recorder.record(2, [])

    def test_load_rejects_nonconsecutive_steps(self, tmp_path):
        path, _ = self._record(tmp_path)
        lines = path.read_text().splitlines()
        del lines[2]  # drop the t=1 batch
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StreamFormatError, match="time_step"):
            load_stream(path)

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text('{"t":0,"ts":0.0,"measurements":[]}\n')
        with pytest.raises(StreamFormatError):
            load_stream(path)

    def test_load_rejects_non_utf8_batch_line(self, tmp_path):
        path, _ = self._record(tmp_path)
        raw = path.read_bytes().splitlines(keepends=True)
        raw[1] = raw[1].replace(b'"measurements"', b'"measurements\xff"')
        path.write_bytes(b"".join(raw))
        with pytest.raises(StreamFormatError, match="not UTF-8"):
            load_stream(path)

    def test_read_header_rejects_non_utf8_header(self, tmp_path):
        path, _ = self._record(tmp_path)
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(StreamFormatError, match="not UTF-8"):
            read_header(path)

    def test_load_rejects_overflowing_integer_field(self, tmp_path):
        # JSON's 1e400 parses as inf, and int(inf) raises OverflowError.
        path, _ = self._record(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"sensor_id":0', '"sensor_id":1e400')
        assert "1e400" in lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StreamFormatError, match="malformed field"):
            load_stream(path)
