"""The one way sessions are built: :class:`repro.sim.session.SessionSpec`.

Covers the spec's JSON round trip and validation, the open-or-resume
rule, what a resume keeps (manifest name) and what a pre-spec checkpoint
may still carry (the retired session keys), the manifest every entry
point emits, and two flight-recorder paths: a checkpointed repeated run
and a quarantine storm.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.fusion import FixedFusionRange
from repro.faults.models import SpoofedCounts
from repro.faults.schedule import FaultSchedule
from repro.obs.flight import FlightRecorder, load_flight_dump
from repro.obs.ledger import Ledger
from repro.sim import session as session_mod
from repro.sim.runner import run_repeated
from repro.sim.serialization import CheckpointError
from repro.sim.session import (
    RETIRED_SESSION_KEYS,
    LocalizerSession,
    SessionSpec,
    with_config,
)
from tests.test_session_checkpoint import comparable, tiny_scenario

GOLDEN_A1 = str(Path(__file__).parent / "data" / "golden_stream_a1.stream.jsonl")


class TestJsonRoundTrip:
    def test_scenario_spec_round_trips_through_json(self):
        spec = SessionSpec(
            scenario=tiny_scenario(),
            seed=4,
            fusion_policy=FixedFusionRange(20.0),
            snapshot_steps=(1, 3),
            backend="fast",
            run_index=2,
            checkpoint_path="ck/a.ckpt.json",
            checkpoint_every=3,
            manifest_name="series",
        )
        doc = json.loads(json.dumps(spec.to_dict()))
        assert SessionSpec.from_dict(doc).to_dict() == spec.to_dict()

    def test_missing_keys_take_defaults(self):
        spec = SessionSpec.from_dict({"stream_path": GOLDEN_A1})
        assert spec == SessionSpec(stream_path=GOLDEN_A1)

    @pytest.mark.parametrize(
        "doc, match",
        [
            ({"stream_path": GOLDEN_A1, "checkpoint_evry": 5}, "unknown"),
            ({"stream_path": GOLDEN_A1, "seed": "7"}, "'seed' must be int"),
            ({"stream_path": GOLDEN_A1, "seed": True}, "'seed' must be int"),
            ({"stream_path": 3}, "'stream_path' must be str"),
            ({"stream_path": GOLDEN_A1, "checkpoint_every": None}, "int"),
            ({"scenario": {"name": "x"}}, "'scenario'"),
            ({"stream_path": GOLDEN_A1, "fusion_policy": {"type": "?"}},
             "'fusion_policy'"),
            ({"stream_path": GOLDEN_A1, "snapshot_steps": [1.5]},
             "snapshot_steps"),
            ({"stream_path": GOLDEN_A1, "backend": "numba"}, "backend"),
            (["not", "a", "dict"], "JSON object"),
        ],
    )
    def test_malformed_documents_raise_value_error(self, doc, match):
        with pytest.raises(ValueError, match=match):
            SessionSpec.from_dict(doc)


class TestOpenRule:
    def test_opens_fresh_then_resumes_once_the_checkpoint_exists(self, tmp_path):
        scenario = tiny_scenario()
        full = LocalizerSession(scenario, seed=3).run()
        spec = SessionSpec(
            scenario=scenario,
            seed=3,
            checkpoint_path=tmp_path / "s.ckpt.json",
            checkpoint_every=2,
        )
        assert not spec.resumable
        first = spec.open()
        for _ in range(3):
            first.step()
        assert spec.resumable
        resumed = spec.open()
        assert resumed.step_index == 2
        assert comparable(resumed.run()) == comparable(full)

    def test_spec_without_scenario_stream_or_checkpoint_raises(self, tmp_path):
        spec = SessionSpec(checkpoint_path=tmp_path / "missing.ckpt.json")
        with pytest.raises(ValueError, match="nothing to open"):
            spec.open()

    def test_stream_spec_defaults_to_the_header_seed_and_scenario(self):
        session = SessionSpec(stream_path=GOLDEN_A1).open()
        assert session.seed == session.source.header.seed
        assert session.scenario.name == session.source.header.scenario["name"]

    def test_n_particles_applies_to_fresh_opens(self):
        spec = SessionSpec(scenario=tiny_scenario(), n_particles=123)
        assert spec.open().scenario.localizer_config.n_particles == 123

    def test_manifest_name_survives_resume(self, tmp_path):
        path = tmp_path / "named.ckpt.json"
        session = SessionSpec(
            scenario=tiny_scenario(), seed=1, manifest_name="my-series"
        ).open()
        session.step()
        session.save_checkpoint(path)
        resumed = SessionSpec(checkpoint_path=path).open()
        assert resumed.manifest().name == "my-series"


class TestRetiredSessionKeys:
    def _checkpoint_with(self, tmp_path, **legacy):
        """A checkpoint whose session document carries pre-spec keys."""
        path = tmp_path / "legacy.ckpt.json"
        session = LocalizerSession(tiny_scenario(), seed=8)
        session.step()
        session.save_checkpoint(path)
        document = json.loads(path.read_text())
        document["state"]["session"].update(legacy)
        del document["state"]["session"]["manifest_name"]
        path.write_text(json.dumps(document))
        return path

    def test_legacy_document_at_the_hard_wired_values_resumes(self, tmp_path):
        full = LocalizerSession(tiny_scenario(), seed=8).run()
        path = self._checkpoint_with(tmp_path, **RETIRED_SESSION_KEYS)
        resumed = SessionSpec(checkpoint_path=path).open()
        assert comparable(resumed.run()) == comparable(full)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("match_radius", 20.0),
            ("record_health", False),
            ("convergence_tolerance", 1.5),
            ("convergence_checks", 2),
        ],
    )
    def test_any_other_value_raises(self, tmp_path, key, value):
        path = self._checkpoint_with(tmp_path, **{key: value})
        with pytest.raises(CheckpointError, match=key):
            SessionSpec(checkpoint_path=path).open()


class TestManifests:
    def _strip(self, manifest):
        doc = manifest.to_dict()
        for key in ("created_unix", "timings"):
            doc.pop(key)
        doc["metrics"].pop("iter_seconds")
        return doc

    def test_checkpointed_repeats_emit_the_plain_manifest(self, tmp_path):
        """The engine path and the plain path emit one manifest shape."""
        plain, checkpointed = Ledger(tmp_path / "a"), Ledger(tmp_path / "b")
        run_repeated(tiny_scenario(), n_repeats=1, base_seed=3, ledger=plain)
        run_repeated(
            tiny_scenario(), n_repeats=1, base_seed=3, ledger=checkpointed,
            checkpoint_every=2, checkpoint_dir=tmp_path / "ck",
        )
        (a,) = plain.read("session-tiny")
        (b,) = checkpointed.read("session-tiny")
        assert self._strip(a) == self._strip(b)
        assert {"backend", "backend_dtype", "spec_sha256"} <= set(a.context)

    def test_spec_hash_ignores_paths_and_cadence(self, tmp_path):
        base = SessionSpec(scenario=tiny_scenario(), seed=2)
        moved = replace(
            base,
            checkpoint_path=tmp_path / "x.ckpt.json", checkpoint_every=1,
            run_index=4,
        )
        assert base.open().spec_sha256() == moved.open().spec_sha256()
        assert base.open().spec_sha256() != replace(base, seed=3).open().spec_sha256()


class TestFlightRecorder:
    def test_checkpointed_repeated_run_writes_flight_dump(
        self, tmp_path, monkeypatch
    ):
        """--flight-dir also arms the checkpointed (engine) path."""
        real = session_mod.evaluate_step

        def failing(step, *args, **kwargs):
            if step == 2:
                raise RuntimeError("injected step failure")
            return real(step, *args, **kwargs)

        monkeypatch.setattr(session_mod, "evaluate_step", failing)
        with pytest.raises(RuntimeError, match="injected step failure"):
            run_repeated(
                tiny_scenario(), n_repeats=1, base_seed=1,
                checkpoint_every=1, checkpoint_dir=tmp_path / "ck",
                flight_dir=tmp_path / "flights",
            )
        dump = load_flight_dump(tmp_path / "flights" / "run-0.flight.json")
        assert dump["reason"] == "exception"
        assert dump["exception"]["type"] == "RuntimeError"

    def test_quarantine_storm_dumps_once_and_the_run_finishes(
        self, tmp_path, monkeypatch
    ):
        spoofed = FaultSchedule(
            models=(
                SpoofedCounts(
                    sensor_ids=(0, 1, 2, 3, 4, 5), low=3000.0, high=6000.0
                ),
            ),
            seed=1,
        )
        scenario = with_config(
            tiny_scenario(n_time_steps=8).with_faults(spoofed), integrity=True
        )
        dumps = []
        real_dump = FlightRecorder.dump

        def counting(self, path, reason, *args, **kwargs):
            dumps.append(reason)
            return real_dump(self, path, reason, *args, **kwargs)

        monkeypatch.setattr(FlightRecorder, "dump", counting)
        flight_path = tmp_path / "storm.flight.json"
        session = SessionSpec(
            scenario=scenario, seed=2, flight_path=flight_path
        ).open()
        result = session.run()
        assert result.n_steps == scenario.n_time_steps
        quarantined = len(session.localizer.credibility.quarantined_ids())
        assert quarantined >= 0.25 * len(scenario.sensors)
        assert dumps == ["quarantine_storm"]
        document = load_flight_dump(flight_path)
        assert document["reason"] == "quarantine_storm"
        assert document["context"]["quarantined"] >= 4

