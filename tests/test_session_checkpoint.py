"""Checkpoint/restore tests for :mod:`repro.sim.session`.

The hard bar here is **resume parity**: a run checkpointed at step ``t``
and restored -- in-process or in a fresh interpreter -- must emit
bitwise-identical remaining step records to the uninterrupted run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import LocalizerConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer
from repro.physics.source import RadiationSource
from repro.sensors.placement import grid_placement
from repro.sim.runner import run_scenario
from repro.sim.scenario import Scenario
from repro.sim.scenarios import scenario_a, scenario_c, scenario_c_fusion_policy
from repro.sim.serialization import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    step_record_to_dict,
)
from repro.sim.session import LocalizerSession, SessionSpec


def tiny_scenario(**kwargs) -> Scenario:
    defaults = dict(
        name="session-tiny",
        area=(60.0, 60.0),
        sources=[RadiationSource(22.0, 38.0, 10.0, label="S1")],
        sensors=grid_placement(
            4, 4, 60.0, 60.0, efficiency=1e-4, background_cpm=5.0,
            margin_fraction=0.0,
        ),
        background_cpm=5.0,
        n_time_steps=5,
        localizer_config=LocalizerConfig(
            area=(60.0, 60.0), n_particles=400, assumed_background_cpm=5.0
        ),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def comparable(result):
    """Step records as comparable dicts, wall-clock timings excluded."""
    out = []
    for record in result.steps:
        doc = step_record_to_dict(record)
        doc.pop("mean_iteration_seconds")
        out.append(doc)
    return out


class TestSessionBasics:
    def test_session_matches_runner(self):
        scenario = tiny_scenario()
        via_runner = run_scenario(scenario, seed=5)
        via_session = LocalizerSession(scenario, seed=5).run()
        assert comparable(via_runner) == comparable(via_session)

    def test_step_by_step_matches_run(self):
        scenario = tiny_scenario()
        whole = LocalizerSession(scenario, seed=5).run()
        session = LocalizerSession(scenario, seed=5)
        while not session.finished:
            session.step()
        assert comparable(whole) == comparable(session.result())

    def test_step_after_finish_raises(self):
        session = LocalizerSession(tiny_scenario(n_time_steps=2), seed=1)
        session.run()
        with pytest.raises(RuntimeError, match="already finished"):
            session.step()

    def test_partial_result_grows_with_steps(self):
        session = LocalizerSession(tiny_scenario(), seed=5)
        assert session.result().n_steps == 0
        session.step()
        assert session.result().n_steps == 1
        assert not session.finished

    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            LocalizerSession(tiny_scenario(), checkpoint_every=2)
        with pytest.raises(ValueError, match=">= 0"):
            LocalizerSession(tiny_scenario(), checkpoint_every=-1)


def resume_parity_case(scenario, fusion_policy, seed, split, tmp_path):
    full = LocalizerSession(scenario, seed=seed, fusion_policy=fusion_policy).run()
    session = LocalizerSession(scenario, seed=seed, fusion_policy=fusion_policy)
    for _ in range(split):
        session.step()
    path = tmp_path / f"split{split}.ckpt.json"
    session.save_checkpoint(path)
    resumed = SessionSpec(checkpoint_path=path).open().run()
    assert comparable(full) == comparable(resumed)


class TestResumeParity:
    @pytest.mark.parametrize("split", [1, 2, 4])
    def test_scenario_a(self, split, tmp_path):
        scenario = scenario_a(n_particles=800, n_time_steps=5)
        resume_parity_case(scenario, None, 7, split, tmp_path)

    @pytest.mark.parametrize("split", [1, 2, 4])
    def test_scenario_c_out_of_order(self, split, tmp_path):
        scenario = scenario_c(n_particles=1200, n_time_steps=5)
        policy = scenario_c_fusion_policy(scenario)
        resume_parity_case(scenario, policy, 3, split, tmp_path)

    def test_tiny_with_snapshots_and_convergence(self, tmp_path):
        scenario = tiny_scenario(n_time_steps=6)
        kwargs = dict(seed=11, snapshot_steps=(1, 4))
        full = LocalizerSession(scenario, **kwargs).run()
        session = LocalizerSession(scenario, **kwargs)
        for _ in range(3):
            session.step()
        path = tmp_path / "mid.ckpt.json"
        session.save_checkpoint(path)
        resumed = SessionSpec(checkpoint_path=path).open().run()
        assert comparable(full) == comparable(resumed)
        assert [s.converged for s in full.steps] == [
            s.converged for s in resumed.steps
        ]

    def test_fresh_process_restore(self, tmp_path):
        """The real crash-recovery story: restore in a new interpreter."""
        scenario = scenario_a(n_particles=600, n_time_steps=5)
        full = LocalizerSession(scenario, seed=9).run()
        session = LocalizerSession(scenario, seed=9)
        session.step()
        session.step()
        path = tmp_path / "proc.ckpt.json"
        session.save_checkpoint(path)
        script = (
            "import json, sys\n"
            "from repro.sim.session import SessionSpec\n"
            "from repro.sim.serialization import step_record_to_dict\n"
            "result = SessionSpec(checkpoint_path=sys.argv[1]).open().run()\n"
            "docs = [step_record_to_dict(s) for s in result.steps]\n"
            "for d in docs: d.pop('mean_iteration_seconds')\n"
            "print(json.dumps(docs))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert json.loads(proc.stdout) == comparable(full)


class TestAutoCheckpoint:
    def test_cadence_and_resume(self, tmp_path):
        scenario = tiny_scenario(n_time_steps=6)
        path = tmp_path / "auto.ckpt.json"
        full = LocalizerSession(scenario, seed=2).run()
        session = LocalizerSession(
            scenario, seed=2, checkpoint_every=2, checkpoint_path=path
        )
        session.step()
        assert not path.exists()  # cadence not reached yet
        session.step()
        assert path.exists()
        state = load_checkpoint(path)
        assert state["session"]["step_index"] == 2
        resumed = SessionSpec(checkpoint_path=path).open().run()
        assert comparable(full) == comparable(resumed)

    def test_obs_events_and_counters(self, tmp_path):
        scenario = tiny_scenario(n_time_steps=4)
        path = tmp_path / "obs.ckpt.json"
        sink = InMemorySink()
        registry = MetricsRegistry()
        LocalizerSession(
            scenario, seed=2, tracer=Tracer(sink), metrics=registry,
            checkpoint_every=1, checkpoint_path=path,
        ).run()
        events = [r["type"] for r in sink.records]
        assert events.count("checkpoint") == 3  # steps 1, 2, 3; step 4 finishes
        checkpoint = next(r for r in sink.records if r["type"] == "checkpoint")
        assert checkpoint["bytes"] > 0 and checkpoint["path"] == str(path)
        snapshot = registry.snapshot()
        assert snapshot["checkpoint.writes"]["value"] == 3
        assert snapshot["checkpoint.bytes"]["value"] > 0

        sink2 = InMemorySink()
        registry2 = MetricsRegistry()
        SessionSpec(checkpoint_path=path).open(
            tracer=Tracer(sink2), metrics=registry2
        ).run()
        assert [r["type"] for r in sink2.records if r["type"] == "restore"] == [
            "restore"
        ]
        assert "run_start" not in [r["type"] for r in sink2.records]
        assert registry2.snapshot()["checkpoint.restores"]["value"] == 1


class TestCheckpointDocument:
    def test_round_trips_with_sidecar(self, tmp_path):
        session = LocalizerSession(tiny_scenario(), seed=4)
        session.step()
        path = tmp_path / "doc.ckpt.json"
        nbytes = session.save_checkpoint(path)
        assert nbytes == (
            path.stat().st_size + (tmp_path / "doc.ckpt.json.npz").stat().st_size
        )
        document = json.loads(path.read_text())
        assert document["format"] == "repro-checkpoint"
        assert document["format_version"] == 1
        assert document["arrays_file"] == "doc.ckpt.json.npz"

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.ckpt.json"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "magic.ckpt.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError, match="not a repro-checkpoint"):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        session = LocalizerSession(tiny_scenario(), seed=4)
        path = tmp_path / "ver.ckpt.json"
        session.save_checkpoint(path)
        document = json.loads(path.read_text())
        document["format_version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="format version 99"):
            load_checkpoint(path)

    def test_missing_sidecar(self, tmp_path):
        session = LocalizerSession(tiny_scenario(), seed=4)
        path = tmp_path / "side.ckpt.json"
        session.save_checkpoint(path)
        (tmp_path / "side.ckpt.json.npz").unlink()
        with pytest.raises(CheckpointError, match="sidecar .* is missing"):
            load_checkpoint(path)

    def test_corrupted_sidecar(self, tmp_path):
        session = LocalizerSession(tiny_scenario(), seed=4)
        path = tmp_path / "corrupt.ckpt.json"
        session.save_checkpoint(path)
        sidecar = tmp_path / "corrupt.ckpt.json.npz"
        sidecar.write_bytes(sidecar.read_bytes()[:-7] + b"garbage")
        with pytest.raises(CheckpointError, match="SHA-256 mismatch"):
            load_checkpoint(path)

    def test_save_load_state_dict_directly(self, tmp_path):
        session = LocalizerSession(tiny_scenario(), seed=4)
        session.step()
        path = tmp_path / "direct.ckpt.json"
        save_checkpoint(session.export_state(), path)
        restored = LocalizerSession.from_state(load_checkpoint(path))
        assert restored.step_index == 1
        assert restored.scenario.name == session.scenario.name
