"""Fault-injection subsystem: models, schedules, injectors, codecs.

The robustness contract has three legs, each pinned here:

* **Pure, windowed transforms** -- every fault model is a deterministic
  function of ``(batch, context)`` that never mutates its input and only
  acts inside its ``[start, end)`` window.
* **Determinism** -- an injector's randomness comes solely from
  ``(schedule.seed, run_seed)``: the same pair replays the same faults,
  an empty schedule leaves a session bitwise-identical to a fault-free
  one, and injector state round-trips through checkpoints.
* **Codec fixed point** -- ``to_dict(from_dict(doc)) == doc``, matching
  the link/delivery codecs in :mod:`repro.sim.serialization`.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import LocalizerConfig
from repro.faults import (
    BackgroundDrift,
    CorruptedMessages,
    DropoutWindow,
    DuplicatedMessages,
    EfficiencyDrift,
    FaultContext,
    FaultSchedule,
    NetworkPartition,
    SensorDeath,
    SpoofedCounts,
    StuckCounter,
    fault_model_from_dict,
    fault_model_to_dict,
    fault_schedule_from_dict,
    fault_schedule_to_dict,
    load_fault_schedule,
    save_fault_schedule,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer
from repro.physics.source import RadiationSource
from repro.sensors.measurement import Measurement
from repro.sensors.placement import grid_placement
from repro.sim.scenario import Scenario
from repro.sim.serialization import (
    scenario_from_dict,
    scenario_to_dict,
    step_record_to_dict,
)
from repro.sim.session import LocalizerSession, SessionSpec


def batch(time_step=0, n=4, cpm=100.0):
    return [
        Measurement(
            sensor_id=i, x=float(i), y=0.0, cpm=cpm,
            time_step=time_step, sequence=time_step * n + i,
        )
        for i in range(n)
    ]


def ctx_for(model, time_step=0, seed=0):
    return FaultContext(
        time_step=time_step,
        rng=np.random.default_rng(seed),
        state=model.initial_state(),
    )


def tiny_scenario(**kwargs) -> Scenario:
    defaults = dict(
        name="fault-tiny",
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


class TestFaultModels:
    def test_death_removes_targets_from_at_step_on(self):
        model = SensorDeath(sensor_ids=(1, 3), at_step=2)
        early = model.apply(batch(time_step=1), ctx_for(model, 1))
        assert [m.sensor_id for m in early] == [0, 1, 2, 3]
        ctx = ctx_for(model, 2)
        late = model.apply(batch(time_step=2), ctx)
        assert [m.sensor_id for m in late] == [0, 2]
        assert ctx.counts == {"death": 2}

    def test_dropout_window_is_half_open(self):
        model = DropoutWindow(sensor_ids=(0,), start=1, end=3)
        for step, expect in [(0, 4), (1, 3), (2, 3), (3, 4)]:
            out = model.apply(batch(time_step=step), ctx_for(model, step))
            assert len(out) == expect, f"step {step}"

    def test_stuck_counter_freezes_first_in_window_value(self):
        model = StuckCounter(sensor_ids=(2,), start=1)
        state = model.initial_state()
        rng = np.random.default_rng(0)
        first = [
            Measurement(sensor_id=2, x=2.0, y=0.0, cpm=77.0,
                        time_step=1, sequence=0)
        ]
        ctx1 = FaultContext(time_step=1, rng=rng, state=state)
        out1 = model.apply(first, ctx1)
        assert out1[0].cpm == 77.0  # the capture step passes through
        ctx2 = FaultContext(time_step=2, rng=rng, state=state)
        out2 = model.apply(batch(time_step=2, cpm=500.0), ctx2)
        frozen = [m for m in out2 if m.sensor_id == 2]
        assert frozen[0].cpm == 77.0
        assert ctx2.counts == {"stuck": 1}
        # Non-targets are untouched.
        assert all(m.cpm == 500.0 for m in out2 if m.sensor_id != 2)

    def test_efficiency_drift_compounds(self):
        model = EfficiencyDrift(sensor_ids=(0,), per_step=0.5, start=2)
        out = model.apply(batch(time_step=4, cpm=100.0), ctx_for(model, 4))
        drifted = [m for m in out if m.sensor_id == 0]
        assert drifted[0].cpm == pytest.approx(100.0 * 1.5 ** 2)

    def test_background_drift_clamps_at_zero(self):
        model = BackgroundDrift(sensor_ids=(0,), per_step=-300.0, start=0)
        out = model.apply(batch(time_step=0, cpm=100.0), ctx_for(model, 0))
        assert out[0].cpm == 0.0

    def test_spoofed_counts_draw_in_range(self):
        model = SpoofedCounts(sensor_ids=(0, 1), low=1000.0, high=2000.0)
        ctx = ctx_for(model, 0)
        out = model.apply(batch(cpm=5.0), ctx)
        spoofed = [m for m in out if m.sensor_id in (0, 1)]
        assert all(1000.0 <= m.cpm <= 2000.0 for m in spoofed)
        assert all(m.cpm == 5.0 for m in out if m.sensor_id not in (0, 1))
        assert ctx.counts == {"spoof": 2}

    def test_duplicated_messages_repeat_in_place(self):
        model = DuplicatedMessages(probability=1.0)
        out = model.apply(batch(n=3), ctx_for(model))
        assert [m.sensor_id for m in out] == [0, 0, 1, 1, 2, 2]

    def test_corrupted_messages_stay_within_scale(self):
        model = CorruptedMessages(probability=1.0, scale=4.0)
        out = model.apply(batch(cpm=100.0), ctx_for(model))
        assert all(25.0 <= m.cpm <= 400.0 for m in out)
        assert any(m.cpm != 100.0 for m in out)

    def test_partition_buffers_and_releases_in_order(self):
        model = NetworkPartition(sensor_ids=(0, 1), start=1, end=3)
        state = model.initial_state()
        rng = np.random.default_rng(0)
        for step in (1, 2):
            out = model.apply(
                batch(time_step=step),
                FaultContext(time_step=step, rng=rng, state=state),
            )
            assert [m.sensor_id for m in out] == [2, 3]
        ctx = FaultContext(time_step=3, rng=rng, state=state)
        healed = model.apply(batch(time_step=3), ctx)
        # Buffered reports lead the heal batch, oldest first.
        assert [(m.sensor_id, m.time_step) for m in healed] == [
            (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (3, 3),
        ]
        assert ctx.counts["partition_released"] == 4
        assert state["buffered"] == []

    def test_partition_drop_loses_reports(self):
        model = NetworkPartition(sensor_ids=(0,), start=0, end=2, drop=True)
        state = model.initial_state()
        ctx = FaultContext(
            time_step=0, rng=np.random.default_rng(0), state=state
        )
        out = model.apply(batch(time_step=0), ctx)
        assert [m.sensor_id for m in out] == [1, 2, 3]
        assert ctx.counts == {"partition_dropped": 1}
        healed = model.apply(
            batch(time_step=2),
            FaultContext(time_step=2, rng=np.random.default_rng(0), state=state),
        )
        assert len(healed) == 4  # nothing was buffered, nothing released

    def test_models_never_mutate_the_input_batch(self):
        original = batch(cpm=100.0)
        snapshot = [(m.sensor_id, m.cpm) for m in original]
        for model in (
            SensorDeath(sensor_ids=(0,)),
            StuckCounter(sensor_ids=(0,)),
            SpoofedCounts(sensor_ids=(0,), low=1.0, high=2.0),
            CorruptedMessages(probability=1.0),
            NetworkPartition(sensor_ids=(0,), start=0, end=2),
        ):
            model.apply(original, ctx_for(model))
            assert [(m.sensor_id, m.cpm) for m in original] == snapshot

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SensorDeath(sensor_ids=())
        with pytest.raises(ValueError):
            DropoutWindow(sensor_ids=(0,), start=3, end=3)
        with pytest.raises(ValueError):
            SpoofedCounts(sensor_ids=(0,), low=5.0, high=2.0)
        with pytest.raises(ValueError):
            DuplicatedMessages(probability=1.5)
        with pytest.raises(ValueError):
            CorruptedMessages(probability=0.5, scale=1.0)
        with pytest.raises(ValueError):
            EfficiencyDrift(sensor_ids=(0,), per_step=-1.0)
        with pytest.raises(TypeError):
            FaultSchedule(models=("not a model",))


class TestInjector:
    SCHEDULE = FaultSchedule(
        models=(
            SpoofedCounts(sensor_ids=(0,), low=1000.0, high=2000.0),
            DuplicatedMessages(probability=0.5),
            CorruptedMessages(probability=0.3, scale=4.0),
        ),
        seed=17,
    )

    def run_injector(self, run_seed, n_steps=4):
        injector = self.SCHEDULE.injector(run_seed)
        outputs = []
        for t in range(n_steps):
            outputs.append(
                [(m.sensor_id, m.cpm) for m in injector.apply(t, batch(t))]
            )
        return outputs, injector

    def test_same_seed_pair_replays_identically(self):
        first, _ = self.run_injector(run_seed=7)
        second, _ = self.run_injector(run_seed=7)
        assert first == second

    def test_different_run_seeds_inject_differently(self):
        first, _ = self.run_injector(run_seed=7)
        second, _ = self.run_injector(run_seed=8)
        assert first != second

    def test_injected_counts_and_metrics_aggregate(self):
        registry = MetricsRegistry()
        injector = self.SCHEDULE.injector(7, metrics=registry)
        for t in range(4):
            injector.apply(t, batch(t))
        assert injector.injected["spoof"] == 4
        assert registry.counter("faults.injected.spoof").value == 4
        for kind, n in injector.injected.items():
            assert registry.counter(f"faults.injected.{kind}").value == n

    def test_fault_events_are_traced(self):
        sink = InMemorySink()
        injector = self.SCHEDULE.injector(7, tracer=Tracer(sink))
        injector.apply(0, batch(0))
        events = [r for r in sink.records if r["type"] == "fault"]
        assert len(events) == 1
        assert events[0]["injected"]["spoof"] == 1
        assert events[0]["batch_in"] == 4

    def test_empty_schedule_is_identity_and_silent(self):
        registry = MetricsRegistry()
        injector = FaultSchedule().injector(7, metrics=registry)
        original = batch(0)
        out = injector.apply(0, original)
        assert out == original
        assert out is not original
        assert injector.injected == {}

    def test_state_roundtrip_resumes_the_stream(self):
        outputs, injector = self.run_injector(run_seed=7, n_steps=2)
        state = injector.export_state()
        # The export is JSON-safe.
        import json

        restored_doc = json.loads(json.dumps(state))
        fresh = self.SCHEDULE.injector(7)
        fresh.load_state(restored_doc)
        expect = [
            [(m.sensor_id, m.cpm) for m in injector.apply(t, batch(t))]
            for t in (2, 3)
        ]
        got = [
            [(m.sensor_id, m.cpm) for m in fresh.apply(t, batch(t))]
            for t in (2, 3)
        ]
        assert got == expect

    def test_load_state_rejects_model_count_mismatch(self):
        injector = self.SCHEDULE.injector(7)
        state = injector.export_state()
        state["model_states"] = state["model_states"][:-1]
        with pytest.raises(ValueError, match="model states"):
            injector.load_state(state)


ALL_MODELS = [
    SensorDeath(sensor_ids=(1, 3), at_step=2),
    DropoutWindow(sensor_ids=(0,), start=1, end=3),
    StuckCounter(sensor_ids=(2,), start=1, end=4),
    EfficiencyDrift(sensor_ids=(0, 1), per_step=0.1, start=2),
    BackgroundDrift(sensor_ids=(3,), per_step=2.5),
    SpoofedCounts(sensor_ids=(0,), low=1000.0, high=2000.0, start=1),
    DuplicatedMessages(probability=0.25, sensor_ids=(1, 2), start=0, end=5),
    CorruptedMessages(probability=0.1, scale=8.0),
    NetworkPartition(sensor_ids=(0, 1), start=1, end=3, drop=False),
]


class TestCodecs:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_model_codec_fixed_point(self, model):
        doc = fault_model_to_dict(model)
        assert fault_model_to_dict(fault_model_from_dict(doc)) == doc
        assert fault_model_from_dict(doc) == model

    def test_schedule_codec_fixed_point(self):
        schedule = FaultSchedule(models=tuple(ALL_MODELS), seed=42)
        doc = fault_schedule_to_dict(schedule)
        assert fault_schedule_to_dict(fault_schedule_from_dict(doc)) == doc
        assert fault_schedule_from_dict(doc) == schedule

    def test_empty_schedule_serializes_to_none(self):
        assert fault_schedule_to_dict(None) is None
        assert fault_schedule_to_dict(FaultSchedule()) is None
        assert fault_schedule_from_dict(None) is None

    def test_unknown_kind_and_bad_params_raise(self):
        with pytest.raises(ValueError, match="unknown fault model kind"):
            fault_model_from_dict({"kind": "gremlin"})
        with pytest.raises(ValueError, match="kind"):
            fault_model_from_dict({"sensor_ids": [1]})
        with pytest.raises(ValueError, match="bad parameters"):
            fault_model_from_dict({"kind": "death", "nope": 1})
        with pytest.raises(ValueError, match="models"):
            fault_schedule_from_dict({"seed": 3})

    def test_spec_file_roundtrip(self, tmp_path):
        schedule = FaultSchedule(models=tuple(ALL_MODELS[:3]), seed=9)
        path = tmp_path / "faults.json"
        save_fault_schedule(schedule, path)
        assert load_fault_schedule(path) == schedule
        save_fault_schedule(FaultSchedule(), path)
        assert load_fault_schedule(path) == FaultSchedule()

    def test_scenario_codec_carries_the_schedule(self):
        schedule = FaultSchedule(models=tuple(ALL_MODELS[:2]), seed=5)
        scenario = tiny_scenario(faults=schedule)
        doc = scenario_to_dict(scenario)
        assert scenario_from_dict(doc).faults == schedule
        assert scenario_to_dict(scenario_from_dict(doc)) == doc
        # Fault-free scenarios keep their document shape: no "faults" key.
        assert "faults" not in scenario_to_dict(tiny_scenario())


class TestSessionIntegration:
    def test_empty_schedule_matches_fault_free_run_bitwise(self):
        plain = LocalizerSession(tiny_scenario(), seed=3)
        plain.run()
        empty = LocalizerSession(
            tiny_scenario(faults=FaultSchedule()), seed=3
        )
        empty.run()
        docs_a = [step_record_to_dict(r) for r in plain.records]
        docs_b = [step_record_to_dict(r) for r in empty.records]
        for a, b in zip(docs_a, docs_b):
            a.pop("mean_iteration_seconds", None)
            b.pop("mean_iteration_seconds", None)
        assert docs_a == docs_b

    def test_no_op_schedule_leaves_session_streams_untouched(self):
        """The injector draws from its own RNG only: a schedule whose
        models never fire (no such sensor) is still bitwise-invisible to
        the measurement / transport / filter streams."""
        schedule = FaultSchedule(
            models=(
                DropoutWindow(sensor_ids=(99,), start=0, end=10),
                SpoofedCounts(sensor_ids=(99,), low=1.0, high=2.0),
            ),
            seed=1,
        )
        plain = LocalizerSession(tiny_scenario(), seed=3)
        plain.run()
        noop = LocalizerSession(tiny_scenario(faults=schedule), seed=3)
        noop.run()
        docs_a = [step_record_to_dict(r) for r in plain.records]
        docs_b = [step_record_to_dict(r) for r in noop.records]
        for a, b in zip(docs_a, docs_b):
            a.pop("mean_iteration_seconds", None)
            b.pop("mean_iteration_seconds", None)
        assert docs_a == docs_b

    def test_dropout_shrinks_arriving_batches(self):
        schedule = FaultSchedule(
            models=(DropoutWindow(sensor_ids=(5,), start=0, end=10),), seed=1
        )
        plain = LocalizerSession(tiny_scenario(), seed=3)
        faulty = LocalizerSession(tiny_scenario(faults=schedule), seed=3)
        for _ in range(3):
            plain.step()
            faulty.step()
        for p, f in zip(plain.records, faulty.records):
            assert f.n_measurements == p.n_measurements - 1

    def test_checkpoint_roundtrip_under_active_faults(self, tmp_path):
        schedule = FaultSchedule(
            models=(
                SpoofedCounts(sensor_ids=(0,), low=500.0, high=900.0, start=1),
                NetworkPartition(sensor_ids=(6,), start=1, end=4),
            ),
            seed=11,
        )
        scenario = tiny_scenario(faults=schedule, n_time_steps=6)
        reference = LocalizerSession(scenario, seed=3)
        reference.run()

        partial = LocalizerSession(scenario, seed=3)
        for _ in range(3):
            partial.step()
        path = tmp_path / "faulty.ckpt.json"
        partial.save_checkpoint(path)
        restored = SessionSpec(checkpoint_path=path).open()
        assert restored.injector is not None
        assert restored.injector.injected == partial.injector.injected
        restored.run()

        docs_a = [step_record_to_dict(r) for r in reference.records]
        docs_b = [step_record_to_dict(r) for r in restored.records]
        for a, b in zip(docs_a, docs_b):
            a.pop("mean_iteration_seconds", None)
            b.pop("mean_iteration_seconds", None)
        assert docs_a == docs_b

    def test_vanilla_checkpoint_document_has_no_fault_keys(self, tmp_path):
        import json

        session = LocalizerSession(tiny_scenario(), seed=3)
        session.step()
        path = tmp_path / "plain.ckpt.json"
        session.save_checkpoint(path)
        document = json.loads(path.read_text())
        assert "faults" not in document["state"]
        assert "faults" not in document["state"]["session"]["scenario"]
