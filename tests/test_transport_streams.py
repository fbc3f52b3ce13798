"""Streaming-transport edge cases: lazy delivery, mid-run faults, tails.

The delivery refactor turned :meth:`DeliveryModel.deliver` into a thin
wrapper over per-run :class:`DeliveryStream` objects.  These tests pin
the wrapper/stream equivalence, the snapshotability of in-flight queue
state, and the session-level behaviours the paper's robustness argument
depends on: sensors dying mid-run and stragglers arriving after the
final time step.
"""

import numpy as np
import pytest

from repro.core.config import LocalizerConfig
from repro.network.link import LossyLink, PerfectLink, UniformLatencyLink
from repro.network.transport import (
    InOrderDelivery,
    OutOfOrderDelivery,
    QueuedDeliveryStream,
    ShuffledDelivery,
)
from repro.physics.source import RadiationSource
from repro.sensors.measurement import Measurement
from repro.sensors.placement import grid_placement
from repro.sim.scenario import Scenario
from repro.sim.session import LocalizerSession, SessionSpec


def batches(n_steps=4, per_step=5):
    out = []
    sequence = 0
    for t in range(n_steps):
        batch = []
        for i in range(per_step):
            batch.append(
                Measurement(
                    sensor_id=i, x=float(i), y=0.0, cpm=10.0,
                    time_step=t, sequence=sequence,
                )
            )
            sequence += 1
        out.append(batch)
    return out


def flatten(arrival_batches):
    return [m.sequence for batch in arrival_batches for m in batch]


DELIVERIES = [
    InOrderDelivery(),
    ShuffledDelivery(),
    OutOfOrderDelivery(UniformLatencyLink(0.0, 2.5)),
    OutOfOrderDelivery(LossyLink(UniformLatencyLink(0.0, 1.5), 0.3)),
]


class TestStreamEquivalence:
    @pytest.mark.parametrize("delivery", DELIVERIES, ids=lambda d: repr(d))
    def test_deliver_wrapper_equals_manual_stream(self, delivery):
        generated = batches()
        wrapped = list(
            delivery.deliver(iter(generated), np.random.default_rng(42))
        )
        stream = delivery.open_stream(np.random.default_rng(42))
        manual = [stream.push(batch) for batch in generated]
        tail = stream.drain()
        if tail:
            manual.append(tail)
        assert flatten(wrapped) == flatten(manual)

    def test_streams_are_lazy(self):
        """Nothing is pulled from the batch iterable ahead of need."""
        pulled = []

        def generator():
            for i, batch in enumerate(batches()):
                pulled.append(i)
                yield batch

        arrivals = InOrderDelivery().deliver(generator(), np.random.default_rng(0))
        next(arrivals)
        assert pulled == [0]
        next(arrivals)
        assert pulled == [0, 1]


class TestQueueStateRoundTrip:
    def test_mid_stream_snapshot_resumes_identically(self):
        delivery = OutOfOrderDelivery(UniformLatencyLink(0.0, 2.5))
        generated = batches(n_steps=6)

        reference_stream = delivery.open_stream(np.random.default_rng(7))
        reference = [reference_stream.push(b) for b in generated]
        reference.append(reference_stream.drain())

        rng = np.random.default_rng(7)
        stream = delivery.open_stream(rng)
        first_half = [stream.push(b) for b in generated[:3]]
        state = stream.export_state()
        rng_state = rng.bit_generator.state

        fresh_rng = np.random.default_rng()
        fresh_rng.bit_generator.state = rng_state
        restored = delivery.open_stream(fresh_rng)
        restored.load_state(state)
        second_half = [restored.push(b) for b in generated[3:]]
        second_half.append(restored.drain())

        assert flatten(first_half + second_half) == flatten(reference)

    def test_state_is_json_safe(self):
        import json

        delivery = OutOfOrderDelivery(UniformLatencyLink(0.5, 3.0))
        stream = delivery.open_stream(np.random.default_rng(1))
        stream.push(batches(n_steps=1)[0])
        state = stream.export_state()
        assert state == json.loads(json.dumps(state))
        assert state["step"] == 1
        assert len(state["events"]) > 0  # latency >= 0.5 keeps some in flight

    def test_restore_rejects_stale_tiebreak(self):
        from repro.network.scheduler import EventQueue

        queue = EventQueue()
        queue.push(1.0, "a")
        queue.push(2.0, "b")
        events = [(e.time, e.tiebreak, e.payload) for e in queue.export_events()]
        with pytest.raises(ValueError):
            EventQueue.restore(events, next_tiebreak=1)

    def test_stateless_streams_export_empty(self):
        for delivery in (InOrderDelivery(), ShuffledDelivery()):
            stream = delivery.open_stream(np.random.default_rng(0))
            stream.push(batches(n_steps=1)[0])
            assert stream.export_state() == {}


def tiny_scenario(**kwargs) -> Scenario:
    defaults = dict(
        name="stream-tiny",
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


class TestSessionStreamingEdgeCases:
    def test_sensor_dies_mid_run_under_lossy_link(self):
        """A sensor failing between steps shrinks later batches; the
        session keeps scoring whatever still arrives."""
        scenario = tiny_scenario(
            delivery=OutOfOrderDelivery(LossyLink(PerfectLink(), 0.2)),
        )
        session = LocalizerSession(scenario, seed=3)
        session.step()
        session.step()
        victim = scenario.sensors[0]
        victim.failed = True
        result = session.run()
        assert session.finished
        assert result.n_steps == scenario.n_time_steps
        # After the failure at most 15 sensors report (before losses).
        assert all(r.n_measurements <= 15 for r in result.steps[3:])
        assert all(len(r.estimates) >= 0 for r in result.steps)

    def test_dead_sensor_survives_checkpoint(self, tmp_path):
        """The failed flag rides through the scenario codec, so a resumed
        run sees the same shrunken network."""
        scenario = tiny_scenario()
        session = LocalizerSession(scenario, seed=3)
        session.step()
        scenario.sensors[2].failed = True
        session.step()
        path = tmp_path / "dead.ckpt.json"
        session.save_checkpoint(path)
        restored = SessionSpec(checkpoint_path=path).open()
        assert restored.scenario.sensors[2].failed
        result = restored.run()
        assert all(r.n_measurements <= 15 for r in result.steps[2:-1])

    def test_out_of_order_tail_folds_into_final_step(self):
        """Stragglers later than the last step are still consumed: the
        final record is re-scored over them and total measurement counts
        add up to what the link actually delivered."""
        scenario = tiny_scenario(
            n_time_steps=4,
            delivery=OutOfOrderDelivery(UniformLatencyLink(1.5, 3.5)),
        )
        session = LocalizerSession(scenario, seed=5)
        result = session.run()
        assert session.finished
        assert result.n_steps == 4  # tail folded, not appended

        # Reproduce the arrival schedule independently: same seed fan-out,
        # same network draws, same transport stream.
        from repro.sensors.network import SensorNetwork
        from repro.sim.rng import spawn_rngs

        measurement_rng, transport_rng, _ = spawn_rngs(5, 3)
        network = SensorNetwork(
            scenario.sensors, scenario.field_with_obstacles(), measurement_rng
        )
        stream = scenario.delivery.open_stream(transport_rng)
        arrivals = [
            stream.push(network.measure_time_step(t)) for t in range(4)
        ]
        tail = stream.drain()

        # Lossless link: every generated measurement eventually arrives.
        assert sum(map(len, arrivals)) + len(tail) == 16 * 4
        # With latency >= 1.5 steps nothing arrives in the first round...
        assert result.steps[0].n_measurements == len(arrivals[0]) == 0
        for i in range(3):
            assert result.steps[i].n_measurements == len(arrivals[i])
        # ... and the final record is re-scored over the non-empty tail.
        assert len(tail) > 0
        assert result.steps[-1].n_measurements == len(tail)
        assert result.steps[-1].mean_iteration_seconds == 0.0

    def test_tail_fold_matches_legacy_runner(self):
        from repro.sim.runner import run_scenario
        from repro.sim.serialization import step_record_to_dict

        scenario = tiny_scenario(
            n_time_steps=4,
            delivery=OutOfOrderDelivery(UniformLatencyLink(1.5, 3.5)),
        )
        a = LocalizerSession(scenario, seed=5).run()
        b = run_scenario(scenario, seed=5)

        def comparable(result):
            docs = [step_record_to_dict(s) for s in result.steps]
            for doc in docs:
                doc.pop("mean_iteration_seconds")
            return docs

        assert comparable(a) == comparable(b)


class TestFaultedSessionStreams:
    """Injected sensor faults compose with the streaming transport: a
    dead sensor's reports never reach the delivery stream, so they can
    never trigger filter work downstream."""

    def test_sensor_death_fault_shrinks_batches_at_the_stream(self):
        from repro.faults import FaultSchedule, SensorDeath

        schedule = FaultSchedule(
            models=(SensorDeath(sensor_ids=(0,), at_step=2),), seed=1
        )
        scenario = tiny_scenario(faults=schedule)
        session = LocalizerSession(scenario, seed=3)
        result = session.run()
        assert [r.n_measurements for r in result.steps] == [16, 16, 15, 15, 15]
        assert session.injector.injected == {"death": 3}

    def test_dead_sensor_triggers_no_filter_work(self):
        """Per-reading iteration counts drop exactly with the batch size:
        the dropped reports do zero selections/reweights."""
        from repro.faults import FaultSchedule, SensorDeath

        schedule = FaultSchedule(
            models=(SensorDeath(sensor_ids=(0, 5), at_step=0),), seed=1
        )
        plain = LocalizerSession(tiny_scenario(), seed=3)
        faulty = LocalizerSession(tiny_scenario(faults=schedule), seed=3)
        plain.step()
        faulty.step()
        assert faulty.localizer.iteration == plain.localizer.iteration - 2

    def test_faults_compose_with_lossy_links(self):
        """Injection happens before transport: the lossy link sees the
        already-shrunken batch and the session still finishes cleanly."""
        from repro.faults import DropoutWindow, FaultSchedule

        schedule = FaultSchedule(
            models=(DropoutWindow(sensor_ids=(1, 2), start=1, end=4),), seed=2
        )
        scenario = tiny_scenario(
            faults=schedule,
            delivery=OutOfOrderDelivery(LossyLink(PerfectLink(), 0.2)),
        )
        session = LocalizerSession(scenario, seed=3)
        result = session.run()
        assert session.finished
        assert all(r.n_measurements <= 16 for r in result.steps)
        assert session.injector.injected["dropout"] == 6
