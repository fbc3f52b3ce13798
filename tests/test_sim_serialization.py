"""Tests for scenario and run-result JSON serialization."""

import dataclasses
import json

import pytest

from repro.network.link import LossyLink, UniformLatencyLink
from repro.network.transport import InOrderDelivery, OutOfOrderDelivery, ShuffledDelivery
from repro.sim.runner import run_scenario
from repro.sim.scenarios import scenario_a, scenario_b, scenario_c
from repro.sim.serialization import (
    FORMAT_VERSION,
    load_scenario,
    run_result_from_dict,
    run_result_to_dict,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: scenario_a(strengths=(10.0, 50.0), with_obstacle=True),
            lambda: scenario_b(n_particles=2000),
            lambda: scenario_c(n_particles=2000),
        ],
        ids=["a+obstacle", "b", "c"],
    )
    def test_round_trip_preserves_structure(self, factory):
        original = factory()
        restored = scenario_from_dict(scenario_to_dict(original))
        assert restored.name == original.name
        assert restored.area == original.area
        assert restored.n_time_steps == original.n_time_steps
        assert len(restored.sources) == len(original.sources)
        assert len(restored.sensors) == len(original.sensors)
        assert len(restored.obstacles) == len(original.obstacles)
        for a, b in zip(restored.sources, original.sources):
            assert (a.x, a.y, a.strength, a.label) == (b.x, b.y, b.strength, b.label)
        for a, b in zip(restored.sensors, original.sensors):
            assert (a.sensor_id, a.x, a.y, a.efficiency) == (
                b.sensor_id, b.x, b.y, b.efficiency,
            )
        assert restored.localizer_config == original.localizer_config

    def test_round_trip_preserves_obstacle_geometry(self):
        original = scenario_a(with_obstacle=True)
        restored = scenario_from_dict(scenario_to_dict(original))
        assert restored.obstacles[0].polygon.area() == pytest.approx(
            original.obstacles[0].polygon.area()
        )
        assert restored.obstacles[0].mu == original.obstacles[0].mu

    def test_round_trip_delivery_models(self):
        for delivery in (
            InOrderDelivery(),
            ShuffledDelivery(),
            OutOfOrderDelivery(UniformLatencyLink(0.0, 2.0)),
            OutOfOrderDelivery(LossyLink(UniformLatencyLink(0.5, 1.0), 0.2)),
        ):
            scenario = scenario_a().with_delivery(delivery)
            restored = scenario_from_dict(scenario_to_dict(scenario))
            assert type(restored.delivery) is type(delivery)
            if isinstance(delivery, OutOfOrderDelivery):
                assert type(restored.delivery.link) is type(delivery.link)

    def test_document_is_json_serializable(self):
        doc = scenario_to_dict(scenario_a(with_obstacle=True))
        text = json.dumps(doc)
        assert "format_version" in text

    def test_restored_scenario_runs_identically(self):
        original = scenario_a(strengths=(50.0, 50.0), n_time_steps=5)
        restored = scenario_from_dict(scenario_to_dict(original))
        a = run_scenario(original, seed=3)
        b = run_scenario(restored, seed=3)
        assert a.error_series(0) == b.error_series(0)
        assert a.false_positive_series() == b.false_positive_series()


class TestFiles:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "scenario.json"
        original = scenario_a(with_obstacle=True)
        save_scenario(original, path)
        restored = load_scenario(path)
        assert restored.name == original.name
        assert len(restored.obstacles) == 1

    def test_future_version_rejected(self):
        doc = scenario_to_dict(scenario_a())
        doc["format_version"] = 999
        with pytest.raises(ValueError, match="newer"):
            scenario_from_dict(doc)

    def test_hand_written_minimal_document(self):
        doc = {
            "name": "hand",
            "area": [50, 50],
            "sources": [{"x": 25, "y": 25, "strength": 10.0}],
            "sensors": [
                {"id": 0, "x": 10, "y": 10},
                {"id": 1, "x": 40, "y": 40},
            ],
        }
        scenario = scenario_from_dict(doc)
        assert scenario.name == "hand"
        assert scenario.localizer_config is not None  # default built


class TestLocalizerConfigKeys:
    """Typed errors for ``localizer_config`` keys, and the retired ones.

    Eight fields were retired from ``LocalizerConfig`` with their one
    supported value hard-wired; older documents (the committed golden
    stream headers among them, replayed by ``test_golden_streams.py``)
    carry exactly that value and must load.
    """

    RETIRED = {
        "meanshift_workers": 1,
        "meanshift_tile_candidates": 200_000,
        "grid_incremental_threshold": 0.25,
        "grid_cell_size": None,
        "use_grid_index": True,
        "estimate_cache": True,
        "meanshift_truncation_sigmas": 4.0,
        "meanshift_truncation_min_particles": 4096,
    }

    def doc_with(self, **config):
        doc = scenario_to_dict(scenario_a())
        doc["localizer_config"].update(config)
        return json.loads(json.dumps(doc))

    def test_retired_keys_at_hard_wired_values_load(self):
        restored = scenario_from_dict(self.doc_with(**self.RETIRED))
        assert restored.localizer_config == scenario_a().localizer_config

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("turbo_mode", True, "unknown localizer_config key 'turbo_mode'"),
            ("meanshift_workers", 2, "'meanshift_workers' is retired"),
            ("meanshift_workers", True, "'meanshift_workers' is retired"),
            ("meanshift_tile_candidates", 1000, "'meanshift_tile_candidates'"),
            ("grid_incremental_threshold", 0.5, "'grid_incremental_threshold'"),
            ("grid_cell_size", 12.0, "'grid_cell_size' is retired"),
            ("use_grid_index", False, "'use_grid_index' is retired"),
            ("estimate_cache", False, "'estimate_cache' is retired"),
            ("meanshift_truncation_sigmas", 0.0, "'meanshift_truncation_sigmas'"),
            (
                "meanshift_truncation_min_particles",
                256,
                "'meanshift_truncation_min_particles' is retired",
            ),
            ("backend", "numba", "default, fast"),
        ],
        ids=[
            "unknown-key",
            "workers-2",
            "workers-bool",
            "tile-candidates",
            "incremental-threshold",
            "grid-cell-size",
            "use-grid-index-false",
            "estimate-cache-false",
            "truncation-sigmas-0",
            "truncation-min-particles-256",
            "backend-numba",
        ],
    )
    def test_bad_key_raises_value_error(self, key, value, match):
        with pytest.raises(ValueError, match=match):
            scenario_from_dict(self.doc_with(**{key: value}))


class TestRunResultRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        scenario = scenario_a(strengths=(10.0, 50.0), with_obstacle=True)
        scenario = dataclasses.replace(scenario, n_time_steps=4)
        return run_scenario(scenario, seed=11, snapshot_steps=[3])

    def test_round_trip_is_json_safe(self, result):
        doc = run_result_to_dict(result)
        json.dumps(doc)  # the worker->parent transport must be JSON-shaped

    def test_round_trip_preserves_series(self, result):
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.scenario_name == result.scenario_name
        assert restored.source_labels == result.source_labels
        assert restored.n_steps == result.n_steps
        for source_index in range(len(result.source_labels)):
            assert restored.error_series(source_index) == result.error_series(
                source_index
            )
        assert restored.estimate_count_series() == result.estimate_count_series()
        assert restored.false_positive_series() == result.false_positive_series()
        assert restored.false_negative_series() == result.false_negative_series()

    def test_round_trip_preserves_estimates_and_health(self, result):
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.final_estimates() == result.final_estimates()
        for original, back in zip(result.steps, restored.steps):
            assert back.n_measurements == original.n_measurements
            assert back.converged == original.converged
            assert (back.health is None) == (original.health is None)
            if original.health is not None:
                assert back.health == original.health

    def test_round_trip_preserves_snapshot(self, result):
        restored = run_result_from_dict(run_result_to_dict(result))
        original = result.steps[3].snapshot
        back = restored.steps[3].snapshot
        assert original is not None and back is not None
        assert back.xs.tolist() == original.xs.tolist()
        assert back.weights.tolist() == original.weights.tolist()
        assert restored.steps[0].snapshot is None

    def test_infinite_errors_survive_the_json_boundary(self, result):
        # Early steps of a hard scenario usually miss a source (inf error);
        # force one to make the encoding explicit either way.
        doc = run_result_to_dict(result)
        doc["steps"][0]["metrics"]["errors"] = [None, 1.5]
        restored = run_result_from_dict(doc)
        assert restored.steps[0].metrics.errors == (float("inf"), 1.5)
        assert json.dumps(doc)  # None, never Infinity, in the document

    def test_newer_format_version_rejected(self, result):
        doc = run_result_to_dict(result)
        doc["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="newer than supported"):
            run_result_from_dict(doc)


# --- property-based codec round-trips ---------------------------------------
#
# The codec invariant is a *fixed point*: decoding a document and
# re-encoding it must reproduce the document exactly.  (Object-level
# equality is not defined for links/deliveries, so the dict form is the
# canonical representation to compare.)

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.fusion import (  # noqa: E402
    AutoFusionRange,
    FixedFusionRange,
    InfiniteFusionRange,
)
from repro.network.link import (  # noqa: E402
    ExponentialLatencyLink,
    PerfectLink,
)
from repro.network.topology import (  # noqa: E402
    CommunicationGraph,
    MultiHopLink,
    TopologyAwareDelivery,
)
from repro.sensors.sensor import Sensor  # noqa: E402
from repro.sim.serialization import (  # noqa: E402
    CheckpointError,
    _delivery_from_dict,
    _delivery_to_dict,
    _link_from_dict,
    _link_to_dict,
    fusion_policy_from_dict,
    fusion_policy_to_dict,
)

finite = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def links(depth=2):
    base = st.one_of(
        st.just(PerfectLink()),
        st.tuples(finite, finite).map(
            lambda lo_hi: UniformLatencyLink(
                min(lo_hi), max(lo_hi)
            )
        ),
        finite.filter(lambda m: m > 0).map(ExponentialLatencyLink),
    )
    if depth <= 0:
        return base
    return st.one_of(
        base,
        st.tuples(
            links(depth - 1),
            st.floats(
                min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False
            ),
        ).map(lambda pair: LossyLink(pair[0], pair[1])),
    )


positions = st.lists(
    st.tuples(finite, finite), min_size=2, max_size=6, unique=True
)


def topology_deliveries():
    def build(pos_list):
        sensors = [
            Sensor(sensor_id=i, x=x, y=y) for i, (x, y) in enumerate(pos_list)
        ]
        topology = CommunicationGraph(
            sensors, base_station=(0.0, 0.0), radio_range=75.0
        )
        return TopologyAwareDelivery(
            MultiHopLink(topology, per_hop=0.05, contention_mean=0.02)
        )

    return positions.map(build)


def deliveries():
    return st.one_of(
        st.just(InOrderDelivery()),
        st.just(ShuffledDelivery()),
        links().map(OutOfOrderDelivery),
        topology_deliveries(),
    )


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(link=links())
    def test_link_codec_fixed_point(self, link):
        doc = _link_to_dict(link)
        assert _link_to_dict(_link_from_dict(doc)) == doc
        assert doc == json.loads(json.dumps(doc))

    @settings(max_examples=60, deadline=None)
    @given(delivery=deliveries())
    def test_delivery_codec_fixed_point(self, delivery):
        doc = _delivery_to_dict(delivery)
        assert _delivery_to_dict(_delivery_from_dict(doc)) == doc
        assert doc == json.loads(json.dumps(doc))

    @settings(max_examples=40, deadline=None)
    @given(delivery=topology_deliveries())
    def test_topology_codec_preserves_routing(self, delivery):
        restored = _delivery_from_dict(_delivery_to_dict(delivery))
        original_topo = delivery.link.topology
        restored_topo = restored.link.topology
        assert restored_topo.max_hops() == original_topo.max_hops()
        for node in original_topo.positions:
            assert restored_topo.hop_count(node) == original_topo.hop_count(node)

    @settings(max_examples=60, deadline=None)
    @given(
        policy=st.one_of(
            st.none(),
            finite.filter(lambda d: d > 0).map(FixedFusionRange),
            st.just(InfiniteFusionRange()),
            st.tuples(
                positions,
                st.integers(min_value=1, max_value=8),
                st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
            ).map(lambda t: AutoFusionRange(t[0], k=t[1], slack=t[2])),
        )
    )
    def test_fusion_policy_codec_fixed_point(self, policy):
        doc = fusion_policy_to_dict(policy)
        assert fusion_policy_to_dict(fusion_policy_from_dict(doc)) == doc
        assert doc == json.loads(json.dumps(doc))

    def test_fusion_policy_equivalent_ranges_after_round_trip(self):
        policy = AutoFusionRange(
            [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (7.0, 7.0)], k=2, slack=1.2
        )
        restored = fusion_policy_from_dict(fusion_policy_to_dict(policy))
        for sensor_id, (x, y) in enumerate(policy.sensor_positions):
            assert restored.range_for(sensor_id, x, y) == policy.range_for(
                sensor_id, x, y
            )

    def test_unknown_fusion_policy_rejected(self):
        class Weird:
            pass

        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            fusion_policy_to_dict(Weird())
        with pytest.raises(CheckpointError, match="unknown fusion policy"):
            fusion_policy_from_dict({"type": "weird"})


class TestCheckpointCorruption:
    """Every checkpoint failure mode surfaces as a typed CheckpointError,
    never a raw KeyError/OSError/zipfile traceback."""

    @pytest.fixture()
    def checkpoint(self, tmp_path):
        from repro.core.config import LocalizerConfig
        from repro.physics.source import RadiationSource
        from repro.sensors.placement import grid_placement
        from repro.sim.scenario import Scenario
        from repro.sim.session import LocalizerSession

        scenario = Scenario(
            name="ckpt-tiny",
            area=(60.0, 60.0),
            sources=[RadiationSource(22.0, 38.0, 10.0, label="S1")],
            sensors=grid_placement(
                3, 3, 60.0, 60.0, efficiency=1e-4, background_cpm=5.0,
                margin_fraction=0.0,
            ),
            background_cpm=5.0,
            n_time_steps=3,
            localizer_config=LocalizerConfig(
                area=(60.0, 60.0), n_particles=200, assumed_background_cpm=5.0
            ),
        )
        session = LocalizerSession(scenario, seed=1)
        session.step()
        path = tmp_path / "session.ckpt.json"
        session.save_checkpoint(path)
        return path

    def load(self, path):
        from repro.sim.serialization import load_checkpoint

        return load_checkpoint(path)

    def test_intact_checkpoint_loads(self, checkpoint):
        state = self.load(checkpoint)
        assert "arrays" in state

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            self.load(tmp_path / "nope.ckpt.json")

    def test_invalid_json(self, checkpoint):
        checkpoint.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            self.load(checkpoint)

    def test_non_utf8_body(self, checkpoint):
        body = checkpoint.read_bytes()
        checkpoint.write_bytes(body[:10] + b"\xff" + body[10:])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            self.load(checkpoint)

    def test_wrong_magic(self, checkpoint):
        checkpoint.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError, match="document"):
            self.load(checkpoint)

    def test_unsupported_version(self, checkpoint):
        document = json.loads(checkpoint.read_text())
        document["format_version"] = 999
        checkpoint.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="format version"):
            self.load(checkpoint)

    @pytest.mark.parametrize(
        "field", ["arrays_file", "arrays_sha256", "state"]
    )
    def test_missing_required_field(self, checkpoint, field):
        document = json.loads(checkpoint.read_text())
        del document[field]
        checkpoint.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="missing required field"):
            self.load(checkpoint)

    def test_missing_sidecar(self, checkpoint):
        (checkpoint.parent / (checkpoint.name + ".npz")).unlink()
        with pytest.raises(CheckpointError, match="sidecar .* missing"):
            self.load(checkpoint)

    def test_truncated_sidecar(self, checkpoint):
        sidecar = checkpoint.parent / (checkpoint.name + ".npz")
        blob = sidecar.read_bytes()
        sidecar.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="SHA-256 mismatch"):
            self.load(checkpoint)

    def test_tampered_sidecar_byte(self, checkpoint):
        sidecar = checkpoint.parent / (checkpoint.name + ".npz")
        blob = bytearray(sidecar.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        sidecar.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="SHA-256 mismatch"):
            self.load(checkpoint)

    def test_sidecar_that_was_never_an_npz(self, checkpoint):
        """A document whose hash matches garbage bytes: the SHA gate
        passes, the npz parser must still fail typed."""
        import hashlib

        sidecar = checkpoint.parent / (checkpoint.name + ".npz")
        garbage = b"this was never an npz archive"
        sidecar.write_bytes(garbage)
        document = json.loads(checkpoint.read_text())
        document["arrays_sha256"] = hashlib.sha256(garbage).hexdigest()
        checkpoint.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="not a readable npz"):
            self.load(checkpoint)

    def test_resume_surfaces_typed_error(self, checkpoint):
        """The session-level entry point propagates CheckpointError."""
        from repro.sim.session import SessionSpec

        checkpoint.write_text("{not json")
        with pytest.raises(CheckpointError):
            SessionSpec(checkpoint_path=checkpoint).open()
