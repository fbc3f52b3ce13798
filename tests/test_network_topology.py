"""Tests for the multi-hop topology substrate."""

import numpy as np
import pytest

from repro.network.topology import (
    CommunicationGraph,
    MultiHopLink,
    TopologyAwareDelivery,
)
from repro.sensors.measurement import Measurement
from repro.sensors.placement import grid_placement
from repro.sensors.sensor import Sensor


def line_sensors(n, spacing=10.0):
    return [Sensor(i, i * spacing + spacing, 0.0) for i in range(n)]


class TestCommunicationGraph:
    def test_line_hop_counts(self):
        # Base at origin, sensors at 10, 20, 30; radio range 12 chains them.
        sensors = line_sensors(3)
        graph = CommunicationGraph(sensors, base_station=(0.0, 0.0), radio_range=12.0)
        assert graph.hop_count(0) == 1
        assert graph.hop_count(1) == 2
        assert graph.hop_count(2) == 3
        assert graph.max_hops() == 3
        assert graph.connected_fraction() == 1.0

    def test_disconnected_sensor(self):
        sensors = [Sensor(0, 10.0, 0.0), Sensor(1, 100.0, 0.0)]
        graph = CommunicationGraph(sensors, (0.0, 0.0), radio_range=15.0)
        assert graph.hop_count(0) == 1
        assert graph.hop_count(1) is None
        assert graph.connected_fraction() == 0.5

    def test_grid_fully_connected(self):
        sensors = grid_placement(6, 6, 100, 100, margin_fraction=0.0)
        graph = CommunicationGraph(sensors, (0.0, 0.0), radio_range=25.0)
        assert graph.connected_fraction() == 1.0
        assert graph.max_hops() >= 5  # opposite corner is several hops out

    def test_routing_tree_parents(self):
        sensors = line_sensors(3)
        graph = CommunicationGraph(sensors, (0.0, 0.0), radio_range=12.0)
        parents = graph.routing_tree()
        assert parents[0] == CommunicationGraph.BASE
        assert parents[1] == 0
        assert parents[2] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CommunicationGraph([], (0, 0), 10.0)
        with pytest.raises(ValueError):
            CommunicationGraph(line_sensors(1), (0, 0), 0.0)


def networkx_reference(sensors, base_station, radio_range):
    """The unit-disk graph built with networkx, as the topology once was."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_node(CommunicationGraph.BASE, pos=base_station)
    for sensor in sensors:
        graph.add_node(sensor.sensor_id, pos=(sensor.x, sensor.y))
    nodes = list(graph.nodes(data="pos"))
    for i, (u, pu) in enumerate(nodes):
        for v, pv in nodes[i + 1 :]:
            if np.hypot(pu[0] - pv[0], pu[1] - pv[1]) <= radio_range:
                graph.add_edge(u, v)
    hops = dict(nx.single_source_shortest_path_length(graph, CommunicationGraph.BASE))
    parents = {
        node: path[-2]
        for node, path in nx.single_source_shortest_path(
            graph, CommunicationGraph.BASE
        ).items()
        if node != CommunicationGraph.BASE
    }
    return graph, hops, parents


class TestNetworkxParity:
    """The BFS over an adjacency dict routes exactly as networkx did."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_deployments_route_identically(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        ids = rng.permutation(200)[:n]
        if seed % 3 == 0:
            # Lattice positions: many equidistant neighbours, so the
            # parent choice depends on the neighbour visiting order.
            coords = rng.integers(0, 8, size=(n, 2)) * 10.0
        else:
            coords = rng.uniform(0.0, 100.0, size=(n, 2))
        sensors = [Sensor(int(i), float(x), float(y)) for i, (x, y) in zip(ids, coords)]
        base = (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
        radio_range = float(rng.uniform(8.0, 40.0))

        graph = CommunicationGraph(sensors, base, radio_range)
        ref_graph, ref_hops, ref_parents = networkx_reference(sensors, base, radio_range)

        assert list(graph.positions) == list(ref_graph.nodes)
        for node in ref_graph.nodes:
            assert graph.hop_count(node) == ref_hops.get(node)
        ref_max = max((h for v, h in ref_hops.items() if v != CommunicationGraph.BASE),
                      default=0)
        assert graph.max_hops() == ref_max
        assert graph.routing_tree() == ref_parents


class TestMultiHopLink:
    def test_latency_grows_with_depth(self):
        sensors = line_sensors(4)
        graph = CommunicationGraph(sensors, (0.0, 0.0), radio_range=12.0)
        link = MultiHopLink(graph, per_hop=0.1, contention_mean=0.0)
        rng = np.random.default_rng(0)
        latencies = [link.latency_for(i, rng) for i in range(4)]
        assert latencies == [pytest.approx(0.1 * (i + 1)) for i in range(4)]

    def test_disconnected_message_lost(self):
        sensors = [Sensor(0, 10.0, 0.0), Sensor(1, 500.0, 0.0)]
        graph = CommunicationGraph(sensors, (0.0, 0.0), radio_range=15.0)
        link = MultiHopLink(graph)
        assert link.latency_for(1, np.random.default_rng(0)) is None

    def test_contention_adds_positive_jitter(self):
        sensors = line_sensors(3)
        graph = CommunicationGraph(sensors, (0.0, 0.0), radio_range=12.0)
        link = MultiHopLink(graph, per_hop=0.1, contention_mean=0.2)
        rng = np.random.default_rng(0)
        samples = [link.latency_for(2, rng) for _ in range(200)]
        assert all(s >= 0.3 for s in samples)  # 3 hops fixed cost
        assert np.mean(samples) == pytest.approx(0.3 + 3 * 0.2, rel=0.2)

    def test_validation(self):
        sensors = line_sensors(2)
        graph = CommunicationGraph(sensors, (0.0, 0.0), radio_range=12.0)
        with pytest.raises(ValueError):
            MultiHopLink(graph, per_hop=-0.1)


class TestTopologyAwareDelivery:
    def _batches(self, sensors, n_steps=3):
        batches = []
        seq = 0
        for t in range(n_steps):
            batch = []
            for s in sensors:
                batch.append(Measurement(s.sensor_id, s.x, s.y, 5.0, t, seq))
                seq += 1
            batches.append(batch)
        return batches

    def test_connected_messages_all_arrive(self):
        sensors = line_sensors(4)
        graph = CommunicationGraph(sensors, (0.0, 0.0), radio_range=12.0)
        delivery = TopologyAwareDelivery(MultiHopLink(graph, per_hop=0.1))
        batches = self._batches(sensors)
        arrived = list(delivery.deliver(batches, np.random.default_rng(0)))
        total = sum(len(b) for b in arrived)
        assert total == 12

    def test_disconnected_messages_dropped(self):
        sensors = [Sensor(0, 10.0, 0.0), Sensor(1, 500.0, 0.0)]
        graph = CommunicationGraph(sensors, (0.0, 0.0), radio_range=15.0)
        delivery = TopologyAwareDelivery(MultiHopLink(graph))
        batches = self._batches(sensors, n_steps=2)
        arrived = list(delivery.deliver(batches, np.random.default_rng(0)))
        flat = [m.sensor_id for b in arrived for m in b]
        assert flat.count(0) == 2
        assert flat.count(1) == 0

    def test_deep_nodes_arrive_later(self):
        # With heavy per-hop delay, sensor 0 (1 hop) beats sensor 3 (4 hops)
        # within the same generation round.
        sensors = line_sensors(4)
        graph = CommunicationGraph(sensors, (0.0, 0.0), radio_range=12.0)
        delivery = TopologyAwareDelivery(
            MultiHopLink(graph, per_hop=0.2, contention_mean=0.0)
        )
        batches = self._batches(sensors, n_steps=1)
        arrived = list(delivery.deliver(batches, np.random.default_rng(0)))
        flat = [m.sensor_id for b in arrived for m in b]
        assert flat.index(0) < flat.index(3)

    def test_end_to_end_localization_over_topology(self):
        """Full pipeline: the localizer still converges when transport is
        the topology-derived model."""
        from repro.physics.intensity import RadiationField
        from repro.physics.source import RadiationSource
        from repro.sensors.network import SensorNetwork
        from repro.core.localizer import MultiSourceLocalizer
        from repro.core.config import LocalizerConfig

        sensors = grid_placement(
            6, 6, 100, 100, efficiency=1e-4, background_cpm=5.0, margin_fraction=0.0
        )
        graph = CommunicationGraph(sensors, (0.0, 0.0), radio_range=30.0)
        delivery = TopologyAwareDelivery(
            MultiHopLink(graph, per_hop=0.05, contention_mean=0.05)
        )
        network = SensorNetwork(
            sensors,
            RadiationField([RadiationSource(47, 71, 100.0)]),
            np.random.default_rng(0),
        )
        localizer = MultiSourceLocalizer(
            LocalizerConfig(
                n_particles=2000, area=(100, 100),
                assumed_efficiency=1e-4, assumed_background_cpm=5.0,
            ),
            rng=np.random.default_rng(1),
        )
        batches = [network.measure_time_step(t) for t in range(10)]
        for batch in delivery.deliver(batches, np.random.default_rng(2)):
            for measurement in batch:
                localizer.observe(measurement)
        estimates = localizer.estimates()
        assert estimates
        assert min(e.distance_to(47, 71) for e in estimates) < 6.0
