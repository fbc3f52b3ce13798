"""Multi-hop wireless topology: where the transport latency comes from.

The paper motivates out-of-order delivery with "multi-hop wireless
forwarding and signal interference among a large number of communicating
sensors".  This module makes that concrete: sensors form a unit-disk
communication graph (links exist within the radio range), route to a base
station along shortest hop paths, and a message's latency is the sum of
per-hop delays (a fixed forwarding cost plus exponential contention
jitter).  The result plugs into the transport layer as a
:class:`repro.network.link.LinkModel`, replacing the hand-picked uniform
latency of Scenario C with one derived from the actual deployment
geometry.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.link import LinkModel
from repro.network.transport import (
    DeliveryModel,
    DeliveryStream,
    QueuedDeliveryStream,
)
from repro.sensors.sensor import Sensor


class CommunicationGraph:
    """Unit-disk communication graph over a sensor deployment.

    Nodes are sensor ids plus the base station (id ``BASE``); edges
    connect pairs within ``radio_range``.  Hop counts to the base station
    drive the latency model.  ``positions`` maps each node to its
    ``(x, y)``, base station first, then sensors in deployment order.
    """

    BASE = -1

    def __init__(
        self,
        sensors: Sequence[Sensor],
        base_station: Tuple[float, float],
        radio_range: float,
    ):
        if radio_range <= 0:
            raise ValueError(f"radio range must be positive, got {radio_range}")
        if not sensors:
            raise ValueError("need at least one sensor")
        self.radio_range = float(radio_range)
        self.base_station = (float(base_station[0]), float(base_station[1]))

        self.positions: Dict[int, Tuple[float, float]] = {self.BASE: self.base_station}
        for sensor in sensors:
            self.positions[sensor.sensor_id] = (sensor.x, sensor.y)
        nodes = list(self.positions)
        xs = np.array([p[0] for p in self.positions.values()], dtype=float)
        ys = np.array([p[1] for p in self.positions.values()], dtype=float)
        # Each node's neighbours in the order its edges are added (pairs
        # in node order), so the BFS below visits them deterministically.
        adjacency: Dict[int, List[int]] = {node: [] for node in nodes}
        for i, u in enumerate(nodes):
            within = np.hypot(xs[i] - xs[i + 1 :], ys[i] - ys[i + 1 :]) <= radio_range
            for j in np.flatnonzero(within):
                v = nodes[i + 1 + j]
                adjacency[u].append(v)
                adjacency[v].append(u)

        # Breadth-first from the base: a node's parent is the first
        # neighbour, in visiting order, that reaches it.
        self._hops: Dict[int, int] = {self.BASE: 0}
        self._parents: Dict[int, int] = {}
        queue = deque([self.BASE])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in self._hops:
                    self._hops[v] = self._hops[u] + 1
                    self._parents[v] = u
                    queue.append(v)

    def hop_count(self, sensor_id: int) -> Optional[int]:
        """Hops from the sensor to the base station; None if disconnected."""
        return self._hops.get(sensor_id)

    def connected_fraction(self) -> float:
        """Fraction of sensors with a route to the base station."""
        sensor_ids = [n for n in self.positions if n != self.BASE]
        if not sensor_ids:
            return 0.0
        reachable = sum(1 for s in sensor_ids if s in self._hops)
        return reachable / len(sensor_ids)

    def max_hops(self) -> int:
        """Network diameter as seen from the base station."""
        hops = [h for n, h in self._hops.items() if n != self.BASE]
        return max(hops) if hops else 0

    def routing_tree(self) -> Dict[int, int]:
        """Next-hop parent toward the base for each connected sensor."""
        return dict(self._parents)


class MultiHopLink(LinkModel):
    """Latency derived from the deployment's routing topology.

    A message from sensor ``i`` pays ``hops_i * per_hop`` fixed forwarding
    delay plus an exponential contention term per hop.  Disconnected
    sensors' messages are lost -- the topology, not a tuned probability,
    decides who is heard, which is the behaviour the paper's robustness
    argument is about.

    Latency units are time steps; with per-hop delays a few percent of a
    step, deep networks reorder measurements across neighbouring rounds.
    """

    def __init__(
        self,
        topology: CommunicationGraph,
        per_hop: float = 0.05,
        contention_mean: float = 0.05,
    ):
        if per_hop < 0 or contention_mean < 0:
            raise ValueError("per-hop delays must be non-negative")
        self.topology = topology
        self.per_hop = float(per_hop)
        self.contention_mean = float(contention_mean)
        #: Set per message by the transport integration: the sending
        #: sensor. When unset, the network's worst-case depth is assumed.
        self._current_sensor: Optional[int] = None

    def latency_for(self, sensor_id: int, rng: np.random.Generator) -> Optional[float]:
        """Latency (time steps) for a message from ``sensor_id``."""
        hops = self.topology.hop_count(sensor_id)
        if hops is None:
            return None  # disconnected: the message never arrives
        latency = hops * self.per_hop
        if self.contention_mean > 0 and hops > 0:
            latency += float(rng.exponential(self.contention_mean, size=hops).sum())
        return latency

    def delivery_time(self, send_time: float, rng: np.random.Generator) -> Optional[float]:
        sensor_id = self._current_sensor
        if sensor_id is None:
            hops = self.topology.max_hops()
            latency = hops * self.per_hop + (
                float(rng.exponential(self.contention_mean, size=hops).sum())
                if hops > 0 and self.contention_mean > 0
                else 0.0
            )
            return send_time + latency
        latency = self.latency_for(sensor_id, rng)
        if latency is None:
            return None
        return send_time + latency


class _TopologyStream(QueuedDeliveryStream):
    """Queued stream whose per-message latency follows the routing depth."""

    def __init__(self, rng: np.random.Generator, link: MultiHopLink):
        super().__init__(rng)
        self.link = link

    def _arrival_time(self, measurement, send_time: float):
        latency = self.link.latency_for(measurement.sensor_id, self.rng)
        if latency is None:
            return None
        return send_time + latency


class TopologyAwareDelivery(DeliveryModel):
    """Delivery model wiring per-sensor hop counts into the latency.

    Mirrors :class:`repro.network.transport.OutOfOrderDelivery` but asks
    the :class:`MultiHopLink` for each message's latency using the
    *sending sensor's* route depth.
    """

    def __init__(self, link: MultiHopLink):
        self.link = link

    def open_stream(self, rng: np.random.Generator) -> DeliveryStream:
        return _TopologyStream(rng, self.link)

    def __repr__(self) -> str:
        return f"TopologyAwareDelivery({self.link.topology.max_hops()} max hops)"
