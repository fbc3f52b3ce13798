"""Table I: average execution time per iteration.

Paper setup: particles in {2000, 5000, 15000} x sensors in {36, 196},
measured on a 4-core and a 24-core machine.  Absolute numbers are
hardware-bound; the *shapes* we reproduce:

* per-iteration cost grows with the particle count;
* per-iteration cost does NOT grow with N (the fusion range caps the
  touched particles; the paper's N = 196 column is not slower than 36).

The paper's 4 -> 24 core speedup is not reproduced: mean-shift runs in
one process, and sharding its seeds over worker processes lost to the
serial pass on 2 vCPUs (EXPERIMENTS.md, Table I).

The per-iteration timing includes the mean-shift estimate extraction,
matching the paper's accounting ("the majority of the concurrency is
achieved using the mean-shift technique").
"""

import os
import time

import pytest

from benchmarks.conftest import BENCH_SEED, write_bench_json
from repro.core.localizer import MultiSourceLocalizer
from repro.eval.reporting import format_table
from repro.sensors.network import SensorNetwork
from repro.sim.rng import spawn_rngs
from repro.sim.scenarios import scenario_a, scenario_b

PARTICLE_COUNTS = (2000, 5000, 15000)
WARMUP_STEPS = 2


def _prepared_localizer(n_particles, n_sensors):
    """A localizer warmed up on the target scenario, plus its network."""
    if n_sensors == 36:
        scenario = scenario_a(strengths=(50.0, 50.0), n_particles=n_particles)
    else:
        scenario = scenario_b(n_particles=n_particles)
    measurement_rng, _t, filter_rng = spawn_rngs(BENCH_SEED, 3)
    network = SensorNetwork(
        scenario.sensors, scenario.field_with_obstacles(), measurement_rng
    )
    localizer = MultiSourceLocalizer(scenario.localizer_config, rng=filter_rng)
    for t in range(WARMUP_STEPS):
        for measurement in network.measure_time_step(t):
            localizer.observe(measurement)
    return localizer, network


def _one_iteration(localizer, measurements, state):
    measurement = measurements[state["i"] % len(measurements)]
    state["i"] += 1
    localizer.observe(measurement)
    localizer.estimates()


@pytest.mark.parametrize("n_sensors", (36, 196), ids=["N=36", "N=196"])
@pytest.mark.parametrize("n_particles", PARTICLE_COUNTS)
def test_table1_iteration_time(n_particles, n_sensors, report, benchmark):
    localizer, network = _prepared_localizer(n_particles, n_sensors)
    measurements = network.measure_time_step(WARMUP_STEPS)
    state = {"i": 0}
    benchmark.pedantic(
        _one_iteration,
        args=(localizer, measurements, state),
        rounds=20,
        iterations=1,
        warmup_rounds=2,
    )
    mean_ms = benchmark.stats.stats.mean * 1000.0
    report.add(
        f"Table I cell: {n_particles} particles, N={n_sensors}: "
        f"{mean_ms:.2f} ms per iteration (weight+resample+mean-shift)"
    )


def test_table1_summary(report, benchmark):
    """The full table in one artifact, plus the shape assertions."""

    def measure():
        table = {}
        for n_particles in PARTICLE_COUNTS:
            for n_sensors in (36, 196):
                localizer, network = _prepared_localizer(n_particles, n_sensors)
                measurements = network.measure_time_step(WARMUP_STEPS)
                start = time.perf_counter()
                rounds = 15
                for i in range(rounds):
                    localizer.observe(measurements[i % len(measurements)])
                    localizer.estimates()
                table[(n_particles, n_sensors)] = (
                    (time.perf_counter() - start) / rounds
                )
        return table

    table = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [
            n_particles,
            round(table[(n_particles, 36)] * 1000, 2),
            round(table[(n_particles, 196)] * 1000, 2),
        ]
        for n_particles in PARTICLE_COUNTS
    ]
    report.add(
        format_table(
            ["# particles", "N=36 (ms/iter)", "N=196 (ms/iter)"],
            rows,
            title="Table I analog: mean per-iteration time "
            "(this machine, vectorized single process)",
        )
    )
    write_bench_json(
        "table1",
        metrics={
            f"p{n_particles}_n{n_sensors}_ms_per_iter": (
                table[(n_particles, n_sensors)] * 1000
            )
            for n_particles in PARTICLE_COUNTS
            for n_sensors in (36, 196)
        },
        config={
            "particle_counts": list(PARTICLE_COUNTS),
            "sensor_counts": [36, 196],
            "rounds": 15,
        },
        context={"cpu_count": os.cpu_count()},
    )
    # Shape: cost grows with particles...
    assert table[(15000, 36)] > table[(2000, 36)]
    # ...but a 5.4x larger sensor network does not inflate the iteration
    # cost by anything like its size (fusion range bounds the work).
    assert table[(15000, 196)] < table[(15000, 36)] * 3.0
