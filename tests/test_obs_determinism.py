"""Instrumentation must not perturb the filter (determinism regression).

A run with tracing, metrics, the flight recorder or the ledger enabled
must produce bit-identical estimates and StepRecords to the same seed
with instrumentation disabled, on every backend: the attachments only
read clocks and emit events, never touch the RNG or the particle arrays,
and never choose which code path runs.
"""

import numpy as np
import pytest

from repro.core.config import LocalizerConfig
from repro.core.localizer import MultiSourceLocalizer
from repro.obs.ledger import Ledger
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer
from repro.sim.runner import run_scenario
from repro.sim.scenarios import scenario_a
from repro.sim.serialization import step_record_to_dict
from repro.sim.session import SessionSpec

SEED = 17


def _run(tracer=None, metrics=None):
    scenario = scenario_a(strengths=(50.0, 50.0), n_time_steps=5)
    return run_scenario(scenario, seed=SEED, tracer=tracer, metrics=metrics)


def assert_runs_identical(plain, instrumented):
    assert plain.n_steps == instrumented.n_steps
    for a, b in zip(plain.steps, instrumented.steps):
        assert a.metrics == b.metrics
        assert a.estimates == b.estimates
        assert a.n_measurements == b.n_measurements
        assert a.converged == b.converged
        assert a.health == b.health


def test_traced_run_bit_identical_to_plain():
    plain = _run()
    instrumented = _run(tracer=Tracer(InMemorySink()), metrics=MetricsRegistry())
    assert_runs_identical(plain, instrumented)


def test_jsonl_traced_run_bit_identical_to_plain(tmp_path):
    from repro.obs.trace import jsonl_tracer

    plain = _run()
    tracer = jsonl_tracer(tmp_path / "t.jsonl")
    try:
        instrumented = _run(tracer=tracer)
    finally:
        tracer.close()
    assert_runs_identical(plain, instrumented)


#: Observability attachments of one session, each switchable on its own.
TOGGLES = ("tracer", "metrics", "flight", "ledger")


def _session_records(backend, toggles, tmp_path):
    """Step records of one scenario-A session opened through SessionSpec.

    The last step snapshots the particle population, so the comparison
    covers the raw arrays as well as the estimates and metrics.
    """
    n_steps = 4
    spec = SessionSpec(
        scenario=scenario_a(strengths=(50.0, 50.0), n_time_steps=n_steps),
        seed=SEED,
        backend=backend,
        snapshot_steps=(n_steps - 1,),
        flight_path=(
            str(tmp_path / "run.flight.json") if "flight" in toggles else None
        ),
    )
    session = spec.open(
        tracer=Tracer(InMemorySink()) if "tracer" in toggles else None,
        metrics=MetricsRegistry() if "metrics" in toggles else None,
        ledger=Ledger(tmp_path / "ledger") if "ledger" in toggles else None,
    )
    records = []
    for record in session.run().steps:
        doc = step_record_to_dict(record)
        del doc["mean_iteration_seconds"]  # wall-clock, not results
        records.append(doc)
    return records


@pytest.mark.parametrize("backend", ["default", "fast"])
def test_observability_toggles_do_not_change_results(backend, tmp_path):
    """{tracer, metrics, flight recorder, ledger}, alone and all together,
    give the plain run's StepRecords bit for bit on the same backend."""
    plain = _session_records(backend, (), tmp_path / "plain")
    for toggles in [(t,) for t in TOGGLES] + [TOGGLES]:
        instrumented = _session_records(
            backend, toggles, tmp_path / "-".join(toggles)
        )
        assert instrumented == plain, f"{backend} diverged under {toggles}"


def test_localizer_population_identical_with_tracing():
    """Beyond estimates: the raw particle arrays must match exactly."""

    def consume(localizer):
        rng = np.random.default_rng(99)
        for _ in range(40):
            x, y = rng.uniform(0, 100, size=2)
            cpm = float(rng.poisson(20.0))
            localizer.observe_reading(x, y, cpm)

    config = LocalizerConfig(
        area=(100.0, 100.0), n_particles=500, assumed_background_cpm=5.0
    )
    plain = MultiSourceLocalizer(config, rng=np.random.default_rng(SEED))
    traced = MultiSourceLocalizer(
        config,
        rng=np.random.default_rng(SEED),
        tracer=Tracer(InMemorySink()),
        metrics=MetricsRegistry(),
    )
    consume(plain)
    consume(traced)
    np.testing.assert_array_equal(plain.particles.xs, traced.particles.xs)
    np.testing.assert_array_equal(plain.particles.ys, traced.particles.ys)
    np.testing.assert_array_equal(plain.particles.strengths, traced.particles.strengths)
    np.testing.assert_array_equal(plain.particles.weights, traced.particles.weights)
    assert plain.estimates() == traced.estimates()
