"""Fig. 2: without the fusion range, the particle filter oscillates.

The paper shows a classic (single-population, full-update) particle filter
failing on two sources: the whole population gravitates to whichever
source's sensors reported most recently, sloshing between sources A and B
as the measurement sweep passes over them.

We reproduce it by running the localizer with ``InfiniteFusionRange`` and
tracking, after each reporting sensor, the fraction of particle mass near
each source.  The bench quantifies (i) the oscillation (mass swings
between the sources within a single time step) and (ii) the end-to-end
consequence: worst-source accuracy is far worse than with the fusion
range.
"""

import numpy as np

from benchmarks.conftest import BENCH_SEED
from repro.core.fusion import InfiniteFusionRange
from repro.core.localizer import MultiSourceLocalizer
from repro.eval.aggregate import mean_over_steps
from repro.eval.reporting import format_table
from repro.sensors.network import SensorNetwork
from repro.sim.rng import spawn_rngs
from repro.sim.runner import run_scenario
from repro.sim.scenarios import scenario_a


def _mass_trace(fusion_policy, n_steps=6):
    """Per-iteration mass fraction near each source."""
    scenario = scenario_a(strengths=(50.0, 50.0))
    measurement_rng, _t, filter_rng = spawn_rngs(BENCH_SEED, 3)
    network = SensorNetwork(
        scenario.sensors, scenario.field_with_obstacles(), measurement_rng
    )
    localizer = MultiSourceLocalizer(
        scenario.localizer_config, fusion_policy=fusion_policy, rng=filter_rng
    )
    trace_a, trace_b = [], []
    for t in range(n_steps):
        for measurement in network.measure_time_step(t):
            localizer.observe(measurement)
            particles = localizer.particles
            total = particles.weights.sum()
            near_a = particles.weights[particles.indices_within(47, 71, 20.0)].sum()
            near_b = particles.weights[particles.indices_within(81, 42, 20.0)].sum()
            trace_a.append(near_a / total)
            trace_b.append(near_b / total)
    return np.array(trace_a), np.array(trace_b)


def test_fig2_oscillation_without_fusion_range(report, benchmark):
    def run():
        return {
            "without": _mass_trace(InfiniteFusionRange()),
            "with": _mass_trace(None),
        }

    traces = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    swings = {}
    for label, (mass_a, mass_b) in traces.items():
        # Oscillation metric: per-time-step swing of source A's share.
        per_step = mass_a.reshape(-1, 36)
        swing = float(np.mean(per_step.max(axis=1) - per_step.min(axis=1)))
        swings[label] = swing
        rows.append(
            [
                label,
                round(float(mass_a[-1]), 3),
                round(float(mass_b[-1]), 3),
                round(swing, 3),
            ]
        )
    report.add(
        format_table(
            ["fusion range", "final mass@A", "final mass@B", "mass swing/step"],
            rows,
            title="Fig. 2: particle mass near sources A (47,71) and B (81,42)\n"
            "two 50 uCi sources; mass swing = within-step max-min of A's share",
        )
    )

    # The paper's effect: without the fusion range the population sloshes
    # and cannot hold both clusters simultaneously.
    without_a, without_b = traces["without"]
    with_a, with_b = traces["with"]
    assert min(with_a[-1], with_b[-1]) > 0.05, "fusion range should hold both clusters"
    assert min(without_a[-1], without_b[-1]) < 0.05, (
        "without fusion range one cluster should collapse"
    )
    assert swings["without"] > swings["with"], "oscillation should be larger without"

    # End-to-end accuracy comparison over a full run.
    scenario = scenario_a(strengths=(50.0, 50.0), n_time_steps=15)
    with_fr = run_scenario(scenario, seed=BENCH_SEED)
    without_fr = run_scenario(
        scenario, seed=BENCH_SEED, fusion_policy=InfiniteFusionRange()
    )
    rows = []
    for label, result in (("d=24", with_fr), ("infinite", without_fr)):
        worst = max(
            mean_over_steps(result.error_series(i), first_step=8) for i in range(2)
        )
        rows.append([label, round(worst, 1)])
    report.add(
        format_table(
            ["fusion range", "worst-source steady error"],
            rows,
            title="\nEnd-to-end accuracy (steps 8-14):",
        )
    )
    assert rows[1][1] > rows[0][1]
