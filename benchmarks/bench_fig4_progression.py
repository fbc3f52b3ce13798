"""Fig. 4: progression of the particle filter over time.

The paper's picture shows particles starting uniform and clustering at the
two sources by time steps 1-7.  We reproduce it as (i) ASCII density maps
at T = 1, 3, 5, 7 and (ii) a quantitative concentration series: the
fraction of particle mass within 15 units of either source, which should
rise monotonically-ish from the uniform baseline (~14 %) toward ~1.
"""

import numpy as np

from benchmarks.conftest import BENCH_SEED
from repro.eval.reporting import format_series
from repro.sim.runner import run_scenario
from repro.sim.scenarios import scenario_a
from repro.viz.ascii_map import render_particles

SNAPSHOT_STEPS = (1, 3, 5, 7)


def test_fig4_progression(report, benchmark):
    scenario = scenario_a(strengths=(50.0, 50.0), n_time_steps=10)

    def run():
        return run_scenario(
            scenario, seed=BENCH_SEED, snapshot_steps=tuple(range(10))
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    concentration = []
    for record in result.steps:
        particles = record.snapshot
        total = particles.weights.sum()
        near = 0.0
        claimed = np.zeros(len(particles), dtype=bool)
        for source in scenario.sources:
            idx = particles.indices_within(source.x, source.y, 15.0)
            fresh = idx[~claimed[idx]]
            near += particles.weights[fresh].sum()
            claimed[fresh] = True
        concentration.append(float(near / total))

    report.add(
        "Fig. 4: fraction of particle mass within 15 units of a source\n"
        "(uniform baseline ~0.14; clustering drives it toward 1)\n"
    )
    report.add(
        format_series({"concentration": [round(c, 3) for c in concentration]}, "T")
    )

    for t in SNAPSHOT_STEPS:
        report.add(f"\n--- time step {t} ---")
        report.add(
            render_particles(
                result.steps[t].snapshot,
                scenario.area,
                sources=scenario.sources,
                estimates=result.steps[t].estimates,
                cols=60,
                rows=30,
            )
        )

    # Shape assertions: early clustering (paper: "as early as T = 1") and
    # sustained concentration afterwards.  The plateau sits near ~0.5, not
    # 1.0, because the 5 % random-injection fraction deliberately keeps
    # exploratory mass alive everywhere (the new-source provision).
    uniform_baseline = 2 * np.pi * 15.0**2 / (100.0 * 100.0)
    assert concentration[1] > uniform_baseline * 1.5
    assert concentration[7] > 0.40
    assert concentration[9] > concentration[0]
