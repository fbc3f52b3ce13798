"""Batch entry points: run a scenario once, or repeat it the paper's way.

Each run is one :class:`~repro.sim.session.LocalizerSession` opened from a
:class:`~repro.sim.session.SessionSpec`: every time step each live sensor
produces one reading, the delivery model orders (and loses) them, the
localizer consumes one per iteration, and the step's estimates are scored,
health-checked and fed to the convergence monitor.  Code that wants to
advance step-by-step or checkpoint/resume opens the session itself
(``spec.open()``).

A :class:`~repro.obs.trace.Tracer` records ``run_start`` / ``step`` /
``run_end`` events (plus the localizer's and the session's own) and a
:class:`~repro.obs.metrics.MetricsRegistry` aggregates counters; both
default to null implementations that cost nothing.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.core.fusion import FusionRangePolicy
from repro.obs.ledger import Ledger, RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim.results import RepeatedRunResult, RunResult
from repro.sim.rng import derive_run_seed
from repro.sim.scenario import Scenario
from repro.sim.session import SessionSpec


def run_scenario(
    scenario: Scenario,
    seed: int = 0,
    fusion_policy: Optional[FusionRangePolicy] = None,
    snapshot_steps: Sequence[int] = (),
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> RunResult:
    """Convenience wrapper: run a scenario once."""
    spec = SessionSpec(
        scenario=scenario,
        seed=seed,
        fusion_policy=fusion_policy,
        snapshot_steps=tuple(snapshot_steps),
    )
    return spec.open(tracer, metrics).run()


def run_repeated(
    scenario: Union[Scenario, SessionSpec],
    n_repeats: int = 10,
    base_seed: int = 0,
    fusion_policy: Optional[FusionRangePolicy] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    workers: int = 0,
    timeout: Optional[float] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str | Path] = None,
    ledger: Optional[Ledger] = None,
    manifest_name: Optional[str] = None,
    flight_dir: Optional[str | Path] = None,
) -> RepeatedRunResult:
    """Run a scenario (or spec) ``n_repeats`` times with distinct seeds.

    The paper's protocol ("each simulation is repeated 10 times and the
    average results are reported").  Repeat ``r`` copies the spec with
    seed ``derive_run_seed(base_seed, r)``; ``fusion_policy`` and
    ``manifest_name``, when given, replace the spec's.  Every repeat is a
    cell of the experiment engine (:mod:`repro.exp`): ``workers=0`` runs
    them serially in-process, ``workers=N`` in a process pool, with
    bitwise-identical results; ``timeout`` bounds each parallel run.

    ``checkpoint_every``/``checkpoint_dir`` checkpoint each run to its own
    file, so a retried run restores instead of starting over;
    ``flight_dir`` arms a flight recorder at
    ``flight_dir/run-<r>.flight.json``; ``ledger`` appends each run's
    manifest parent-side once the results are in.  A spec with a
    ``record_path`` needs a single serial uncheckpointed run.
    """
    from repro.exp.engine import run_cells
    from repro.exp.spec import SweepCell

    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    spec = scenario if isinstance(scenario, SessionSpec) else SessionSpec(
        scenario=scenario
    )
    if fusion_policy is not None:
        spec = replace(spec, fusion_policy=fusion_policy)
    if manifest_name is not None:
        spec = replace(spec, manifest_name=manifest_name)
    if spec.record_path is not None and (
        n_repeats != 1 or workers > 0 or checkpoint_every > 0
    ):
        raise ValueError(
            "stream recording requires a single serial uncheckpointed run "
            "(n_repeats=1, workers=0, checkpoint_every=0)"
        )
    cells = [
        SweepCell(
            variant_name=spec.manifest_name or "",
            variant_index=0,
            repeat_index=r,
            spec=replace(
                spec,
                seed=derive_run_seed(base_seed, r),
                run_index=r,
                flight_path=(
                    None
                    if flight_dir is None
                    else Path(flight_dir) / f"run-{r}.flight.json"
                ),
            ),
        )
        for r in range(n_repeats)
    ]
    manifests: List[dict] = []
    runs = run_cells(
        cells,
        workers=workers,
        timeout=timeout,
        tracer=tracer,
        metrics=metrics,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        manifests=manifests,
    )
    if ledger is not None:
        for doc in manifests:
            ledger.append(RunManifest.from_dict(doc))
    return RepeatedRunResult(
        scenario_name=runs[0].scenario_name,
        source_labels=runs[0].source_labels,
        runs=runs,
    )
