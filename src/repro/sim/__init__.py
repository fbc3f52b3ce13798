"""Simulation harness: scenarios, time-stepped runner, result containers.

The evaluation protocol of Section VI: sensors submit one measurement per
time step ``T`` (so one time step = N localizer iterations), runs last 30
time steps, and each configuration is repeated (the paper averages 10
repeats).  A :class:`repro.sim.SessionSpec` describes one run; the
:class:`repro.sim.LocalizerSession` it opens drives a ground-truth
:class:`repro.sensors.SensorNetwork` through a
:class:`repro.network.DeliveryModel` into a localizer and records per-step
metrics.
"""

from repro.sim.rng import derive_run_seed, spawn_rngs, seeded_rng
from repro.sim.scenario import Scenario
from repro.sim.scenarios import (
    scenario_a,
    scenario_a_three_sources,
    scenario_b,
    scenario_c,
    SCENARIO_A_SOURCES,
    SCENARIO_A3_SOURCES,
    SCENARIO_B_SOURCES,
)
from repro.sim.results import StepRecord, RunResult, RepeatedRunResult
from repro.sim.runner import run_scenario, run_repeated
from repro.sim.session import LocalizerSession, SessionSpec
from repro.sim.serialization import (
    CheckpointError,
    load_checkpoint,
    load_scenario,
    run_result_from_dict,
    run_result_to_dict,
    save_checkpoint,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__all__ = [
    "derive_run_seed",
    "spawn_rngs",
    "seeded_rng",
    "Scenario",
    "scenario_a",
    "scenario_a_three_sources",
    "scenario_b",
    "scenario_c",
    "SCENARIO_A_SOURCES",
    "SCENARIO_A3_SOURCES",
    "SCENARIO_B_SOURCES",
    "StepRecord",
    "RunResult",
    "RepeatedRunResult",
    "LocalizerSession",
    "SessionSpec",
    "run_scenario",
    "run_repeated",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "load_scenario",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "run_result_from_dict",
    "run_result_to_dict",
]
