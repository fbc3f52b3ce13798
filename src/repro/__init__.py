"""repro: multiple radiation source localization (ICDCS 2011 reproduction).

A faithful, self-contained reproduction of

    Chin, Yau, Rao. "Efficient and Robust Localization of Multiple
    Radiation Sources in Complex Environments." ICDCS 2011.

Quickstart::

    import numpy as np
    from repro import (
        LocalizerConfig, MultiSourceLocalizer, RadiationSource,
        RadiationField, SensorNetwork, grid_placement,
    )

    rng = np.random.default_rng(7)
    sources = [RadiationSource(47, 71, 10.0), RadiationSource(81, 42, 10.0)]
    sensors = grid_placement(6, 6, 100, 100, background_cpm=5.0,
                             margin_fraction=0.0)
    network = SensorNetwork(sensors, RadiationField(sources), rng)
    localizer = MultiSourceLocalizer(
        LocalizerConfig(area=(100, 100), assumed_background_cpm=5.0),
        rng=np.random.default_rng(8),
    )
    for t in range(10):
        for m in network.measure_time_step(t):
            localizer.observe(m)
    print(localizer.estimates())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

import logging as _logging

# Library convention: never configure handlers here.  The CLI (or the
# embedding application) decides where log records go; without that, the
# NullHandler keeps "No handlers could be found" noise away.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from repro.core import (
    AutoFusionRange,
    ConvergenceMonitor,
    FixedFusionRange,
    FusionRangePolicy,
    InfiniteFusionRange,
    LocalizerConfig,
    MultiSourceLocalizer,
    ParticleSet,
    SourceEstimate,
    extract_estimates,
)
from repro.eval import (
    MATCH_RADIUS,
    TrackAssociator,
    ospa_distance,
    StepMetrics,
    evaluate_step,
    match_estimates,
)
from repro.network import (
    CommunicationGraph,
    ExponentialLatencyLink,
    MultiHopLink,
    TopologyAwareDelivery,
    InOrderDelivery,
    LossyLink,
    OutOfOrderDelivery,
    PerfectLink,
    ShuffledDelivery,
    UniformLatencyLink,
)
from repro.obs import (
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    PhaseTimer,
    Stopwatch,
    Tracer,
    format_trace_report,
    jsonl_tracer,
    summarize_trace,
)
from repro.physics import (
    ConstantBackground,
    Material,
    MATERIALS,
    Obstacle,
    RadiationField,
    RadiationSource,
    expected_cpm,
    free_space_intensity,
    transport_intensity,
)
from repro.sensors import (
    Measurement,
    Sensor,
    SensorNetwork,
    grid_placement,
    poisson_placement,
)
from repro.sim import (
    RepeatedRunResult,
    load_scenario,
    save_scenario,
    RunResult,
    Scenario,
    SessionSpec,
    run_repeated,
    run_scenario,
    scenario_a,
    scenario_a_three_sources,
    scenario_b,
    scenario_c,
)

__version__ = "1.0.0"

#: Resolved on first access (PEP 562): no session step runs the sweep
#: engine, so ``import repro`` does not load it.
_SWEEP_NAMES = ("SweepResult", "SweepSpec", "Variant", "run_sweep")


def __getattr__(name):
    if name in _SWEEP_NAMES:
        import repro.exp

        return getattr(repro.exp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SWEEP_NAMES))


__all__ = [
    "AutoFusionRange",
    "ConvergenceMonitor",
    "TrackAssociator",
    "ospa_distance",
    "CommunicationGraph",
    "MultiHopLink",
    "TopologyAwareDelivery",
    "load_scenario",
    "save_scenario",
    "FixedFusionRange",
    "FusionRangePolicy",
    "InfiniteFusionRange",
    "LocalizerConfig",
    "MultiSourceLocalizer",
    "ParticleSet",
    "SourceEstimate",
    "extract_estimates",
    "MATCH_RADIUS",
    "StepMetrics",
    "evaluate_step",
    "match_estimates",
    "Tracer",
    "NullSink",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "PhaseTimer",
    "Stopwatch",
    "jsonl_tracer",
    "summarize_trace",
    "format_trace_report",
    "ExponentialLatencyLink",
    "InOrderDelivery",
    "LossyLink",
    "OutOfOrderDelivery",
    "PerfectLink",
    "ShuffledDelivery",
    "UniformLatencyLink",
    "ConstantBackground",
    "Material",
    "MATERIALS",
    "Obstacle",
    "RadiationField",
    "RadiationSource",
    "expected_cpm",
    "free_space_intensity",
    "transport_intensity",
    "Measurement",
    "Sensor",
    "SensorNetwork",
    "grid_placement",
    "poisson_placement",
    "RepeatedRunResult",
    "RunResult",
    "Scenario",
    "SessionSpec",
    "run_repeated",
    "run_scenario",
    "run_sweep",
    "SweepResult",
    "SweepSpec",
    "Variant",
    "scenario_a",
    "scenario_a_three_sources",
    "scenario_b",
    "scenario_c",
    "__version__",
]
