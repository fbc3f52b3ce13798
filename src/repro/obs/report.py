"""Summarize a trace: phase-time tables, health series, event counts.

This is the consumer side of the trace-event schema: load a JSONL trace
(or an :class:`~repro.obs.sinks.InMemorySink`'s records), reduce it to a
:class:`TraceSummary`, and render the Table-1-style breakdown::

    events = read_jsonl("trace.jsonl")
    summary = summarize_trace(events)
    print(format_trace_report(summary))

The same code backs ``python -m repro report <trace.jsonl>``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

logger = logging.getLogger(__name__)

#: Phases of one localizer iteration, in pipeline order.
ITERATION_PHASES = ("select", "weight", "resample")
#: Phases of one mean-shift estimate extraction, in pipeline order.
EXTRACT_PHASES = ("seed", "shift", "merge", "filter")


@dataclass
class StepSummary:
    """Aggregate of one time-step index across runs."""

    step: int
    ess: List[float] = field(default_factory=list)
    ess_fraction: List[float] = field(default_factory=list)
    spatial_spread: List[float] = field(default_factory=list)
    n_estimates: List[int] = field(default_factory=list)
    converged: List[bool] = field(default_factory=list)

    @staticmethod
    def _mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else float("nan")

    def mean_row(self) -> List:
        return [
            self.step,
            round(self._mean(self.ess), 1),
            round(self._mean(self.ess_fraction), 3),
            round(self._mean(self.spatial_spread), 2),
            round(self._mean(self.n_estimates), 2),
            sum(self.converged),
        ]


@dataclass
class TraceSummary:
    """Everything ``repro report`` prints, as plain data."""

    n_events: int = 0
    n_runs: int = 0
    #: Localizer iterations (readings): an ``iteration`` event counts as
    #: its ``readings`` field (one chunk), else as one (older traces).
    n_iterations: int = 0
    n_extracts: int = 0
    n_steps: int = 0
    #: Accumulated seconds per phase; extraction phases are prefixed
    #: ``extract.`` so one table covers the whole pipeline.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Sum of per-event ``total_seconds`` over iteration + extract events.
    total_measured_seconds: float = 0.0
    iterations_with_phases: int = 0
    iterations_with_touched: int = 0
    iterations_with_ess: int = 0
    empty_subsets: int = 0
    touched_total: int = 0
    touched_max: int = 0
    particles_resampled: int = 0
    particles_injected: int = 0
    steps: Dict[int, StepSummary] = field(default_factory=dict)
    run_meta: List[Dict] = field(default_factory=list)
    metrics_snapshots: List[Dict] = field(default_factory=list)
    #: Lines of the source JSONL file that did not parse (crashed-writer
    #: truncation, corruption); counted and skipped, never fatal.
    skipped_lines: int = 0
    #: Events that parsed as JSON but whose fields were malformed.
    malformed_events: int = 0
    #: Worker/cell failures replayed into the trace (``cell_failure``).
    cell_failures: List[Dict] = field(default_factory=list)

    @property
    def phase_total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def phase_coverage(self) -> float:
        """sum-of-phases / total measured runtime (1.0 = full coverage)."""
        if self.total_measured_seconds <= 0:
            return float("nan")
        return self.phase_total_seconds / self.total_measured_seconds

    @property
    def mean_touched(self) -> float:
        if self.n_iterations == 0:
            return float("nan")
        return self.touched_total / self.n_iterations

    def validate(self) -> List[str]:
        """Schema-completeness problems, empty when the trace is healthy."""
        problems: List[str] = []
        if self.n_iterations == 0:
            problems.append("trace contains no iteration events")
        for label, count in (
            ("phase timings", self.iterations_with_phases),
            ("touched-subset size", self.iterations_with_touched),
            ("ESS before/after", self.iterations_with_ess),
        ):
            if count != self.n_iterations:
                problems.append(
                    f"only {count}/{self.n_iterations} iterations carry {label}"
                )
        if self.skipped_lines:
            problems.append(
                f"{self.skipped_lines} unparseable line(s) skipped"
            )
        if self.malformed_events:
            problems.append(
                f"{self.malformed_events} malformed event(s) ignored"
            )
        if self.cell_failures:
            problems.append(
                f"{len(self.cell_failures)} worker cell failure(s) recorded"
            )
        return problems

    def to_dict(self) -> Dict:
        """The machine-readable summary (``repro report --json``)."""
        return {
            "n_events": self.n_events,
            "n_runs": self.n_runs,
            "n_iterations": self.n_iterations,
            "n_extracts": self.n_extracts,
            "n_steps": self.n_steps,
            "phase_seconds": dict(self.phase_seconds),
            "phase_total_seconds": self.phase_total_seconds,
            "total_measured_seconds": self.total_measured_seconds,
            "phase_coverage": self.phase_coverage,
            "empty_subsets": self.empty_subsets,
            "mean_touched": self.mean_touched,
            "touched_max": self.touched_max,
            "particles_resampled": self.particles_resampled,
            "particles_injected": self.particles_injected,
            "skipped_lines": self.skipped_lines,
            "malformed_events": self.malformed_events,
            "cell_failures": list(self.cell_failures),
            "steps": {
                str(step): {
                    "ess_mean": StepSummary._mean(record.ess),
                    "ess_fraction_mean": StepSummary._mean(record.ess_fraction),
                    "spatial_spread_mean": StepSummary._mean(
                        record.spatial_spread
                    ),
                    "n_estimates_mean": StepSummary._mean(
                        [float(n) for n in record.n_estimates]
                    ),
                    "converged_runs": sum(record.converged),
                }
                for step, record in sorted(self.steps.items())
            },
            "run_meta": list(self.run_meta),
            "metrics_snapshots": list(self.metrics_snapshots),
            "problems": self.validate(),
        }


def _add_phases(
    summary: TraceSummary, phases: Dict, known: Sequence[str], prefix: str = ""
) -> None:
    for name, seconds in phases.items():
        key = prefix + name
        summary.phase_seconds[key] = summary.phase_seconds.get(key, 0.0) + float(
            seconds
        )
    del known  # order is cosmetic; unknown phase names are kept as-is


def _ingest_iteration(summary: TraceSummary, event: Dict) -> None:
    # Convert every field BEFORE mutating the summary: a malformed event
    # must be dropped whole (counted in ``malformed_events``), never leave
    # a half-ingested iteration behind.
    total_seconds = float(event.get("total_seconds", 0.0))
    touched = event.get("touched")
    if touched is not None:
        touched = int(touched)
    resampled = int(event.get("resampled", 0))
    injected = int(event.get("injected", 0))
    readings = int(event.get("readings", 1))
    summary.n_iterations += readings
    phases = event.get("phases")
    if phases:
        summary.iterations_with_phases += readings
        _add_phases(summary, phases, ITERATION_PHASES)
    summary.total_measured_seconds += total_seconds
    if touched is not None:
        summary.iterations_with_touched += readings
        summary.touched_total += touched
        summary.touched_max = max(summary.touched_max, touched)
        if touched == 0:
            summary.empty_subsets += 1
    if event.get("ess_before") is not None and event.get("ess_after") is not None:
        summary.iterations_with_ess += readings
    summary.particles_resampled += resampled
    summary.particles_injected += injected


def _ingest_extract(summary: TraceSummary, event: Dict) -> None:
    summary.n_extracts += 1
    phases = event.get("phases")
    if phases:
        _add_phases(summary, phases, EXTRACT_PHASES, prefix="extract.")
    summary.total_measured_seconds += float(event.get("total_seconds", 0.0))


def _ingest_step(summary: TraceSummary, event: Dict) -> None:
    # Convert-before-mutate, same contract as ``_ingest_iteration``.
    step = int(event.get("step", -1))
    values = {}
    for key in ("ess", "ess_fraction", "spatial_spread"):
        value = event.get(key)
        if value is not None:
            values[key] = float(value)
    n_estimates = event.get("n_estimates")
    if n_estimates is not None:
        n_estimates = int(n_estimates)
    summary.n_steps += 1
    record = summary.steps.setdefault(step, StepSummary(step=step))
    for key, value in values.items():
        getattr(record, key).append(value)
    if n_estimates is not None:
        record.n_estimates.append(n_estimates)
    record.converged.append(bool(event.get("converged", False)))


def summarize_trace(events: Union[Sequence[Dict], str]) -> TraceSummary:
    """Reduce trace events (a list, or a JSONL path) to a summary.

    Robustness contract: a path is loaded *leniently* -- unparseable
    lines (a writer killed mid-record, disk corruption) are skipped and
    counted in ``skipped_lines``, never fatal.  Events whose fields are
    malformed are likewise counted in ``malformed_events`` and dropped,
    so one bad record cannot abort summarization mid-file.  Event order
    does not matter: every reduction is an order-independent
    accumulation, so truncated or out-of-order streams (interleaved
    worker spools, partial flight dumps) summarize to the same totals.
    """
    skipped = 0
    if isinstance(events, str) or hasattr(events, "__fspath__"):
        from repro.obs.sinks import read_jsonl_lenient

        events, skipped = read_jsonl_lenient(events)
    summary = TraceSummary()
    summary.skipped_lines = skipped
    for event in events:
        if not isinstance(event, dict):
            summary.malformed_events += 1
            continue
        summary.n_events += 1
        event_type = event.get("type")
        try:
            if event_type == "iteration":
                _ingest_iteration(summary, event)
            elif event_type == "extract":
                _ingest_extract(summary, event)
            elif event_type == "step":
                _ingest_step(summary, event)
            elif event_type == "run_start":
                summary.n_runs += 1
                summary.run_meta.append(
                    {k: v for k, v in event.items() if k not in ("type", "seq")}
                )
            elif event_type == "metrics":
                summary.metrics_snapshots.append(event.get("metrics", {}))
            elif event_type == "cell_failure":
                summary.cell_failures.append(
                    {k: v for k, v in event.items() if k not in ("type", "seq")}
                )
        except (TypeError, ValueError):
            summary.n_events -= 1
            summary.malformed_events += 1
    logger.debug(
        "summarized %d events: %d runs, %d iterations",
        summary.n_events,
        summary.n_runs,
        summary.n_iterations,
    )
    return summary


def phase_table(summary: TraceSummary) -> str:
    """The Table-1-style phase-time breakdown."""
    from repro.eval.reporting import format_table

    grand = summary.phase_total_seconds
    rows = [
        [name, round(seconds, 4), f"{seconds / grand:.1%}" if grand > 0 else "-"]
        for name, seconds in sorted(
            summary.phase_seconds.items(), key=lambda item: item[1], reverse=True
        )
    ]
    rows.append(["(sum of phases)", round(summary.phase_total_seconds, 4), ""])
    rows.append(
        [
            "(total measured)",
            round(summary.total_measured_seconds, 4),
            f"coverage {summary.phase_coverage:.1%}"
            if summary.total_measured_seconds > 0
            else "-",
        ]
    )
    return format_table(
        ["phase", "seconds", "share"], rows, title="Phase-time breakdown"
    )


def health_table(summary: TraceSummary) -> Optional[str]:
    """Per-step ESS / health time series, averaged over runs."""
    from repro.eval.reporting import format_table

    if not summary.steps:
        return None
    rows = [summary.steps[step].mean_row() for step in sorted(summary.steps)]
    return format_table(
        ["T", "ESS", "ESS/N", "spread", "estimates", "converged"],
        rows,
        title=f"Population health per step (mean over {summary.n_runs} runs)",
    )


def counts_table(summary: TraceSummary) -> str:
    from repro.eval.reporting import format_table

    rows = [
        ["runs", summary.n_runs],
        ["iterations", summary.n_iterations],
        ["estimate extractions", summary.n_extracts],
        ["time steps", summary.n_steps],
        ["empty fusion subsets", summary.empty_subsets],
        ["mean touched subset", round(summary.mean_touched, 1)],
        ["max touched subset", summary.touched_max],
        ["particles resampled", summary.particles_resampled],
        ["particles injected", summary.particles_injected],
    ]
    return format_table(["quantity", "value"], rows, title="Event counts")


def failures_table(summary: TraceSummary) -> Optional[str]:
    """Worker cell failures replayed into the trace, if any."""
    from repro.eval.reporting import format_table

    if not summary.cell_failures:
        return None
    rows = [
        [
            failure.get("cell", "-"),
            failure.get("attempt", "-"),
            failure.get("stage", "-"),
            failure.get("exception_type", "-"),
            failure.get("n_events_recovered", 0),
        ]
        for failure in summary.cell_failures
    ]
    return format_table(
        ["cell", "attempt", "stage", "exception", "events recovered"],
        rows,
        title="Worker cell failures",
    )


def format_trace_report(summary: TraceSummary) -> str:
    """The full plain-text report for ``python -m repro report``."""
    sections = [counts_table(summary), phase_table(summary)]
    health = health_table(summary)
    if health is not None:
        sections.append(health)
    failures = failures_table(summary)
    if failures is not None:
        sections.append(failures)
    for snapshot in summary.metrics_snapshots:
        from repro.obs.metrics import format_metrics

        sections.append(format_metrics(snapshot, title="Metrics snapshot"))
    problems = summary.validate()
    if problems:
        sections.append("trace problems:\n" + "\n".join(f"- {p}" for p in problems))
    return "\n\n".join(sections)
