"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       Run a paper scenario (a, a3, b, c) and print per-step metrics.
``layout``    Render a scenario's layout as an ASCII map.
``sweep``     Sweep source strength or background over Scenario A.
``export``    Write a paper scenario to a JSON document.
``run-file``  Run a scenario loaded from a JSON document.
``resume``    Resume a checkpointed run and print its metrics.
``record``    Run a scenario once and record its measurement stream to a
              ``repro-stream v1`` JSONL file (``run --stream PATH`` tees
              the same recording onto a normal run).
``replay``    Re-run the localizer over a recorded stream file -- same
              seed reproduces the recorded run bitwise; ``--seed``,
              ``--faults``/``--no-faults`` and ``--backend`` re-run
              variations over the identical measurement realization.
``serve``     Drive recorded streams through the multi-tenant serving
              front-end: admission control, shard worker processes,
              deadline-aware retries and checkpoint-backed self-healing
              (see ``docs/SERVING.md``).
``report``    The observability readout, four subcommands:
              ``trace`` summarizes a JSONL trace (``report PATH`` is a
              shorthand for ``report trace PATH``); ``trends`` tabulates
              a ledger series' metric history; ``compare`` diffs two
              manifests; ``gate`` exits nonzero when a tracked metric
              regressed beyond tolerance.  All four accept ``--json``.

Examples::

    python -m repro run a --strength 50 --repeats 3
    python -m repro run b --seed 7
    python -m repro run a --trace trace.jsonl --metrics --health
    python -m repro run a --ledger .repro/ledger --flight-dir flights
    python -m repro report trace.jsonl
    python -m repro report trace trace.jsonl --json
    python -m repro report trends --ledger .repro/ledger
    python -m repro report compare old.json new.json
    python -m repro report gate --baseline .repro/ledger/scenario-a.jsonl
    python -m repro layout b
    python -m repro sweep strength --values 4 10 50 100 --workers 4
    python -m repro run b --repeats 10 --workers 4
    python -m repro export a --out my_scenario.json
    python -m repro run-file my_scenario.json --repeats 3 --metrics
    python -m repro run c --checkpoint-every 5 --checkpoint-dir ckpts
    python -m repro resume ckpts/cell-v0-r0.ckpt.json --health
    python -m repro run a --faults faults.json --integrity
    python -m repro record a --out run.stream.jsonl --seed 7
    python -m repro replay run.stream.jsonl
    python -m repro replay run.stream.jsonl --faults drop.json --integrity
    python -m repro replay run.stream.jsonl --pace wall --speed 4
    python -m repro serve a.stream.jsonl b.stream.jsonl --shards 2
    python -m repro report trends --ledger .repro/ledger --stream live

Every command accepts ``--verbose``/``-v`` (repeatable: ``-vv`` for debug)
and ``--quiet``/``-q`` to control the library's stdlib logging; the
library itself never configures handlers (NullHandler only) -- only this
CLI does.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.config import BACKEND_NAMES
from repro.eval.aggregate import mean_over_steps
from repro.eval.reporting import format_health_series, format_series, format_table
from repro.obs.ledger import Ledger
from repro.obs.metrics import MetricsRegistry, format_metrics
from repro.obs.report import format_trace_report, summarize_trace
from repro.obs.trace import Tracer, jsonl_tracer
from repro.obs.trends import (
    compare_manifests,
    compare_table,
    filter_by_stream,
    gate_report,
    load_manifest_source,
    resolve_series,
    trend_table,
)
from repro.sim.runner import run_repeated
from repro.sim.scenario import Scenario
from repro.sim.session import SessionSpec, with_config
from repro.sim.scenarios import (
    scenario_a,
    scenario_a_three_sources,
    scenario_b,
    scenario_c,
    scenario_c_fusion_policy,
)
from repro.viz.ascii_map import render_scenario

logger = logging.getLogger(__name__)


def configure_logging(verbose: int = 0, quiet: bool = False) -> None:
    """Wire stdlib logging for CLI use (the library never does this)."""
    if quiet:
        level = logging.ERROR
    elif verbose >= 2:
        level = logging.DEBUG
    elif verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
        datefmt="%H:%M:%S",
    )
    logging.getLogger("repro").setLevel(level)


def _build_scenario(args) -> tuple:
    """(scenario, fusion_policy) for the requested name."""
    name = args.scenario.lower()
    if name == "a":
        return (
            scenario_a(
                strengths=(args.strength, args.strength),
                background_cpm=args.background,
                with_obstacle=args.obstacles,
                n_time_steps=args.steps,
            ),
            None,
        )
    if name == "a3":
        return (
            scenario_a_three_sources(
                strengths=(args.strength,) * 3,
                background_cpm=args.background,
                n_time_steps=args.steps,
            ),
            None,
        )
    if name == "b":
        return (
            scenario_b(
                background_cpm=args.background,
                with_obstacles=args.obstacles,
                n_time_steps=args.steps,
            ),
            None,
        )
    if name == "c":
        scenario = scenario_c(
            background_cpm=args.background,
            with_obstacles=args.obstacles,
            n_time_steps=args.steps,
        )
        return scenario, scenario_c_fusion_policy(scenario)
    raise SystemExit(f"unknown scenario {args.scenario!r}; choose a, a3, b, or c")


def _configure(scenario: Scenario, args) -> Scenario:
    """Apply the shared ``--faults`` / ``--integrity`` / ``--backend`` flags.

    ``--backend`` has the highest selection precedence: it overwrites the
    config field, which in turn shadows the ``REPRO_BACKEND`` env var.
    """
    if getattr(args, "faults", None):
        from repro.faults import load_fault_schedule

        try:
            scenario = scenario.with_faults(load_fault_schedule(args.faults))
        except OSError as exc:
            raise SystemExit(f"cannot read fault schedule {args.faults}: {exc}")
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"fault schedule {args.faults} is not valid JSON: {exc}"
            )
        except (ValueError, TypeError, KeyError) as exc:
            raise SystemExit(f"bad fault schedule {args.faults}: {exc}")
    return with_config(
        scenario,
        backend=getattr(args, "backend", None),
        integrity=getattr(args, "integrity", False),
    )


def _open_instrumentation(args):
    """(tracer, registry) from the shared ``--trace``/``--metrics`` flags."""
    tracer: Optional[Tracer] = jsonl_tracer(args.trace) if args.trace else None
    registry: Optional[MetricsRegistry] = (
        MetricsRegistry() if args.metrics else None
    )
    return tracer, registry


def _print_instrumentation(args, registry) -> None:
    """The post-run metrics/trace report for the shared flags."""
    if registry is not None:
        print()
        print(format_metrics(registry.snapshot(), title="run metrics"))
    if args.trace:
        print(f"\nwrote trace to {args.trace} "
              f"(summarize with: python -m repro report {args.trace})")


def _print_aggregate(scenario, agg, args) -> None:
    """The shared per-step metrics report for run / run-file / resume."""
    print(format_series(agg.all_mean_series(), index_name="T"))
    print()
    skip = min(5, scenario.n_time_steps - 1)
    rows = [
        [label, round(mean_over_steps(agg.mean_error_series(i), skip), 2)]
        for i, label in enumerate(agg.source_labels)
    ]
    print(format_table(["source", f"mean err (T>={skip})"], rows))
    fp = mean_over_steps(agg.mean_false_positive_series(), skip)
    fn = mean_over_steps(agg.mean_false_negative_series(), skip)
    print(f"\nsteady state: FP {fp:.2f}/step, FN {fn:.2f}/step")
    if getattr(args, "health", False):
        first = agg.runs[0]
        print()
        print(
            format_health_series(
                first.health_series(),
                [s.converged for s in first.steps],
                title=f"population health (run 1 of {agg.n_repeats}, "
                f"seed {args.seed})",
            )
        )


def _open_ledger(args) -> Optional[Ledger]:
    """The run ledger from the shared ``--ledger`` flag (None = off)."""
    if getattr(args, "ledger", None) is None:
        return None
    return Ledger(args.ledger)


def _report_run(spec: SessionSpec, args) -> None:
    """Run + report ``args.repeats`` copies of a spec (run / record / run-file)."""
    if spec.record_path and (
        args.repeats != 1 or args.workers or args.checkpoint_every > 0
    ):
        raise SystemExit(
            "--stream recording requires a single serial uncheckpointed run "
            "(--repeats 1, --workers 0, no --checkpoint-every)"
        )
    print(spec.scenario.describe())
    tracer, registry = _open_instrumentation(args)
    ledger = _open_ledger(args)
    try:
        agg = run_repeated(
            spec,
            n_repeats=args.repeats,
            base_seed=args.seed,
            tracer=tracer,
            metrics=registry,
            workers=args.workers,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            ledger=ledger,
            flight_dir=getattr(args, "flight_dir", None),
        )
        if tracer is not None and registry is not None:
            # The trace carries the final metrics snapshot too, so a
            # single file round-trips through ``repro report``.
            registry.flush_to(tracer.sink)
    finally:
        if tracer is not None:
            tracer.close()
    _print_aggregate(spec.scenario, agg, args)
    _print_instrumentation(args, registry)
    if spec.record_path:
        from repro.streams import read_header

        header = read_header(spec.record_path)
        print(
            f"\nrecorded stream {header.stream_id} -> {spec.record_path} "
            f"({header.n_time_steps} steps; replay with: "
            f"python -m repro replay {spec.record_path})"
        )
    if ledger is not None:
        print(
            f"\nappended {args.repeats} manifest(s) to the ledger at "
            f"{ledger.root} (inspect with: "
            f"python -m repro report trends --ledger {ledger.root})"
        )


def _run_one(spec: SessionSpec, args, announce=None, pacer=None) -> int:
    """Open one session from ``spec``, drive it and print the report."""
    from repro.sim.results import RepeatedRunResult
    from repro.sim.serialization import CheckpointError
    from repro.streams import StreamFormatError

    tracer, registry = _open_instrumentation(args)
    ledger = _open_ledger(args)
    try:
        try:
            # ValueError: a stream shorter than the scenario it replays.
            session = spec.open(tracer, registry, ledger)
        except (CheckpointError, StreamFormatError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 1
        if pacer is not None:
            session.source.pacer = pacer
        if announce is not None:
            announce(session)
        try:
            result = session.run()
        except StreamFormatError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        if tracer is not None and registry is not None:
            registry.flush_to(tracer.sink)
    finally:
        if tracer is not None:
            tracer.close()
    agg = RepeatedRunResult(
        scenario_name=result.scenario_name,
        source_labels=result.source_labels,
        runs=[result],
    )
    args.seed = session.seed
    _print_aggregate(session.scenario, agg, args)
    _print_instrumentation(args, registry)
    if ledger is not None:
        print(f"\nappended the run manifest to the ledger at {ledger.root}")
    return 0


def _run_spec(args, scenario: Scenario, policy=None) -> SessionSpec:
    """The spec ``run`` / ``record`` / ``run-file`` repeat."""
    return SessionSpec(
        scenario=_configure(scenario, args),
        fusion_policy=policy,
        record_path=getattr(args, "stream", None),
        record_stream_id=getattr(args, "stream_id", None),
    )


def cmd_run(args) -> int:
    _report_run(_run_spec(args, *_build_scenario(args)), args)
    return 0


def cmd_record(args) -> int:
    """``record``: a single run teeing its raw measurements to a stream.

    Recording happens *before* fault injection, so the stream is the
    clean measurement realization; a replay re-applies (or swaps) the
    fault schedule deterministically on top of it.
    """
    # The record command is a single serial run by construction.
    args.stream = args.out
    args.repeats = 1
    args.workers = 0
    args.checkpoint_every = 0
    args.checkpoint_dir = None
    _report_run(_run_spec(args, *_build_scenario(args)), args)
    return 0


def cmd_replay(args) -> int:
    """``replay``: drive a session from a recorded stream file."""
    from repro.streams import (
        StreamFormatError,
        WallClockPacer,
        read_header,
        scenario_from_header,
    )

    try:
        header = read_header(args.stream)
    except OSError as exc:
        print(f"{args.stream}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except StreamFormatError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    scenario = scenario_from_header(header)
    if args.no_faults:
        scenario = scenario.with_faults(None)
    scenario = _configure(scenario, args)
    seed = args.seed if args.seed is not None else header.seed
    checkpoint_path = None
    if args.checkpoint_every > 0:
        if args.checkpoint_dir is None:
            raise SystemExit("--checkpoint-every needs --checkpoint-dir")
        checkpoint_path = str(Path(args.checkpoint_dir) / "replay.ckpt.json")
    spec = SessionSpec(
        scenario=scenario,
        stream_path=args.stream,
        seed=seed,
        fusion_policy=(
            scenario_c_fusion_policy(scenario) if args.fusion_auto else None
        ),
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=checkpoint_path,
    )
    print(scenario.describe())
    print(
        f"replaying stream {header.stream_id} ({header.n_time_steps} steps, "
        f"recorded seed {header.seed}, replay seed {seed})"
    )
    pacer = WallClockPacer(speed=args.speed) if args.pace == "wall" else None
    status = _run_one(spec, args, pacer=pacer)
    if status == 0 and checkpoint_path is not None:
        print(
            f"\ncheckpointed to {checkpoint_path} (resume with: python -m "
            f"repro resume {checkpoint_path} --stream {args.stream})"
        )
    return status


def cmd_report_trace(args) -> int:
    try:
        summary = summarize_trace(args.path)
    except OSError as exc:
        print(f"{args.path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if summary.n_events == 0:
        print(f"{args.path}: no trace events found", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(summary.to_dict(), indent=2))
    else:
        print(format_trace_report(summary))
    return 0


def cmd_report_trends(args) -> int:
    try:
        name, manifests = resolve_series(
            Ledger(args.ledger), args.series, source=args.source
        )
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.stream is not None:
        manifests = filter_by_stream(manifests, args.stream)
        if not manifests:
            print(
                f"series {name!r} has no entries for stream {args.stream!r}",
                file=sys.stderr,
            )
            return 1
    if args.as_json:
        print(
            json.dumps(
                {
                    "series": name,
                    "entries": [m.to_dict() for m in manifests],
                },
                indent=2,
            )
        )
    else:
        print(trend_table(name, manifests, metrics=args.metrics, last=args.last))
    return 0


def cmd_report_compare(args) -> int:
    try:
        baseline = load_manifest_source(args.baseline)[-1]
        current = load_manifest_source(args.current)[-1]
        checks = compare_manifests(
            baseline, current, tolerance=args.tolerance, metrics=args.metrics
        )
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(gate_report(baseline, current, checks), indent=2))
    else:
        print(compare_table(baseline, current, checks))
    return 0


def cmd_report_gate(args) -> int:
    """Compare and *enforce*: exit 1 when a gated metric regressed.

    With only ``--baseline`` pointing at a ledger series, the latest
    entry is gated against the previous one; ``--current`` gates an
    explicit manifest (e.g. a fresh ``BENCH_*.json``) against the
    baseline source's last entry.  Data/usage problems exit 2 so CI can
    tell a true regression from a broken gate.
    """
    try:
        history = load_manifest_source(args.baseline)
        if args.current is not None:
            baseline = history[-1]
            current = load_manifest_source(args.current)[-1]
        elif len(history) >= 2:
            baseline, current = history[-2], history[-1]
        else:
            print(
                f"{args.baseline}: only {len(history)} manifest(s); "
                "gating needs --current or a series with >= 2 entries",
                file=sys.stderr,
            )
            return 2
        checks = compare_manifests(
            baseline, current, tolerance=args.tolerance, metrics=args.metrics
        )
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = gate_report(baseline, current, checks)
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        print(compare_table(baseline, current, checks))
        print(
            f"\ngate: {report['n_gated']} gated metric(s), "
            f"{report['n_regressed']} regression(s) -> "
            + ("OK" if report["ok"] else "FAIL")
        )
    return 0 if report["ok"] else 1


def cmd_layout(args) -> int:
    scenario, _policy = _build_scenario(args)
    print(scenario.describe())
    print(
        render_scenario(
            scenario.area,
            sensors=scenario.sensors,
            sources=scenario.sources,
            obstacles=scenario.obstacles,
            cols=args.cols,
            rows=args.cols // 2,
        )
    )
    return 0


def cmd_sweep(args) -> int:
    # The sweep engine loads only for this command, not for every CLI start.
    from repro.exp import SweepSpec, Variant, run_sweep

    variants = []
    for value in args.values:
        if args.parameter == "strength":
            scenario = scenario_a(
                strengths=(value, value), n_time_steps=args.steps
            )
        else:
            scenario = scenario_a(
                strengths=(args.strength, args.strength),
                background_cpm=value,
                n_time_steps=args.steps,
            )
        variants.append(
            Variant(f"{args.parameter}={value:g}", _configure(scenario, args))
        )
    spec = SweepSpec(
        variants=tuple(variants), n_repeats=args.repeats, base_seed=args.seed
    )
    # Always collect engine metrics here: the summary line reports the
    # retry/fallback counters so a degraded pool is visible at a glance.
    registry = MetricsRegistry()
    sweep = run_sweep(
        spec,
        workers=args.workers,
        metrics=registry,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        ledger=_open_ledger(args),
    )
    rows = []
    for value, variant in zip(args.values, variants):
        agg = sweep[variant.name]
        skip = min(5, variant.scenario.n_time_steps - 1)
        rows.append(
            [
                value,
                round(mean_over_steps(agg.mean_error_series(0), skip), 2),
                round(mean_over_steps(agg.mean_error_series(1), skip), 2),
                round(mean_over_steps(agg.mean_false_positive_series(), skip), 2),
                round(mean_over_steps(agg.mean_false_negative_series(), skip), 2),
            ]
        )
    mode = f"workers={args.workers}" if args.workers else "serial"
    print(
        format_table(
            [args.parameter, "err src1", "err src2", "FP/step", "FN/step"],
            rows,
            title=f"Scenario A sweep over {args.parameter} "
            f"({args.repeats} repeats, steady state, {mode}, "
            f"{sweep.elapsed_seconds:.1f}s)",
        )
    )
    print(
        f"\nsweep summary: {spec.n_cells} cells, "
        f"retries {registry.counter('sweep.retries').value}, "
        f"serial fallbacks {registry.counter('sweep.serial_fallbacks').value}"
    )
    if sweep.failures:
        print(f"{len(sweep.failures)} failed worker attempt(s), all recovered:")
        for failure in sweep.failures:
            print(f"  {failure.summary_line()}")
        print("(full tracebacks in the trace stream's cell_failure events)")
    return 0


def cmd_export(args) -> int:
    from repro.sim.serialization import save_scenario

    scenario, _policy = _build_scenario(args)
    save_scenario(scenario, args.out)
    print(f"wrote {scenario.name!r} ({len(scenario.sensors)} sensors, "
          f"{len(scenario.sources)} sources) to {args.out}")
    return 0


def cmd_run_file(args) -> int:
    from repro.sim.serialization import load_scenario

    _report_run(_run_spec(args, load_scenario(args.path)), args)
    return 0


def cmd_resume(args) -> int:
    spec = SessionSpec(
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        stream_path=args.stream,
        backend=args.backend,
        strict_backend=args.strict_backend,
        flight_path=args.flight,
    )
    if not spec.resumable:
        print(f"cannot read checkpoint {args.checkpoint}: no such file",
              file=sys.stderr)
        return 1

    def announce(session) -> None:
        print(session.scenario.describe())
        print(
            f"resumed at step {session.step_index}/"
            f"{session.scenario.n_time_steps}"
            + (" (already finished)" if session.finished else "")
        )

    return _run_one(spec, args, announce=announce)


def cmd_serve(args) -> int:
    import asyncio
    import tempfile

    from repro.serve import (
        AdmissionConfig,
        Admitted,
        LocalizationService,
        ServiceConfig,
    )

    streams = [Path(p) for p in args.streams]
    for path in streams:
        if not path.exists():
            print(f"{path}: no such stream file", file=sys.stderr)
            return 1
    checkpoint_dir = args.checkpoint_dir or tempfile.mkdtemp(
        prefix="repro-serve-"
    )
    tracer, _ = _open_instrumentation(args)
    registry = MetricsRegistry()  # the summary always needs service.*
    ledger = _open_ledger(args)
    config = ServiceConfig(
        checkpoint_dir=checkpoint_dir,
        n_shards=args.shards,
        inline=args.inline,
        checkpoint_every=args.checkpoint_every,
        steps_per_call=args.steps_per_call,
        step_timeout_seconds=args.step_timeout,
        admission=AdmissionConfig(max_sessions=args.max_sessions),
    )

    async def drive():
        service = LocalizationService(
            config, tracer=tracer, metrics=registry, ledger=ledger
        )
        try:
            if args.health_port is not None:
                host, port = await service.serve_health(
                    port=args.health_port
                )
                print(f"health endpoint on {host}:{port}", file=sys.stderr)
            session_ids = []
            for i, path in enumerate(streams):
                session_id = f"{path.stem}-{i}" if len(streams) > 1 else path.stem
                outcome = await service.submit(
                    args.tenant, session_id, {"stream_path": str(path)}
                )
                if not isinstance(outcome, Admitted):
                    print(
                        f"{path}: shed ({outcome.reason}: {outcome.detail})",
                        file=sys.stderr,
                    )
                    continue
                session_ids.append(session_id)
            results = await asyncio.gather(
                *(service.run_to_completion(s) for s in session_ids)
            )
            sessions = [
                {
                    "session_id": session_id,
                    "scenario": result["scenario_name"],
                    "steps": len(result["steps"]),
                    "resurrections": service.sessions[
                        session_id
                    ].resurrections,
                }
                for session_id, result in zip(session_ids, results)
            ]
            manifest = service.manifest()
            summary = {
                "submitted": len(streams),
                "completed": len(sessions),
                "shed": len(streams) - len(sessions),
                "sessions": sessions,
                "metrics": manifest.metrics,
            }
            if args.metrics:
                summary["metrics_snapshot"] = registry.snapshot()
            return summary
        finally:
            await service.close()
            if tracer is not None:
                tracer.close()

    try:
        summary = asyncio.run(drive())
    except Exception as exc:  # surfaced typed: StepFailed et al.
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2))
    if ledger is not None:
        print(
            f"\nappended the serve manifest to the ledger at {ledger.root}",
            file=sys.stderr,
        )
    return 0 if summary["shed"] == 0 else 1


#: ``report``'s nested subcommands; a bare path is shorthand for ``trace``.
_REPORT_SUBCOMMANDS = ("trace", "trends", "compare", "gate")


def _shim_report_argv(argv: List[str]) -> List[str]:
    """Rewrite ``report PATH ...`` to ``report trace PATH ...``.

    Keeps the original single-purpose CLI (``python -m repro report
    trace.jsonl``) working now that ``report`` has subcommands.
    """
    if (
        len(argv) >= 2
        and argv[0] == "report"
        and argv[1] not in _REPORT_SUBCOMMANDS
        and not argv[1].startswith("-")
    ):
        return [argv[0], "trace", *argv[1:]]
    return argv


class _ReproParser(argparse.ArgumentParser):
    """ArgumentParser that applies the ``report`` shorthand shim."""

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        if args is None:
            args = sys.argv[1:]
        return super().parse_args(_shim_report_argv(list(args)), namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _ReproParser(
        prog="python -m repro",
        description="Multiple radiation source localization (ICDCS 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def workers_flag(p):
        p.add_argument(
            "--workers", type=int, default=0,
            help="fan repeats out to N worker processes (0 = serial; "
            "results are bitwise-identical either way)",
        )

    def logging_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "-v", "--verbose", action="count", default=0,
            help="log progress (-v info, -vv debug)",
        )
        group.add_argument(
            "-q", "--quiet", action="store_true",
            help="only log errors",
        )

    def instrumentation_flags(p):
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="write a JSONL trace of every pipeline phase")
        p.add_argument("--metrics", action="store_true",
                       help="aggregate and print run metrics")
        p.add_argument("--health", action="store_true",
                       help="print the per-step population-health table")

    def backend_flag(p):
        p.add_argument(
            "--backend", default=None, choices=BACKEND_NAMES,
            help="array backend for the localizer hot path (overrides the "
            "scenario config and REPRO_BACKEND; see docs/PERFORMANCE.md)",
        )

    def fault_flags(p):
        p.add_argument(
            "--faults", metavar="SPEC.json", default=None,
            help="inject faults from a fault-schedule JSON document "
            "(see docs/ROBUSTNESS.md)",
        )
        p.add_argument(
            "--integrity", action="store_true",
            help="enable the sensor-integrity layer (credibility "
            "down-weighting and quarantine of suspect sensors)",
        )

    def checkpoint_flags(p):
        p.add_argument(
            "--checkpoint-every", type=int, default=0, metavar="N",
            help="snapshot full run state every N steps (0 = off); "
            "resume with: python -m repro resume <checkpoint>",
        )
        p.add_argument(
            "--checkpoint-dir", default=None, metavar="DIR",
            help="directory for per-run checkpoint files "
            "(required with --checkpoint-every)",
        )

    def ledger_flags(p, flight: bool = True):
        p.add_argument(
            "--ledger", default=None, metavar="DIR",
            help="append one run manifest per run to the ledger at DIR "
            "(inspect with: python -m repro report trends --ledger DIR)",
        )
        if flight:
            p.add_argument(
                "--flight-dir", default=None, metavar="DIR",
                help="arm a flight recorder per run; on a crash the last "
                "trace events dump to DIR/run-<r>.flight.json",
            )

    def common(p):
        logging_flags(p)
        p.add_argument("--steps", type=int, default=30, help="time steps (default 30)")
        p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        p.add_argument("--strength", type=float, default=10.0,
                       help="source strength in uCi for Scenario A (default 10)")
        p.add_argument("--background", type=float, default=5.0,
                       help="background CPM (default 5)")
        p.add_argument("--obstacles", action="store_true",
                       help="include the scenario's obstacles")

    def stream_record_flag(p):
        p.add_argument(
            "--stream", default=None, metavar="PATH",
            help="record the run's raw measurement batches to a "
            "repro-stream file (single serial run only; replay with: "
            "python -m repro replay PATH)",
        )

    run_parser = sub.add_parser("run", help="run a scenario and print metrics")
    run_parser.add_argument("scenario", help="a, a3, b, or c")
    run_parser.add_argument("--repeats", type=int, default=3,
                            help="runs to average (default 3; paper uses 10)")
    instrumentation_flags(run_parser)
    backend_flag(run_parser)
    fault_flags(run_parser)
    checkpoint_flags(run_parser)
    ledger_flags(run_parser)
    workers_flag(run_parser)
    stream_record_flag(run_parser)
    common(run_parser)
    run_parser.set_defaults(func=cmd_run)

    record_parser = sub.add_parser(
        "record",
        help="run a scenario once and record its measurement stream",
    )
    record_parser.add_argument("scenario", help="a, a3, b, or c")
    record_parser.add_argument(
        "--out", required=True, metavar="PATH",
        help="stream file to write (repro-stream v1 JSONL)",
    )
    record_parser.add_argument(
        "--stream-id", default=None, metavar="ID", dest="stream_id",
        help="stream id for the header (default: derived from the "
        "scenario name, seed, and config hash)",
    )
    instrumentation_flags(record_parser)
    backend_flag(record_parser)
    fault_flags(record_parser)
    ledger_flags(record_parser, flight=False)
    common(record_parser)
    record_parser.set_defaults(func=cmd_record)

    replay_parser = sub.add_parser(
        "replay", help="re-run the localizer over a recorded stream file"
    )
    replay_parser.add_argument(
        "stream", help="recorded stream path (from record or run --stream)"
    )
    replay_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the header seed (default: the recorded seed, "
        "which reproduces the recorded run bitwise)",
    )
    replay_parser.add_argument(
        "--pace", choices=("fast", "wall"), default="fast",
        help="fast = as fast as possible (default); wall = follow the "
        "recorded timestamps in wall-clock time",
    )
    replay_parser.add_argument(
        "--speed", type=float, default=1.0,
        help="wall-clock pacing multiplier (--pace wall; 2.0 = twice "
        "real time)",
    )
    replay_parser.add_argument(
        "--no-faults", action="store_true",
        help="strip the recorded fault schedule (clean replay); "
        "--faults swaps in a different schedule instead",
    )
    replay_parser.add_argument(
        "--fusion-auto", action="store_true",
        help="derive Scenario C's auto fusion-range policy from the "
        "replayed scenario (use when the recording ran with it)",
    )
    instrumentation_flags(replay_parser)
    backend_flag(replay_parser)
    fault_flags(replay_parser)
    checkpoint_flags(replay_parser)
    ledger_flags(replay_parser, flight=False)
    logging_flags(replay_parser)
    replay_parser.set_defaults(func=cmd_replay)

    serve_parser = sub.add_parser(
        "serve",
        help="drive recorded streams through the multi-tenant serving "
        "front-end (admission, shards, checkpoint-backed self-healing)",
    )
    serve_parser.add_argument(
        "streams", nargs="+", metavar="STREAM",
        help="one recorded ``repro-stream v1`` file per session to serve",
    )
    serve_parser.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="worker-process shard count (default: 2)",
    )
    serve_parser.add_argument(
        "--inline", action="store_true",
        help="run shards in-process instead of worker processes "
        "(deterministic, no chaos coverage; the test fast path)",
    )
    serve_parser.add_argument(
        "--tenant", default="cli", metavar="NAME",
        help="tenant all sessions are submitted under (default: cli)",
    )
    serve_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="directory for per-session eviction/resurrection snapshots "
        "(default: a fresh temporary directory)",
    )
    serve_parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="snapshot cadence armed on every hosted session (default: 1)",
    )
    serve_parser.add_argument(
        "--steps-per-call", type=int, default=4, metavar="N",
        help="steps advanced per shard round-trip (default: 4)",
    )
    serve_parser.add_argument(
        "--step-timeout", type=float, default=60.0, metavar="SECONDS",
        help="deadline on any single shard call (default: 60)",
    )
    serve_parser.add_argument(
        "--max-sessions", type=int, default=256, metavar="N",
        help="admission-control service capacity (default: 256)",
    )
    serve_parser.add_argument(
        "--health-port", type=int, default=None, metavar="PORT",
        help="expose the line-JSON health/ready/metrics endpoint on "
        "127.0.0.1:PORT while serving (0 = ephemeral port)",
    )
    serve_parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a JSONL trace of every service transition",
    )
    serve_parser.add_argument(
        "--metrics", action="store_true",
        help="include the full service metrics snapshot in the summary",
    )
    ledger_flags(serve_parser, flight=False)
    logging_flags(serve_parser)
    serve_parser.set_defaults(func=cmd_serve)

    resume_parser = sub.add_parser(
        "resume", help="resume a checkpointed run to completion"
    )
    resume_parser.add_argument(
        "checkpoint", help="checkpoint JSON path (written by --checkpoint-every)"
    )
    resume_parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="keep snapshotting every N steps to the same file (0 = off)",
    )
    ledger_flags(resume_parser, flight=False)
    resume_parser.add_argument(
        "--flight", default=None, metavar="PATH",
        help="arm a flight recorder; on a crash the last trace events "
        "dump to PATH",
    )
    resume_parser.add_argument(
        "--stream", default=None, metavar="PATH",
        help="recorded stream path for a replay checkpoint whose stream "
        "file has moved (default: the path stored in the checkpoint)",
    )
    backend_flag(resume_parser)
    resume_parser.add_argument(
        "--strict-backend", action="store_true",
        help="refuse to restore under a different array backend than the "
        "one that wrote the checkpoint (default: warn and continue)",
    )
    instrumentation_flags(resume_parser)
    logging_flags(resume_parser)
    resume_parser.set_defaults(func=cmd_resume)

    report_parser = sub.add_parser(
        "report",
        help="observability readout: trace summaries, ledger trends, "
        "manifest compare, and the regression gate",
    )
    report_sub = report_parser.add_subparsers(dest="report_command", required=True)

    def json_flag(p):
        p.add_argument(
            "--json", action="store_true", dest="as_json",
            help="emit a machine-readable JSON document instead of tables",
        )

    trace_parser = report_sub.add_parser(
        "trace", help="summarize a JSONL trace (phase times, health, counts)"
    )
    trace_parser.add_argument("path", help="trace JSONL path (from run --trace)")
    json_flag(trace_parser)
    logging_flags(trace_parser)
    trace_parser.set_defaults(func=cmd_report_trace)

    trends_parser = report_sub.add_parser(
        "trends", help="tabulate a ledger series' metric history"
    )
    trends_parser.add_argument(
        "series", nargs="?", default=None,
        help="series name (optional when the ledger has exactly one)",
    )
    trends_parser.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="ledger root (default: $REPRO_LEDGER_DIR or .repro/ledger)",
    )
    trends_parser.add_argument(
        "--source", default=None, metavar="FILE",
        help="read manifests from a file (ledger JSONL, manifest JSON, "
        "or BENCH_*.json) instead of the ledger",
    )
    trends_parser.add_argument(
        "--metrics", nargs="+", default=None, metavar="NAME",
        help="only these metric columns",
    )
    trends_parser.add_argument(
        "--last", type=int, default=0, metavar="N",
        help="only the last N entries (0 = all)",
    )
    trends_parser.add_argument(
        "--stream", default=None, metavar="ID",
        help="only entries that replayed this stream id "
        "('live' = only non-replayed runs)",
    )
    json_flag(trends_parser)
    logging_flags(trends_parser)
    trends_parser.set_defaults(func=cmd_report_trends)

    compare_parser = report_sub.add_parser(
        "compare", help="diff the metrics of two manifest sources"
    )
    compare_parser.add_argument(
        "baseline", help="manifest source (ledger JSONL / JSON / BENCH_*.json)"
    )
    compare_parser.add_argument("current", help="manifest source to compare")
    compare_parser.add_argument(
        "--tolerance", type=float, default=0.10, metavar="FRAC",
        help="relative tolerance before a delta counts as a regression "
        "(default 0.10)",
    )
    compare_parser.add_argument(
        "--metrics", nargs="+", default=None, metavar="NAME",
        help="check (and force-gate) only these metrics",
    )
    json_flag(compare_parser)
    logging_flags(compare_parser)
    compare_parser.set_defaults(func=cmd_report_compare)

    gate_parser = report_sub.add_parser(
        "gate",
        help="exit nonzero when a tracked metric regressed beyond tolerance",
    )
    gate_parser.add_argument(
        "--baseline", required=True, metavar="SRC",
        help="baseline manifest source; alone, a series with >= 2 entries "
        "gates latest against previous",
    )
    gate_parser.add_argument(
        "--current", default=None, metavar="SRC",
        help="manifest source to gate (e.g. a fresh BENCH_*.json); "
        "default: the baseline series' latest entry vs its previous",
    )
    gate_parser.add_argument(
        "--tolerance", type=float, default=0.10, metavar="FRAC",
        help="relative tolerance before a delta fails the gate (default 0.10)",
    )
    gate_parser.add_argument(
        "--metrics", nargs="+", default=None, metavar="NAME",
        help="check (and force-gate) only these metrics",
    )
    json_flag(gate_parser)
    logging_flags(gate_parser)
    gate_parser.set_defaults(func=cmd_report_gate)

    layout_parser = sub.add_parser("layout", help="render a scenario layout")
    layout_parser.add_argument("scenario", help="a, a3, b, or c")
    layout_parser.add_argument("--cols", type=int, default=72, help="map width")
    common(layout_parser)
    layout_parser.set_defaults(func=cmd_layout)

    sweep_parser = sub.add_parser("sweep", help="parameter sweep on Scenario A")
    sweep_parser.add_argument("parameter", choices=("strength", "background"))
    sweep_parser.add_argument("--values", type=float, nargs="+", required=True)
    sweep_parser.add_argument("--repeats", type=int, default=3)
    backend_flag(sweep_parser)
    fault_flags(sweep_parser)
    checkpoint_flags(sweep_parser)
    ledger_flags(sweep_parser, flight=False)
    workers_flag(sweep_parser)
    common(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    export_parser = sub.add_parser("export", help="write a scenario to JSON")
    export_parser.add_argument("scenario", help="a, a3, b, or c")
    export_parser.add_argument("--out", required=True, help="output JSON path")
    common(export_parser)
    export_parser.set_defaults(func=cmd_export)

    run_file_parser = sub.add_parser(
        "run-file", help="run a scenario from a JSON document"
    )
    run_file_parser.add_argument("path", help="scenario JSON path")
    run_file_parser.add_argument("--repeats", type=int, default=3)
    run_file_parser.add_argument("--seed", type=int, default=0)
    instrumentation_flags(run_file_parser)
    backend_flag(run_file_parser)
    fault_flags(run_file_parser)
    checkpoint_flags(run_file_parser)
    ledger_flags(run_file_parser)
    workers_flag(run_file_parser)
    stream_record_flag(run_file_parser)
    logging_flags(run_file_parser)
    run_file_parser.set_defaults(func=cmd_run_file)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(
        verbose=getattr(args, "verbose", 0), quiet=getattr(args, "quiet", False)
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
