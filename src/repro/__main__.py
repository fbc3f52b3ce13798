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
from typing import Callable, List, Optional

from repro.core.config import BACKEND_NAMES
from repro.eval.aggregate import mean_over_steps
from repro.eval.reporting import format_health_series, format_series, format_table
from repro.obs.ledger import Ledger
from repro.obs.metrics import MetricsRegistry, format_metrics
from repro.obs.report import format_trace_report, summarize_trace
from repro.obs.trace import jsonl_tracer
from repro.obs.trends import (
    compare_manifests,
    compare_table,
    filter_by_stream,
    gate_report,
    load_manifest_source,
    resolve_series,
    trend_table,
)
from repro.sim.results import RepeatedRunResult
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
    common = dict(background_cpm=args.background, n_time_steps=args.steps)
    if name == "a":
        strengths = (args.strength,) * 2
        return scenario_a(strengths, with_obstacle=args.obstacles, **common), None
    if name == "a3":
        return scenario_a_three_sources((args.strength,) * 3, **common), None
    if name == "b":
        return scenario_b(with_obstacles=args.obstacles, **common), None
    if name == "c":
        scenario = scenario_c(with_obstacles=args.obstacles, **common)
        return scenario, scenario_c_fusion_policy(scenario)
    raise SystemExit(f"unknown scenario {args.scenario!r}; choose a, a3, b, or c")


def _configure(scenario: Scenario, args) -> Scenario:
    """Apply the shared ``--faults`` / ``--integrity`` / ``--backend`` flags.

    ``--backend`` has the highest selection precedence: it overwrites the
    config field, which in turn shadows the ``REPRO_BACKEND`` env var.
    """
    if args.faults:
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
    return with_config(scenario, backend=args.backend, integrity=args.integrity)


def _checkpoint_dir(args) -> Optional[str]:
    """``--checkpoint-dir``, which ``--checkpoint-every N`` (N > 0) requires."""
    if args.checkpoint_every > 0 and args.checkpoint_dir is None:
        raise SystemExit("--checkpoint-every needs --checkpoint-dir")
    return args.checkpoint_dir


def _print_aggregate(scenario, agg, seed: int, health: bool) -> None:
    """The per-step metrics report every session command prints."""
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
    if health:
        first = agg.runs[0]
        print()
        print(
            format_health_series(
                first.health_series(),
                [s.converged for s in first.steps],
                title=f"population health (run 1 of {agg.n_repeats}, "
                f"seed {seed})",
            )
        )


def _drive(args, run: Callable) -> int:
    """Run ``run(tracer, metrics, ledger)`` under the attachment flags.

    Owns ``--trace``/``--metrics``/``--ledger``: opens them, runs, flushes
    the metrics into the trace, closes the trace, then prints the per-step
    report and the notes.  ``run`` returns ``(scenario, aggregate, seed)``,
    or None once it has printed why it failed (exit status 1).
    """
    tracer = jsonl_tracer(args.trace) if args.trace else None
    registry = MetricsRegistry() if args.metrics else None
    try:
        outcome = run(tracer, registry, args.ledger)
        if outcome is not None and tracer is not None and registry is not None:
            # The trace carries the final metrics snapshot too, so a
            # single file round-trips through ``repro report``.
            registry.flush_to(tracer.sink)
    finally:
        if tracer is not None:
            tracer.close()
    if outcome is None:
        return 1
    scenario, agg, seed = outcome
    _print_aggregate(scenario, agg, seed, args.health)
    if registry is not None:
        print()
        print(format_metrics(registry.snapshot(), title="run metrics"))
    if args.trace:
        print(f"\nwrote trace to {args.trace} "
              f"(summarize with: python -m repro report {args.trace})")
    if args.ledger is not None:
        root = args.ledger.root
        print(
            f"\nappended {agg.n_repeats} manifest(s) to the ledger at {root} "
            f"(inspect with: python -m repro report trends --ledger {root})"
        )
    return 0


def _run_repeated(
    args,
    scenario: Scenario,
    policy=None,
    record_path: Optional[str] = None,
    stream_id: Optional[str] = None,
) -> int:
    """``run`` / ``record`` / ``run-file``: ``--repeats`` runs of one spec."""
    spec = SessionSpec(
        scenario=_configure(scenario, args),
        fusion_policy=policy,
        record_path=record_path,
        record_stream_id=stream_id,
    )
    if record_path and (
        args.repeats != 1 or args.workers or args.checkpoint_every > 0
    ):
        raise SystemExit(
            "--stream recording requires a single serial uncheckpointed run "
            "(--repeats 1, --workers 0, no --checkpoint-every)"
        )
    checkpoint_dir = _checkpoint_dir(args)
    print(spec.scenario.describe())

    def run(tracer, metrics, ledger):
        agg = run_repeated(
            spec,
            n_repeats=args.repeats,
            base_seed=args.seed,
            tracer=tracer,
            metrics=metrics,
            workers=args.workers,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            ledger=ledger,
            flight_dir=args.flight_dir,
        )
        return spec.scenario, agg, args.seed

    status = _drive(args, run)
    if record_path:
        from repro.streams import read_header

        header = read_header(record_path)
        print(
            f"\nrecorded stream {header.stream_id} -> {record_path} "
            f"({header.n_time_steps} steps; replay with: "
            f"python -m repro replay {record_path})"
        )
    return status


def _session_run(spec: SessionSpec, prepare: Callable) -> Callable:
    """The ``_drive`` body of ``replay`` / ``resume``: one session of ``spec``.

    ``prepare(session)`` runs between opening and stepping.
    """
    from repro.sim.serialization import CheckpointError
    from repro.streams import StreamFormatError

    def run(tracer, metrics, ledger):
        try:
            # ValueError: a stream shorter than the scenario it replays.
            session = spec.open(tracer, metrics, ledger)
        except (CheckpointError, StreamFormatError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return None
        prepare(session)
        try:
            result = session.run()
        except StreamFormatError as exc:
            print(str(exc), file=sys.stderr)
            return None
        agg = RepeatedRunResult(
            scenario_name=result.scenario_name,
            source_labels=result.source_labels,
            runs=[result],
        )
        return session.scenario, agg, session.seed

    return run


def cmd_run(args) -> int:
    return _run_repeated(args, *_build_scenario(args), args.stream)


def cmd_record(args) -> int:
    """``record``: a single run teeing its raw measurements to a stream.

    Recording happens *before* fault injection, so the stream is the
    clean measurement realization; a replay re-applies (or swaps) the
    fault schedule deterministically on top of it.
    """
    return _run_repeated(args, *_build_scenario(args), args.out, args.stream_id)


def cmd_run_file(args) -> int:
    from repro.sim.serialization import load_scenario

    return _run_repeated(args, load_scenario(args.path), None, args.stream)


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
    checkpoint_dir = _checkpoint_dir(args)
    checkpoint_path = None
    if args.checkpoint_every > 0:
        checkpoint_path = str(Path(checkpoint_dir) / "replay.ckpt.json")
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

    def pace(session) -> None:
        if args.pace == "wall":
            session.source.pacer = WallClockPacer(speed=args.speed)

    status = _drive(args, _session_run(spec, pace))
    if status == 0 and checkpoint_path is not None:
        print(
            f"\ncheckpointed to {checkpoint_path} (resume with: python -m "
            f"repro resume {checkpoint_path} --stream {args.stream})"
        )
    return status


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

    return _drive(args, _session_run(spec, announce))


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
        entries = [m.to_dict() for m in manifests]
        print(json.dumps({"series": name, "entries": entries}, indent=2))
    else:
        print(trend_table(name, manifests, metrics=args.metrics, last=args.last))
    return 0


def _compare(args) -> Optional[dict]:
    """Load two manifests, compare them and print the table (or JSON).

    The baseline is the last entry of ``--baseline``; the current one is
    the last entry of ``current``, or -- for ``gate`` without
    ``--current`` -- the baseline series' latest entry, gated against its
    previous one.  Returns the gate report, or None once a one-line
    message says why the inputs are unusable.
    """
    try:
        history = load_manifest_source(args.baseline)
        if args.current is not None:
            baseline = history[-1]
            current = load_manifest_source(args.current)[-1]
        elif len(history) >= 2:
            baseline, current = history[-2], history[-1]
        else:
            raise ValueError(
                f"{args.baseline}: only {len(history)} manifest(s); "
                "gating needs --current or a series with >= 2 entries"
            )
        checks = compare_manifests(
            baseline, current, tolerance=args.tolerance, metrics=args.metrics
        )
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return None
    report = gate_report(baseline, current, checks)
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        print(compare_table(baseline, current, checks))
    return report


def cmd_report_compare(args) -> int:
    return 0 if _compare(args) is not None else 1


def cmd_report_gate(args) -> int:
    """Compare and *enforce*: exit 1 when a gated metric regressed.

    With only ``--baseline`` pointing at a ledger series, the latest
    entry is gated against the previous one; ``--current`` gates an
    explicit manifest (e.g. a fresh ``BENCH_*.json``) against the
    baseline source's last entry.  Data/usage problems exit 2 so CI can
    tell a true regression from a broken gate.
    """
    report = _compare(args)
    if report is None:
        return 2
    if not args.as_json:
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

    checkpoint_dir = _checkpoint_dir(args)
    variants = []
    for value in args.values:
        strength, background = (
            (value, args.background)
            if args.parameter == "strength"
            else (args.strength, value)
        )
        scenario = scenario_a(
            (strength, strength),
            background,
            with_obstacle=args.obstacles,
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
        checkpoint_dir=checkpoint_dir,
        ledger=args.ledger,
    )
    rows = []
    for value, variant in zip(args.values, variants):
        agg = sweep[variant.name]
        skip = min(5, variant.scenario.n_time_steps - 1)
        series = (
            agg.mean_error_series(0),
            agg.mean_error_series(1),
            agg.mean_false_positive_series(),
            agg.mean_false_negative_series(),
        )
        rows.append([value] + [round(mean_over_steps(s, skip), 2) for s in series])
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


def cmd_serve(args) -> int:
    import asyncio
    import contextlib
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
    tracer = jsonl_tracer(args.trace) if args.trace else None
    registry = MetricsRegistry()  # the summary always needs service.*

    async def drive(config):
        service = LocalizationService(
            config, tracer=tracer, metrics=registry, ledger=args.ledger
        )
        try:
            if args.health_port is not None:
                host, port = await service.serve_health(port=args.health_port)
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
                    "resurrections": service.sessions[session_id].resurrections,
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

    # Without --checkpoint-dir the session checkpoints live in a temporary
    # directory that lasts exactly as long as the command.
    workdir = (
        contextlib.nullcontext(args.checkpoint_dir)
        if args.checkpoint_dir
        else tempfile.TemporaryDirectory(prefix="repro-serve-")
    )
    with workdir as checkpoint_dir:
        config = ServiceConfig(
            checkpoint_dir=checkpoint_dir,
            n_shards=args.shards,
            inline=args.inline,
            checkpoint_every=args.checkpoint_every,
            steps_per_call=args.steps_per_call,
            step_timeout_seconds=args.step_timeout,
            admission=AdmissionConfig(max_sessions=args.max_sessions),
        )
        try:
            summary = asyncio.run(drive(config))
        except Exception as exc:  # surfaced typed: StepFailed et al.
            print(f"serve failed: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(summary, indent=2))
    if args.ledger is not None:
        print(
            f"\nappended the serve manifest to the ledger at {args.ledger.root}",
            file=sys.stderr,
        )
    return 0 if summary["shed"] == 0 else 1


# --- the flag table -------------------------------------------------------------


def _number(parse: Callable, minimum: float, exclusive: bool = False) -> Callable:
    """An argparse ``type``: ``parse`` the text, then require ``>= minimum``
    (``> minimum`` when ``exclusive``), so a bad value exits 2 with one
    usage line instead of a traceback from deep inside a run."""

    def check(text: str):
        value = parse(text)
        if not (value > minimum if exclusive else value >= minimum):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if exclusive else '>='} {minimum}, got {text}"
            )
        return value

    check.__name__ = parse.__name__  # "invalid int value: 'x'"
    return check


_COUNT = _number(int, 1)
_NATURAL = _number(int, 0)
_AMOUNT = _number(float, 0.0)
_POSITIVE = _number(float, 0.0, exclusive=True)


def _flag(*names, **kwargs) -> tuple:
    """One ``add_argument`` call, as a group of one (groups add with ``+``)."""
    return ((names, kwargs),)


_SCENARIO = _flag("scenario", help="a, a3, b, or c")
_SEED = _flag("--seed", type=_NATURAL, default=0, help="base seed (default 0)")
_SCENARIO_OPTIONS = (
    _flag("--steps", type=_COUNT, default=30, help="time steps (default 30)")
    + _SEED
    + _flag("--strength", type=_AMOUNT, default=10.0,
            help="source strength in uCi for Scenario A (default 10)")
    + _flag("--background", type=_AMOUNT, default=5.0,
            help="background CPM (default 5)")
    + _flag("--obstacles", action="store_true",
            help="include the scenario's obstacles")
)
_TRACE_METRICS = _flag(
    "--trace", metavar="PATH", default=None,
    help="write a JSONL trace of every pipeline phase",
) + _flag("--metrics", action="store_true", help="collect and print metrics")
_INSTRUMENTATION = _TRACE_METRICS + _flag(
    "--health", action="store_true",
    help="print the per-step population-health table",
)
_BACKEND = _flag(
    "--backend", default=None, choices=BACKEND_NAMES,
    help="array backend for the localizer hot path (overrides the "
    "scenario config and REPRO_BACKEND; see docs/PERFORMANCE.md)",
)
_FAULTS = _flag(
    "--faults", metavar="SPEC.json", default=None,
    help="inject faults from a fault-schedule JSON document "
    "(see docs/ROBUSTNESS.md)",
) + _flag(
    "--integrity", action="store_true",
    help="enable the sensor-integrity layer (credibility "
    "down-weighting and quarantine of suspect sensors)",
)
_CHECKPOINT_EVERY = _flag(
    "--checkpoint-every", type=_NATURAL, default=0, metavar="N",
    help="snapshot the full run state every N steps (0 = off)",
)
_CHECKPOINTS = _CHECKPOINT_EVERY + _flag(
    "--checkpoint-dir", default=None, metavar="DIR",
    help="directory for the checkpoint files (required with "
    "--checkpoint-every; resume one with: python -m repro resume FILE)",
)
_LEDGER = _flag(
    "--ledger", type=Ledger, default=None, metavar="DIR",
    help="append one run manifest per run to the ledger at DIR "
    "(inspect with: python -m repro report trends --ledger DIR)",
)
_REPEATS = _flag(
    "--repeats", type=_COUNT, default=3,
    help="runs to average (default 3; paper uses 10)",
) + _flag(
    "--workers", type=_NATURAL, default=0,
    help="fan repeats out to N worker processes (0 = serial; "
    "results are bitwise-identical either way)",
)
_RECORDING = _flag(
    "--stream", default=None, metavar="PATH",
    help="record the run's raw measurement batches to a "
    "repro-stream file (single serial run only; replay with: "
    "python -m repro replay PATH)",
) + _flag(
    "--flight-dir", default=None, metavar="DIR",
    help="arm a flight recorder per run; on a crash the last "
    "trace events dump to DIR/run-<r>.flight.json",
)
_JSON = _flag(
    "--json", action="store_true", dest="as_json",
    help="emit a machine-readable JSON document instead of tables",
)
_COMPARISON = _flag(
    "--tolerance", type=_AMOUNT, default=0.10, metavar="FRAC",
    help="relative tolerance before a delta counts as a regression "
    "(default 0.10)",
) + _flag(
    "--metrics", nargs="+", default=None, metavar="NAME",
    help="check (and force-gate) only these metrics",
)


def _verbosity() -> argparse.ArgumentParser:
    """The ``-v``/``-q`` parent parser every command inherits."""
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress (-v info, -vv debug)",
    )
    group.add_argument("-q", "--quiet", action="store_true", help="only log errors")
    return parser


def _command(sub, name: str, func: Callable, help: str, *groups, **defaults):
    """Add one subcommand built from flag groups; ``defaults`` fix values."""
    parser = sub.add_parser(name, help=help, parents=[_verbosity()])
    for group in groups:
        for names, kwargs in group:
            parser.add_argument(*names, **kwargs)
    parser.set_defaults(func=func, **defaults)
    return parser


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
    session = _INSTRUMENTATION + _BACKEND + _LEDGER

    _command(
        sub, "run", cmd_run, "run a scenario and print metrics",
        _SCENARIO, _SCENARIO_OPTIONS, _REPEATS, session, _FAULTS,
        _CHECKPOINTS, _RECORDING,
    )
    _command(
        sub, "record", cmd_record,
        "run a scenario once and record its measurement stream",
        _SCENARIO, _SCENARIO_OPTIONS, session, _FAULTS,
        _flag("--out", required=True, metavar="PATH",
              help="stream file to write (repro-stream v1 JSONL)"),
        _flag("--stream-id", default=None, metavar="ID", dest="stream_id",
              help="stream id for the header (default: derived from the "
              "scenario name, seed, and config hash)"),
        # A recording is one serial, uncheckpointed run by construction.
        repeats=1, workers=0, checkpoint_every=0, checkpoint_dir=None,
        flight_dir=None,
    )
    _command(
        sub, "run-file", cmd_run_file, "run a scenario from a JSON document",
        _flag("path", help="scenario JSON path"), _SEED, _REPEATS, session,
        _FAULTS, _CHECKPOINTS, _RECORDING,
    )
    _command(
        sub, "replay", cmd_replay,
        "re-run the localizer over a recorded stream file",
        _flag("stream", help="recorded stream path (from record or run --stream)"),
        _flag("--seed", type=_NATURAL, default=None,
              help="override the header seed (default: the recorded seed, "
              "which reproduces the recorded run bitwise)"),
        _flag("--pace", choices=("fast", "wall"), default="fast",
              help="fast = as fast as possible (default); wall = follow the "
              "recorded timestamps in wall-clock time"),
        _flag("--speed", type=_POSITIVE, default=1.0,
              help="wall-clock pacing multiplier (--pace wall; 2.0 = twice "
              "real time)"),
        _flag("--no-faults", action="store_true",
              help="strip the recorded fault schedule (clean replay); "
              "--faults swaps in a different schedule instead"),
        _flag("--fusion-auto", action="store_true",
              help="derive Scenario C's auto fusion-range policy from the "
              "replayed scenario (use when the recording ran with it)"),
        session, _FAULTS, _CHECKPOINTS,
    )
    _command(
        sub, "resume", cmd_resume, "resume a checkpointed run to completion",
        _flag("checkpoint",
              help="checkpoint JSON path (written by --checkpoint-every)"),
        _CHECKPOINT_EVERY,
        _flag("--flight", default=None, metavar="PATH",
              help="arm a flight recorder; on a crash the last trace events "
              "dump to PATH"),
        _flag("--stream", default=None, metavar="PATH",
              help="recorded stream path for a replay checkpoint whose stream "
              "file has moved (default: the path stored in the checkpoint)"),
        _flag("--strict-backend", action="store_true",
              help="refuse to restore under a different array backend than "
              "the one that wrote the checkpoint (default: warn and continue)"),
        session,
    )
    _command(
        sub, "serve", cmd_serve,
        "drive recorded streams through the multi-tenant serving "
        "front-end (admission, shards, checkpoint-backed self-healing)",
        _flag("streams", nargs="+", metavar="STREAM",
              help="one recorded ``repro-stream v1`` file per session to serve"),
        _flag("--shards", type=_COUNT, default=2, metavar="N",
              help="worker-process shard count (default: 2)"),
        _flag("--inline", action="store_true",
              help="run shards in-process instead of worker processes "
              "(deterministic, no chaos coverage; the test fast path)"),
        _flag("--tenant", default="cli", metavar="NAME",
              help="tenant all sessions are submitted under (default: cli)"),
        _flag("--checkpoint-dir", default=None, metavar="DIR",
              help="directory for per-session eviction/resurrection snapshots "
              "(default: a fresh temporary directory)"),
        _flag("--checkpoint-every", type=_COUNT, default=1, metavar="N",
              help="snapshot cadence armed on every hosted session (default: 1)"),
        _flag("--steps-per-call", type=_COUNT, default=4, metavar="N",
              help="steps advanced per shard round-trip (default: 4)"),
        _flag("--step-timeout", type=_POSITIVE, default=60.0, metavar="SECONDS",
              help="deadline on any single shard call (default: 60)"),
        _flag("--max-sessions", type=_COUNT, default=256, metavar="N",
              help="admission-control service capacity (default: 256)"),
        _flag("--health-port", type=_NATURAL, default=None, metavar="PORT",
              help="expose the line-JSON health/ready/metrics endpoint on "
              "127.0.0.1:PORT while serving (0 = ephemeral port)"),
        _TRACE_METRICS, _LEDGER,
    )

    report = sub.add_parser(
        "report",
        help="observability readout: trace summaries, ledger trends, "
        "manifest compare, and the regression gate",
    )
    report_sub = report.add_subparsers(dest="report_command", required=True)
    _command(
        report_sub, "trace", cmd_report_trace,
        "summarize a JSONL trace (phase times, health, counts)",
        _flag("path", help="trace JSONL path (from run --trace)"), _JSON,
    )
    _command(
        report_sub, "trends", cmd_report_trends,
        "tabulate a ledger series' metric history",
        _flag("series", nargs="?", default=None,
              help="series name (optional when the ledger has exactly one)"),
        _flag("--ledger", default=None, metavar="DIR",
              help="ledger root (default: $REPRO_LEDGER_DIR or .repro/ledger)"),
        _flag("--source", default=None, metavar="FILE",
              help="read manifests from a file (ledger JSONL, manifest JSON, "
              "or BENCH_*.json) instead of the ledger"),
        _flag("--metrics", nargs="+", default=None, metavar="NAME",
              help="only these metric columns"),
        _flag("--last", type=_NATURAL, default=0, metavar="N",
              help="only the last N entries (0 = all)"),
        _flag("--stream", default=None, metavar="ID",
              help="only entries that replayed this stream id "
              "('live' = only non-replayed runs)"),
        _JSON,
    )
    _command(
        report_sub, "compare", cmd_report_compare,
        "diff the metrics of two manifest sources",
        _flag("baseline",
              help="manifest source (ledger JSONL / JSON / BENCH_*.json)"),
        _flag("current", help="manifest source to compare"),
        _COMPARISON, _JSON,
    )
    _command(
        report_sub, "gate", cmd_report_gate,
        "exit nonzero when a tracked metric regressed beyond tolerance",
        _flag("--baseline", required=True, metavar="SRC",
              help="baseline manifest source; alone, a series with >= 2 "
              "entries gates latest against previous"),
        _flag("--current", default=None, metavar="SRC",
              help="manifest source to gate (e.g. a fresh BENCH_*.json); "
              "default: the baseline series' latest entry vs its previous"),
        _COMPARISON, _JSON,
    )

    _command(
        sub, "layout", cmd_layout, "render a scenario layout",
        _SCENARIO,
        _flag("--cols", type=_number(int, 4), default=72,
              help="map width (at least 4: the map is cols x cols/2)"),
        _SCENARIO_OPTIONS,
    )
    _command(
        sub, "sweep", cmd_sweep, "parameter sweep on Scenario A",
        _flag("parameter", choices=("strength", "background")),
        _flag("--values", type=_AMOUNT, nargs="+", required=True),
        _SCENARIO_OPTIONS, _REPEATS, _BACKEND, _FAULTS, _CHECKPOINTS, _LEDGER,
    )
    _command(
        sub, "export", cmd_export, "write a scenario to JSON",
        _SCENARIO, _flag("--out", required=True, help="output JSON path"),
        _SCENARIO_OPTIONS,
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
