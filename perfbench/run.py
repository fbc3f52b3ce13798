"""End-to-end localization benchmark: one workload per run, one JSON line out.

Run from the repository root::

    python3 perfbench/run.py --workload table1-fast --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untouched and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` wraps the program's layers
from outside (see ``layers.py``) and reports the per-layer metrics.
Human-readable tables, the correctness gates and the run context come
first; the last line of standard output is the JSON result.  The exit
code is 0 when every correctness gate passed, 1 when one failed and 2
when the checkout lacks the program or its fixtures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

#: Layer -> (end-to-end metric it should move, workloads where it matters).
LAYER_MAP = {
    "streams": ("setup_s, step_ms_p50", "robust-replay (open); table1-* (measure)"),
    "faults": ("step_ms_p50", "robust-replay"),
    "network": ("step_ms_p50, fix_s", "robust-replay"),
    "core.integrity": ("step_ms_p50, ospa_final", "robust-replay"),
    "core.grid": ("readings_per_s, step_ms_p50", "table1-fast, table1-default"),
    "core.backend": ("readings_per_s", "table1-fast"),
    "core.weighting": ("readings_per_s", "table1-default"),
    "core.resampling": ("readings_per_s", "table1-fast, table1-default"),
    "core.estimator": ("step_ms_p50, step_ms_p90", "robust-replay, table1-default"),
    "core.localizer": ("step_ms_p50", "robust-replay"),
    "core.diagnostics": ("step_ms_p50", "all (small)"),
    "eval": ("step_ms_p50", "all (small)"),
    "sim.serialization": ("step_ms_p90, step_ms_p50", "serve-closed, robust-replay"),
    "obs.ledger": ("step_ms_p90", "robust-replay"),
    "sim.session": ("(unattributed remainder)", "all"),
    "serve": (
        "step_ms_p50, step_ms_p90, sessions_per_s",
        "serve-closed",
    ),
    "budget": ("(step wall time and its unattributed share)", "all"),
    "trace": ("(cost of the outside-in wrappers)", "all"),
}


#: Every end-to-end figure a run prints, gated in BENCHMARK.json or not.
E2E_UNITS = {
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "readings_per_s": "1/s",
    "fix_s": "s",
    "ospa_final": "units",
    "sessions_per_s": "1/s",
    "failed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def layer_of(metric: str) -> str:
    for layer in sorted(LAYER_MAP, key=len, reverse=True):
        if metric.startswith(layer + "."):
            return layer
    return metric.split(".")[0]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(workload: str, tally, setups, rss_mb: float) -> dict:
    import numpy as np

    steps = tally.step_s
    window = max(tally.window_s, 1e-9)
    values = {
        "step_ms_p50": 1000.0 * statistics.median(steps),
        "step_ms_p90": 1000.0 * float(np.percentile(steps, 90)),
        "readings_per_s": tally.readings / window,
        # A window too short to finish a session reports censored values.
        "fix_s": statistics.fmean(tally.fix_s) if tally.fix_s else window,
        "ospa_final": statistics.fmean(tally.ospa) if tally.ospa else 40.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    if workload == "serve-closed":
        values["sessions_per_s"] = tally.sessions / window
    return values


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources, for the context."""
    digest = hashlib.sha256()
    paths = [*(ROOT / "src" / "repro").rglob("*.py"), *BENCH_DIR.glob("*.py")]
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_context(workload, args, spec) -> dict:
    import numpy as np
    from repro.obs.ledger import current_git_sha

    return {
        "workload": args.workload,
        **workload.describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run": "full" if args.seconds >= spec["run_seconds"] else "smoke",
        "nproc": os.cpu_count(),
        "git_sha": current_git_sha(ROOT) or "unknown",
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result document here")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    needed = [
        spec_path,
        ROOT / "src" / "repro" / "__init__.py",
        ROOT / "tests" / "data" / "golden_stream_a1.stream.jsonl",
        ROOT / "benchmarks" / "baselines" / "golden_stream_a1.json",
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import (
        BITWISE_WORKLOADS,
        cold_setup_times,
        cross_run_gate,
        golden_gate,
        golden_replay_gate,
        make_workload,
    )

    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, args.seed, work)
        gates = [golden_replay_gate()]
        if args.trace:
            tally, values, more = workload.trace(args.seconds)
            wanted = spec["per_layer"]
        else:
            tally, more = workload.measure(args.seconds)
            # Read before the set-up children run: they are not the workload's.
            rss_mb = peak_rss_mb()
            setups = cold_setup_times(args.workload, args.seed, work)
            values = end_to_end(args.workload, tally, setups, rss_mb)
            wanted = spec["end_to_end"]
        gates += more
        if args.workload in BITWISE_WORKLOADS:
            digests = tally.digests()
            golden = golden_gate(args.workload, args.seed, digests)
            gates.append(
                golden
                or cross_run_gate(
                    WORK_DIR / "digests.json", f"{args.workload}/{args.seed}", digests
                )
            )
        context = run_context(workload, args, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_gates = [g for g in gates if not g.ok]
    attempted = tally.attempted + len(gates)
    failed = tally.failed + len(failed_gates)
    bad_values = [m["name"] for m in wanted if not math.isfinite(values[m["name"]])]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  ({context['run']} run)")
    if args.trace:
        gated = {m["name"] for m in wanted}
        print(f"  {'metric (* = in BENCHMARK.json)':40s} {'value':>12s} "
              f"{'unit':6s} moves / on")
        for name, value in values.items():
            moves, on = LAYER_MAP.get(layer_of(name), ("", ""))
            mark = "*" if name in gated else " "
            print(f"  {mark} {name:38s} {value:12.4f} {unit_of(name):6s} "
                  f"{moves} / {on}")
        print(f"  traced steps: {len(tally.step_s)}")
    else:
        values["failed_frac"] = failed / attempted
        gated = {m["name"] for m in wanted}
        for name, unit in E2E_UNITS.items():
            if name not in values:
                continue
            note = "" if name in gated else "  (printed only; see README)"
            print(f"  {name:16s} {values[name]:12.4f} {unit}{note}")
        n = len(tally.step_s)
        print(f"  {failed}/{attempted} operations and checks failed; "
              f"samples: {n} steps ({n // 10} beyond p90), "
              f"{tally.sessions:.2f} sessions in {tally.window_s:.2f} s")
    print("gates:")
    for gate in gates:
        print(f"  [{'ok' if gate.ok else 'FAIL'}] {gate.name}: {gate.detail}")
    for error in tally.errors:
        print(f"  error: {error}")
    print("context: " + json.dumps(context, sort_keys=True))

    correct = not failed_gates and tally.failed == 0 and not bad_values
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] not in bad_values
        },
    }
    if args.out:
        document = {
            "context": context,
            "values": values,
            "gates": [vars(g) for g in gates],
            "result": result,
        }
        Path(args.out).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
