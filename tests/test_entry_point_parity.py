"""One spec, every entry point, one run.

A stream spec (``golden_stream_a1``) and a scenario-A spec go through
each way the package runs a session -- ``run_repeated`` serially and on a
two-worker pool, ``run_sweep``, replay (stream spec only: a scenario spec
has no stream to replay), and the serving front-end with an inline shard
and with one worker-process shard.  Every path must give bitwise-identical
step records (apart from ``mean_iteration_seconds``) and equal ledger
manifests (apart from ``kind``, ``name`` and wall-time fields), including
the same ``spec_sha256``.  Runs on both array backends, untraced.
"""

import asyncio
from pathlib import Path

import pytest

from repro.exp.engine import run_sweep
from repro.exp.spec import SweepSpec, Variant
from repro.obs.ledger import Ledger, RunManifest
from repro.serve import Admitted, LocalizationService, ServiceConfig
from repro.sim.runner import run_repeated
from repro.sim.scenarios import scenario_a
from repro.sim.serialization import scenario_to_dict, step_record_to_dict
from repro.sim.session import SessionSpec, with_config
from repro.streams import open_replay_session, read_header, scenario_from_header

GOLDEN_A1 = str(Path(__file__).parent / "data" / "golden_stream_a1.stream.jsonl")


def records(steps):
    docs = [s if isinstance(s, dict) else step_record_to_dict(s) for s in steps]
    return [
        {k: v for k, v in d.items() if k != "mean_iteration_seconds"}
        for d in docs
    ]


def comparable_manifest(manifest: RunManifest) -> dict:
    doc = manifest.to_dict()
    for key in ("kind", "name", "created_unix", "timings"):
        doc.pop(key)
    doc["metrics"].pop("iter_seconds")
    return doc


def only(ledger: Ledger) -> RunManifest:
    (series,) = ledger.series()
    return ledger.read(series)[0]


def served(tmp_path, wire_spec, inline):
    async def main():
        service = LocalizationService(
            ServiceConfig(
                checkpoint_dir=tmp_path / f"serve-{inline}",
                n_shards=1,
                inline=inline,
                step_timeout_seconds=120.0,
            )
        )
        try:
            outcome = await service.submit("t", "s", wire_spec)
            assert isinstance(outcome, Admitted), outcome
            return await service.run_to_completion("s")
        finally:
            await service.close()

    doc = asyncio.run(main())
    return records(doc["steps"]), RunManifest.from_dict(doc["manifest"])


def stream_inputs(backend):
    """(resolved scenario, seed, serve wire spec, sweep variant)."""
    header = read_header(GOLDEN_A1)
    scenario = with_config(scenario_from_header(header), backend=backend)
    variant = Variant(
        "a1", scenario, stream=GOLDEN_A1, base_seed=header.seed
    )
    wire = {"stream_path": GOLDEN_A1, "backend": backend, "run_index": 0}
    return scenario, header.seed, wire, variant


def scenario_inputs(backend):
    scenario = with_config(
        scenario_a(n_particles=400, n_time_steps=5), backend=backend
    )
    wire = {"scenario": scenario_to_dict(scenario), "seed": 5, "run_index": 0}
    return scenario, 5, wire, Variant("a", scenario)


@pytest.mark.parametrize("backend", ["default", "fast"])
@pytest.mark.parametrize("kind", ["stream", "scenario"])
def test_every_entry_point_runs_the_same_spec(tmp_path, kind, backend):
    scenario, seed, wire, variant = (
        stream_inputs if kind == "stream" else scenario_inputs
    )(backend)
    spec = SessionSpec(
        scenario=scenario if kind == "scenario" else None,
        stream_path=variant.stream,
        backend=backend if kind == "stream" else None,
    )
    outcomes = {}

    ledger = Ledger(tmp_path / "serial")
    runs = run_repeated(spec, n_repeats=1, base_seed=seed, ledger=ledger).runs
    outcomes["run_repeated serial"] = (records(runs[0].steps), only(ledger))

    ledger = Ledger(tmp_path / "pool")
    runs = run_repeated(
        spec, n_repeats=2, base_seed=seed, workers=2, ledger=ledger
    ).runs
    outcomes["run_repeated workers=2"] = (
        records(runs[0].steps), only(ledger),
    )

    ledger = Ledger(tmp_path / "sweep")
    sweep = run_sweep(
        SweepSpec(variants=(variant,), n_repeats=1, base_seed=seed),
        ledger=ledger,
    )
    outcomes["run_sweep"] = (records(sweep[variant.name].runs[0].steps),
                             only(ledger))

    if kind == "stream":
        ledger = Ledger(tmp_path / "replay")
        result = open_replay_session(
            GOLDEN_A1, backend=backend, run_index=0, ledger=ledger
        ).run()
        outcomes["replay"] = (records(result.steps), only(ledger))

    outcomes["serve inline"] = served(tmp_path, wire, inline=True)
    outcomes["serve worker shard"] = served(tmp_path, wire, inline=False)

    (ref_name, (ref_records, ref_manifest)), *rest = outcomes.items()
    assert "spec_sha256" in ref_manifest.context
    assert ref_manifest.context["backend"] == backend
    for name, (got_records, got_manifest) in rest:
        assert got_records == ref_records, f"{name} records != {ref_name}"
        assert comparable_manifest(got_manifest) == comparable_manifest(
            ref_manifest
        ), f"{name} manifest != {ref_name}"
