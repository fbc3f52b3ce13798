"""Process-mode chaos tests: SIGKILL a shard worker, demand bitwise output.

The contract (ISSUE PR 10): a served session whose worker process is
killed mid-run resurrects from its last ``repro-checkpoint v1`` snapshot
and finishes with **bitwise-identical** final estimates to the
uninterrupted replay of the same golden stream.  No step may hang -- the
deadline/retry/resurrect machinery converts a dead process into a
bounded recovery, and the PR 4/9 resume-parity contract converts the
recovery into silence in the output.
"""

import asyncio
import os
import signal
from pathlib import Path

import pytest

from repro.serve import Admitted, LocalizationService, ServiceConfig
from repro.sim.serialization import step_record_to_dict
from repro.streams import open_replay_session

DATA = Path(__file__).parent / "data"
GOLDEN = {
    "a1": DATA / "golden_stream_a1.stream.jsonl",
    "c3": DATA / "golden_stream_c3.stream.jsonl",
}


def strip(docs):
    return [
        {k: v for k, v in d.items() if k != "mean_iteration_seconds"}
        for d in docs
    ]


def baseline_steps(stream_path):
    """The uninterrupted replay the served run must match bitwise."""
    result = open_replay_session(stream_path).run()
    return strip([step_record_to_dict(s) for s in result.steps])


def chaos_config(tmp_path, **overrides):
    defaults = dict(
        checkpoint_dir=tmp_path / "ckpts",
        n_shards=1,
        inline=False,
        checkpoint_every=1,
        steps_per_call=1,
        step_timeout_seconds=120.0,
        max_step_attempts=3,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_sigkill_mid_run_is_bitwise(tmp_path, stem):
    stream_path = GOLDEN[stem]

    async def main():
        service = LocalizationService(chaos_config(tmp_path))
        outcome = await service.submit(
            "golden", stem, {"stream_path": str(stream_path)}
        )
        assert isinstance(outcome, Admitted)
        # Advance a few steps so a checkpoint exists, then kill -9.
        await service.advance(stem, 3)
        (pid,) = await service.shard_pids()
        os.kill(pid, signal.SIGKILL)
        result = await asyncio.wait_for(
            service.run_to_completion(stem), timeout=300.0
        )
        handle = service.sessions[stem]
        (new_pid,) = await service.shard_pids()
        await service.close()
        return result, handle, pid, new_pid

    result, handle, pid, new_pid = asyncio.run(main())
    assert handle.resurrections >= 1
    assert new_pid != pid  # genuinely a fresh worker process
    assert result["finished"]
    assert strip(result["steps"]) == baseline_steps(stream_path)


def test_sigkill_before_first_checkpoint_restarts_fresh(tmp_path):
    """Killed before any snapshot: resurrection re-opens from scratch."""
    stream_path = GOLDEN["a1"]

    async def main():
        service = LocalizationService(chaos_config(tmp_path))
        outcome = await service.submit(
            "golden", "a1", {"stream_path": str(stream_path)}
        )
        assert isinstance(outcome, Admitted)
        assert not (tmp_path / "ckpts" / "a1.ckpt.json").exists()
        (pid,) = await service.shard_pids()
        os.kill(pid, signal.SIGKILL)
        result = await asyncio.wait_for(
            service.run_to_completion("a1"), timeout=300.0
        )
        await service.close()
        return result

    result = asyncio.run(main())
    assert result["finished"]
    assert strip(result["steps"]) == baseline_steps(stream_path)


def test_two_sessions_on_killed_shard_both_resurrect(tmp_path):
    """Every active session on a dead shard comes back, not just one."""

    async def main():
        service = LocalizationService(chaos_config(tmp_path, n_shards=1))
        for stem, path in sorted(GOLDEN.items()):
            outcome = await service.submit(
                "golden", stem, {"stream_path": str(path)}
            )
            assert isinstance(outcome, Admitted)
            await service.advance(stem, 2)
        (pid,) = await service.shard_pids()
        os.kill(pid, signal.SIGKILL)
        results = {}
        for stem in sorted(GOLDEN):
            results[stem] = await asyncio.wait_for(
                service.run_to_completion(stem), timeout=300.0
            )
        handles = {s: service.sessions[s] for s in GOLDEN}
        await service.close()
        return results, handles

    results, handles = asyncio.run(main())
    assert sum(h.resurrections for h in handles.values()) >= 2
    for stem, path in GOLDEN.items():
        assert strip(results[stem]["steps"]) == baseline_steps(path)


def test_recovery_emits_resurrect_metrics_and_traces(tmp_path):
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sinks import InMemorySink
    from repro.obs.trace import Tracer

    sink = InMemorySink()
    metrics = MetricsRegistry()

    async def main():
        service = LocalizationService(
            chaos_config(tmp_path),
            tracer=Tracer(sink),
            metrics=metrics,
        )
        await service.submit(
            "golden", "a1", {"stream_path": str(GOLDEN["a1"])}
        )
        await service.advance("a1", 2)
        (pid,) = await service.shard_pids()
        os.kill(pid, signal.SIGKILL)
        await asyncio.wait_for(
            service.run_to_completion("a1"), timeout=300.0
        )
        await service.close()

    asyncio.run(main())
    snap = metrics.snapshot()
    assert snap["service.resurrected"]["value"] >= 1
    events = [r["type"] for r in sink.records]
    assert "service_resurrect" in events
    resurrects = [
        r for r in sink.records if r["type"] == "service_resurrect"
    ]
    assert resurrects[0]["session_id"] == "a1"
    assert resurrects[0]["resumed"] is True  # came back from a checkpoint


@pytest.mark.parametrize(
    "bad_spec",
    [
        {"seed": 1},  # neither scenario nor stream_path
        {"stream_path": str(GOLDEN["a1"]), "checkpoint_evry": 5},  # typo
        {"stream_path": str(GOLDEN["a1"]), "seed": "1"},  # wrong type
        "not-a-spec",
    ],
)
def test_malformed_spec_is_a_400_that_spares_the_shard(tmp_path, bad_spec):
    """A client error never reaches the shard: no kill, no 503."""
    from repro.serve import Rejected
    from repro.sim.serialization import scenario_to_dict
    from tests.test_session_checkpoint import tiny_scenario

    both = {
        "scenario": scenario_to_dict(tiny_scenario()),
        "stream_path": str(GOLDEN["a1"]),
    }

    async def main():
        service = LocalizationService(chaos_config(tmp_path))
        try:
            outcome = await service.submit(
                "t1", "live", {"scenario": scenario_to_dict(tiny_scenario())}
            )
            assert isinstance(outcome, Admitted)
            await service.advance("live", 1)
            (pid_before,) = await service.shard_pids()
            active = service.admission.active_sessions
            rejected = [
                await service.submit("t2", "bad", bad_spec),
                await service.submit("t2", "both", both),
            ]
            (pid_after,) = await service.shard_pids()
            await service.advance("live", 1)
            return (
                rejected, pid_before, pid_after, active,
                service.admission.active_sessions,
                service.sessions["live"].step_index,
            )
        finally:
            await service.close()

    rejected, pid_before, pid_after, active, active_after, step = asyncio.run(
        main()
    )
    for outcome in rejected:
        assert isinstance(outcome, Rejected)
        assert (outcome.reason, outcome.status) == ("bad_spec", 400)
    assert pid_after == pid_before
    assert active_after == active
    assert step == 2
