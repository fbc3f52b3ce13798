"""Inline-mode tests for the serving front-end.

Everything here runs the service with in-process shards (``inline=True``)
so behavior -- admission, backpressure, breakers, degradation, health --
is tested without process scheduling noise.  The process-mode chaos
contract lives in ``test_serve_chaos.py``.
"""

import asyncio
import json

import pytest

from repro.obs.ledger import Ledger
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer
from repro.serve import (
    AdmissionConfig,
    Admitted,
    LocalizationService,
    Rejected,
    ServiceConfig,
    StepFailed,
    is_rejected,
)
from repro.sim.serialization import scenario_to_dict, step_record_to_dict
from repro.sim.session import LocalizerSession
from tests.test_session_checkpoint import tiny_scenario


def spec_for(seed=7):
    return {"scenario": scenario_to_dict(tiny_scenario()), "seed": seed}


def strip(docs):
    return [
        {k: v for k, v in d.items() if k != "mean_iteration_seconds"}
        for d in docs
    ]


def service_config(tmp_path, **overrides):
    defaults = dict(
        checkpoint_dir=tmp_path / "ckpts",
        n_shards=2,
        inline=True,
        step_timeout_seconds=30.0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run(coro):
    return asyncio.run(coro)


class TestServiceConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"steps_per_call": 0},
            {"steps_per_call": -1},
            {"step_timeout_seconds": 0.0},
            {"step_timeout_seconds": -5.0},
            {"step_timeout_seconds": float("nan")},
        ],
    )
    def test_rejects_values_that_cannot_make_progress(self, tmp_path, overrides):
        # steps_per_call=0 made run_to_completion loop forever advancing
        # zero steps per shard call.
        with pytest.raises(ValueError):
            service_config(tmp_path, **overrides)


class TestServiceBasics:
    def test_served_session_matches_direct_run_bitwise(self, tmp_path):
        async def main():
            service = LocalizationService(service_config(tmp_path))
            assert isinstance(
                await service.submit("t", "s", spec_for(9)), Admitted
            )
            result = await service.run_to_completion("s")
            await service.close()
            return result

        result = run(main())
        live = LocalizerSession(tiny_scenario(), seed=9).run()
        assert strip(result["steps"]) == strip(
            [step_record_to_dict(s) for s in live.steps]
        )

    def test_many_sessions_multiplex_over_few_shards(self, tmp_path):
        async def main():
            service = LocalizationService(service_config(tmp_path))
            for i in range(6):
                outcome = await service.submit(
                    f"tenant-{i % 2}", f"s{i}", spec_for(seed=i)
                )
                assert isinstance(outcome, Admitted)
            results = await asyncio.gather(
                *(service.run_to_completion(f"s{i}") for i in range(6))
            )
            health = service.health()
            await service.close()
            return results, health

        results, health = run(main())
        assert all(r["finished"] for r in results)
        assert health["sessions"] == {"completed": 6}
        # Placement is stable and uses both shards for this id set.
        assert health["n_shards"] == 2

    def test_duplicate_session_id_is_typed_conflict(self, tmp_path):
        async def main():
            service = LocalizationService(service_config(tmp_path))
            await service.submit("t", "s", spec_for())
            dup = await service.submit("t", "s", spec_for())
            await service.close()
            return dup

        dup = run(main())
        assert is_rejected(dup) and dup.status == 409


class TestSheddingUnderLoad:
    def test_2x_overload_sheds_typed_and_never_hangs(self, tmp_path):
        """The acceptance bar: 2x capacity -> typed shed, zero hangs."""
        capacity = 4

        async def main():
            service = LocalizationService(
                service_config(
                    tmp_path,
                    admission=AdmissionConfig(
                        max_sessions=capacity,
                        tenant_max_sessions=capacity,
                        tenant_rate=1e6,
                        tenant_burst=1e6,
                    ),
                )
            )
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(
                        service.submit("t", f"s{i}", spec_for(seed=i))
                        for i in range(2 * capacity)
                    )
                ),
                timeout=60.0,
            )
            # Existing sessions still run to completion (reject-new,
            # never degrade-existing).
            admitted = [o for o in outcomes if isinstance(o, Admitted)]
            for o in admitted:
                await service.run_to_completion(o.session_id)
            await service.close()
            return outcomes

        outcomes = run(main())
        admitted = [o for o in outcomes if isinstance(o, Admitted)]
        rejected = [o for o in outcomes if isinstance(o, Rejected)]
        assert len(admitted) == capacity
        assert len(rejected) == capacity
        assert all(r.status in (429, 503) for r in rejected)
        assert all(r.reason for r in rejected)

    def test_ingest_queue_backpressure(self, tmp_path):
        async def main():
            service = LocalizationService(
                service_config(
                    tmp_path,
                    admission=AdmissionConfig(
                        ingest_queue_capacity=2, tenant_rate=1e6,
                        tenant_burst=1e6,
                    ),
                )
            )
            await service.submit("t", "s", spec_for())
            outcomes = [service.request_steps("s", 1) for _ in range(4)]
            pumped = await service.pump("s")
            await service.close()
            return outcomes, pumped

        outcomes, pumped = run(main())
        accepted = [o for o in outcomes if isinstance(o, Admitted)]
        shed = [o for o in outcomes if isinstance(o, Rejected)]
        assert len(accepted) == 2
        assert len(shed) == 2
        assert all(o.reason == "queue_full" for o in shed)
        assert pumped.step_index == 2  # exactly the accepted requests ran


class TestBreakerAndQuarantine:
    def test_repeated_step_failures_quarantine_tenant(self, tmp_path):
        async def main():
            service = LocalizationService(
                service_config(
                    tmp_path,
                    n_shards=1,
                    max_step_attempts=1,
                    breaker_failure_threshold=2,
                    breaker_recovery_seconds=60.0,
                )
            )
            await service.submit("t", "s", spec_for())
            # Sabotage the inline host so every step raises.
            shard = service.shards[0]

            class Exploding:
                def __getattr__(self, name):
                    def boom(*args, **kwargs):
                        raise KeyError("session lost")

                    return boom

            failures = 0
            for _ in range(2):
                # Resurrection swaps in a fresh host after each failure,
                # so the sabotage must be re-applied per attempt.
                shard.host = Exploding()
                with pytest.raises(StepFailed):
                    await service.advance("s", 1)
                failures += 1
            quarantined = await service.submit("t", "s2", spec_for())
            breaker_state = service.breakers.breaker("t").state
            await service.close()
            return failures, quarantined, breaker_state

        failures, quarantined, breaker_state = run(main())
        assert failures == 2
        assert is_rejected(quarantined)
        assert quarantined.reason == "tenant_quarantined"
        assert breaker_state == "open"

    def test_successful_steps_reset_breaker(self, tmp_path):
        async def main():
            service = LocalizationService(service_config(tmp_path))
            await service.submit("t", "s", spec_for())
            await service.advance("s", 2)
            state = service.breakers.breaker("t").state
            await service.close()
            return state

        assert run(main()) == "closed"


class TestDegradation:
    def test_degrade_switches_backend_and_widens_checkpoints(
        self, tmp_path
    ):
        sink = InMemorySink()

        async def main():
            service = LocalizationService(
                service_config(tmp_path, n_shards=1),
                tracer=Tracer(sink),
            )
            await service.submit("t", "s", spec_for(seed=4))
            await service.advance("s", 2)
            handle = await service.degrade("s", reason="overload")
            result = await service.run_to_completion("s")
            manifest = service.manifest()
            await service.close()
            return handle, result, manifest

        handle, result, manifest = run(main())
        assert handle.degrade_level == 1
        assert handle.spec.backend == "fast"
        assert handle.spec.checkpoint_every == 4  # 1 * factor
        assert result["finished"]
        # The transition is traced and lands in the service manifest.
        events = [r for r in sink.records if r["type"] == "service_degrade"]
        assert len(events) == 1
        assert events[0]["backend"] == "fast"
        assert manifest.context["degradations"][0]["session_id"] == "s"
        assert manifest.context["degradations"][0]["reason"] == "overload"

    def test_second_degrade_level_reduces_particles_in_spec(self, tmp_path):
        async def main():
            service = LocalizationService(
                service_config(tmp_path, n_shards=1)
            )
            await service.submit("t", "s", spec_for())
            await service.degrade("s")
            handle = await service.degrade("s")
            await service.close()
            return handle

        handle = run(main())
        assert handle.degrade_level == 2
        original = tiny_scenario().localizer_config.n_particles
        assert handle.spec.n_particles == max(1, original // 2)


class TestHealthAndMetrics:
    def test_health_and_ready_shapes(self, tmp_path):
        async def main():
            service = LocalizationService(
                service_config(
                    tmp_path,
                    admission=AdmissionConfig(max_sessions=1),
                )
            )
            ready_before = service.ready()
            await service.submit("t", "s", spec_for())
            ready_full = service.ready()
            health = service.health()
            await service.close()
            return ready_before, ready_full, health

        ready_before, ready_full, health = run(main())
        assert ready_before["ready"] is True
        assert ready_full["ready"] is False  # at capacity
        assert health["status"] == "ok"
        assert health["sessions"] == {"active": 1}
        assert health["admission"]["active_sessions"] == 1

    def test_health_tcp_endpoint_line_json(self, tmp_path):
        async def main():
            service = LocalizationService(service_config(tmp_path))
            await service.submit("t", "s", spec_for())
            host, port = await service.serve_health()
            bodies = {}
            for probe in ("health", "ready", "metrics"):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write((probe + "\n").encode())
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                bodies[probe] = json.loads(line)
                writer.close()
            await service.close()
            return bodies

        bodies = run(main())
        assert bodies["health"]["status"] == "ok"
        assert bodies["ready"]["ready"] is True
        assert isinstance(bodies["metrics"], dict)

    def test_service_metrics_counters(self, tmp_path):
        metrics = MetricsRegistry()

        async def main():
            service = LocalizationService(
                service_config(
                    tmp_path,
                    admission=AdmissionConfig(max_sessions=1),
                ),
                metrics=metrics,
            )
            await service.submit("t", "s", spec_for())
            rejected = await service.submit("t", "s2", spec_for())
            assert is_rejected(rejected)
            await service.advance("s", 2)
            await service.evict("s")
            await service.restore("s")
            await service.run_to_completion("s")
            await service.close()

        run(main())
        snap = metrics.snapshot()
        assert snap["service.admitted"]["value"] == 1  # restores count apart
        assert snap["service.rejected"]["value"] == 1
        assert snap["service.evicted"]["value"] == 1
        assert snap["service.restored"]["value"] == 1
        assert snap["service.completed"]["value"] == 1
        assert snap["service.step_seconds"]["count"] > 0
        assert "p99" in snap["service.step_seconds"]

    def test_manifest_lands_in_ledger_on_close(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger")
        metrics = MetricsRegistry()

        async def main():
            service = LocalizationService(
                service_config(tmp_path),
                metrics=metrics,
                ledger=ledger,
            )
            await service.submit("t", "s", spec_for())
            await service.run_to_completion("s")
            await service.close()

        run(main())
        entries = ledger.read("serve")
        assert len(entries) == 1
        assert entries[0].kind == "serve"
        assert entries[0].metrics["service.admitted"] == 1.0
        assert entries[0].metrics["service.completed"] == 1.0
        assert "service.step_p99_seconds" in entries[0].metrics
