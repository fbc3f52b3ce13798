"""The benchmark's four workloads, their timed loops and correctness gates.

Every workload is closed-loop: a client issues its next step only after
the previous one returned.  Session seeds derive from the workload seed
(:func:`session_seed`), so one ``--seed`` fixes every input of a run.

* ``table1-fast`` / ``table1-default`` -- the paper's hardest Table I
  cell (scenario B: 196 sensors, nine sources, three obstacles, 15000
  particles, 30-step sessions) on the float32 and float64 backends.
* ``robust-replay`` -- the golden scenario-A stream replayed with
  reordering, faults, sensor integrity, a checkpoint every step and a
  ledger append per session.
* ``serve-closed`` -- two async clients driving scenario-A sessions
  through a :class:`LocalizationService` with one out-of-process shard.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from layers import (
    LayerProbe,
    clock,
    install_serve_layers,
    install_session_layers,
    install_shard_compute,
    install_worker_compute,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_STREAM = ROOT / "tests" / "data" / "golden_stream_a1.stream.jsonl"
GOLDEN_BASELINE = ROOT / "benchmarks" / "baselines" / "golden_stream_a1.json"
#: Session-0 step digests per workload and seed, made by ``golden.py``.
GOLDEN_DIGESTS = Path(__file__).resolve().parent / "results" / "golden_digests.json"

#: Workloads on the float64 ``default`` backend, whose step records are
#: bitwise-fixed by seed across program versions.
BITWISE_WORKLOADS = ("table1-default", "robust-replay", "serve-closed")

#: Cold starts timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5

#: Mean final OSPA the fast backend must stay under on scenario B.
FAST_OSPA_LIMIT = 20.0

SERVE_LAYER_METRICS = (
    "serve.submit_ms",
    "serve.queue_wait_ms",
    "serve.ipc_ms",
    "serve.shard_compute_ms",
    "serve.evict_ms",
    "serve.restore_ms",
    "serve.retries",
    "serve.rejected",
)


def session_seed(seed: int, index: int, client: int = 0) -> int:
    """Run seed of session ``index`` of ``client`` under workload ``seed``."""
    state = np.random.SeedSequence([seed, client, index]).generate_state(1)
    return int(state[0])


def step_digest(doc: dict) -> str:
    """Digest of one step-record document with its timing field removed."""
    doc = {k: v for k, v in doc.items() if k != "mean_iteration_seconds"}
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def is_fixed(metrics: dict) -> bool:
    """Every source matched within the match radius, no false positives."""
    return metrics["false_negatives"] == 0 and metrics["false_positives"] == 0


def final_ospa(sources, estimates: List[dict]) -> float:
    from repro.eval.ospa import ospa_distance

    return ospa_distance(
        [(s.x, s.y) for s in sources],
        [(e["x"], e["y"]) for e in estimates],
        cutoff=40.0,
        order=1.0,
    )


@dataclass
class Tally:
    """What one timed window did."""

    step_s: List[float] = field(default_factory=list)
    readings: int = 0
    #: Completed sessions plus the step fraction of a session cut short.
    sessions: float = 0.0
    fix_s: List[float] = field(default_factory=list)
    ospa: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    errors: List[str] = field(default_factory=list)
    window_s: float = 0.0
    #: Served sessions cut short by the window's end, collected after it.
    partial: List[Tuple[str, str]] = field(default_factory=list)
    #: Session key -> step-record documents (timing field included).
    docs: Dict[str, List[dict]] = field(default_factory=dict)

    def digests(self) -> Dict[str, List[str]]:
        return {
            key: [step_digest(doc) for doc in docs]
            for key, docs in self.docs.items()
        }


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str = ""


def prefix_gate(name: str, a: Dict[str, List[str]], b: Dict[str, List[str]]) -> Gate:
    """Sessions present in both maps agree on every step both reached."""
    common = sorted(set(a) & set(b))
    steps = 0
    for key in common:
        n = min(len(a[key]), len(b[key]))
        steps += n
        if a[key][:n] != b[key][:n]:
            first = next(i for i in range(n) if a[key][i] != b[key][i])
            return Gate(name, False, f"session {key} differs at step {first}")
    if not steps:
        return Gate(name, False, "no common steps to compare")
    return Gate(name, True, f"{len(common)} sessions, {steps} steps identical")


def golden_replay_gate() -> Gate:
    """A plain replay of the golden stream reproduces its baseline exactly."""
    from repro.obs.ledger import manifest_from_result
    from repro.streams import open_replay_session, read_header

    baseline = json.loads(GOLDEN_BASELINE.read_text())
    session = open_replay_session(GOLDEN_STREAM)
    result = session.run()
    got = manifest_from_result(
        result,
        kind="session",
        name=baseline["name"],
        seeds=[read_header(GOLDEN_STREAM).seed],
        scenario=session.scenario,
    ).metrics
    expected = baseline["metrics"]
    bad = sorted(k for k in expected if got.get(k) != expected[k])
    detail = f"mismatched {bad}" if bad else f"{len(expected)} metrics equal"
    return Gate("golden_stream_a1 replay equals its baseline", not bad, detail)


def cold_setup_times(name: str, seed: int, work: Path) -> List[float]:
    """Seconds from starting a fresh interpreter to ready-to-step.

    Each repeat is its own process, so the median samples the
    per-process variation (memory placement, allocator state) that
    makes in-process millisecond timings of the same set-up differ by
    half between runs.
    """
    script = Path(__file__).resolve().parent / "cold_start.py"
    times = []
    for attempt in range(SETUP_REPEATS):
        command = [sys.executable, str(script), name, str(seed), str(work / f"cold{attempt}")]
        start = clock()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = clock() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"cold start of {name} failed (exit {code}): {line!r}")
        times.append(elapsed)
    return times


def golden_gate(workload: str, seed: int, digests: Dict[str, List[str]]) -> Optional[Gate]:
    """Session 0 equals the committed records of this seed, if there are any."""
    key = "0/0" if workload == "serve-closed" else "0"
    golden = json.loads(GOLDEN_DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if golden is None:
        return None
    return prefix_gate(
        "session 0 equals the committed step records of this seed",
        {key: golden},
        {key: digests.get(key, [])},
    )


def cross_run_gate(
    store: Path, key: str, digests: Dict[str, List[str]]
) -> Gate:
    """Digests agree with every earlier run of the same workload and seed."""
    known = json.loads(store.read_text()) if store.exists() else {}
    earlier = known.get(key, {})
    gate = Gate("step records equal earlier runs of this seed", True, "first run")
    if set(earlier) & set(digests):
        gate = prefix_gate(gate.name, earlier, digests)
    merged = dict(earlier)
    for name, steps in digests.items():
        if len(steps) > len(merged.get(name, [])):
            merged[name] = steps
    known[key] = merged
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(store)
    return gate


def session_digests(session) -> List[str]:
    """Run ``session`` to its end; the digests of its step records."""
    from repro.sim.serialization import step_record_to_dict

    return [step_digest(step_record_to_dict(r)) for r in session.run().steps]


# --- per-layer reduction ------------------------------------------------------


def layer_metrics(probe: LayerProbe, steps: int) -> Dict[str, float]:
    """Per-step layer figures from a probe whose root spans are steps."""
    steps = max(1, steps)

    def ms(name: str) -> float:
        return 1000.0 * probe.self_s.get(name, 0.0) / steps

    def per(name: str) -> float:
        return probe.counts.get(name, 0.0) / steps

    estimates_calls = probe.counts.get("core.localizer.estimates_calls", 0.0)
    extracts = probe.calls.get("core.estimator.extract", 0)
    return {
        "streams.open_ms": ms("streams.open"),
        "streams.measure_ms": ms("streams.measure"),
        "faults.apply_ms": ms("faults.apply"),
        "faults.injected": per("faults.injected"),
        "network.push_ms": ms("network.push"),
        "network.delivered": per("network.delivered"),
        "network.held": per("network.held"),
        "core.integrity.assess_ms": ms("core.integrity.assess"),
        "core.integrity.quarantined": per("core.integrity.quarantined"),
        "core.grid.maintain_ms": ms("core.grid.maintain"),
        "core.grid.select_ms": ms("core.grid.select"),
        "core.grid.queries": per("core.grid.queries"),
        "core.backend.likelihood_ms": ms("core.backend.likelihood"),
        "core.backend.apply_ms": ms("core.backend.apply"),
        "core.backend.disc_query_ms": ms("core.backend.disc_query"),
        "core.weighting.reweight_ms": ms("core.weighting.reweight"),
        "core.resampling.resample_ms": ms("core.resampling.resample"),
        "core.resampling.calls": probe.calls.get("core.resampling.resample", 0)
        / steps,
        "core.resampling.injected": per("core.resampling.injected"),
        "core.estimator.extract_ms": ms("core.estimator.extract"),
        "core.estimator.extracts_per_step": extracts / steps,
        "core.localizer.self_ms": ms("core.localizer"),
        "core.localizer.estimate_hit_ratio": (
            1.0 - extracts / estimates_calls if estimates_calls else 0.0
        ),
        "core.diagnostics.health_ms": ms("core.diagnostics.health"),
        "eval.evaluate_ms": ms("eval.evaluate"),
        "sim.serialization.save_ms": ms("sim.serialization.save"),
        "sim.serialization.save_bytes": per("sim.serialization.save_bytes"),
        "sim.serialization.load_ms": ms("sim.serialization.load"),
        "obs.ledger.append_ms": ms("obs.ledger.append"),
        "sim.session.self_ms": ms("sim.session"),
    }


def p50_ms(samples: List[float]) -> float:
    return 1000.0 * statistics.median(samples) if samples else 0.0


def mean_ms(samples: List[float]) -> float:
    return 1000.0 * statistics.fmean(samples) if samples else 0.0


# --- in-process session workloads ---------------------------------------------


class SessionWorkload:
    """A workload of back-to-back :class:`LocalizerSession` runs."""

    steps_per_session = 0
    #: Steps of session 0 run before the window (warm-up + repeat check).
    warmup_steps = 0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def open(self, index: int):
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        session = self.open(0)
        config = session.scenario.localizer_config
        return {
            "backend": session.localizer.backend.describe()["name"],
            "n_particles": config.n_particles,
            "n_sensors": len(session.scenario.sensors),
            "steps_per_session": session.scenario.n_time_steps,
        }

    def warmup(self) -> Dict[str, List[str]]:
        from repro.sim.serialization import step_record_to_dict

        session = self.open(0)
        for _ in range(self.warmup_steps):
            session.step()
        return {"0": [step_digest(step_record_to_dict(r)) for r in session.records]}

    def _session(
        self,
        tally: Tally,
        pending: dict,
        index: int,
        deadline: float,
        max_steps: Optional[int] = None,
    ) -> int:
        """Step session ``index`` until it finishes, ``deadline`` passes or it
        has taken ``max_steps`` steps; returns the steps taken."""
        max_steps = self.steps_per_session if max_steps is None else max_steps
        opened = clock()
        session = self.open(index)
        fixed_at = None
        last_end = opened
        try:
            while (
                not session.finished
                and clock() < deadline
                and len(session.records) < max_steps
            ):
                t0 = clock()
                record = session.step()
                last_end = clock()
                tally.step_s.append(last_end - t0)
                tally.attempted += 1
                if fixed_at is None and (
                    record.metrics.false_negatives == 0
                    and record.metrics.false_positives == 0
                ):
                    fixed_at = last_end - opened
        except Exception as exc:  # a failed step is counted, not fatal
            tally.attempted += 1
            tally.failed += 1
            tally.errors.append(f"session {index}: {exc!r}")
        tally.readings += session.localizer.iteration
        if session.finished:
            tally.sessions += 1.0
            tally.fix_s.append(fixed_at if fixed_at is not None else last_end - opened)
        else:
            tally.sessions += len(session.records) / self.steps_per_session
        pending[str(index)] = (session.scenario.sources, session.records, session.finished)
        return len(session.records)

    @staticmethod
    def _collect(tally: Tally, pending: dict) -> None:
        """Record documents and final OSPA, computed after the window."""
        from repro.sim.serialization import step_record_to_dict

        for key, (sources, records, finished) in pending.items():
            tally.docs[key] = [step_record_to_dict(r) for r in records]
            if finished:
                tally.ospa.append(final_ospa(sources, tally.docs[key][-1]["estimates"]))

    def run_window(self, seconds: float) -> Tally:
        tally, pending = Tally(), {}
        start = clock()
        deadline = start + seconds
        index = 0
        while clock() < deadline:
            self._session(tally, pending, index, deadline)
            index += 1
        tally.window_s = clock() - start
        self._collect(tally, pending)
        return tally

    def extra_gates(self, tally: Tally) -> List[Gate]:
        return []

    def measure(self, seconds: float) -> Tuple[Tally, List[Gate]]:
        warm = self.warmup()
        tally = self.run_window(seconds)
        gates = [
            prefix_gate("warm-up session repeats bitwise in the window", warm, tally.digests())
        ]
        return tally, gates + self.extra_gates(tally)

    def trace(self, seconds: float):
        """Each session untraced, then again traced; returns (tally, layers, gates).

        Running both copies of a seed back to back keeps slow drift of the
        machine's speed out of the tracing overhead, and gives two step
        records per seed to compare.
        """
        self.warmup()
        untraced, traced = Tally(), Tally()
        pending_untraced, pending_traced = {}, {}
        probe = LayerProbe(root="sim.session")
        deadline = clock() + seconds
        index = 0
        while clock() < deadline:
            steps = self._session(untraced, pending_untraced, index, deadline)
            with probe:
                install_session_layers(probe)
                self._session(traced, pending_traced, index, math.inf, steps)
            index += 1
        self._collect(untraced, pending_untraced)
        self._collect(traced, pending_traced)
        steps = probe.calls.get("sim.session", 0)
        layers = layer_metrics(probe, steps)
        outer = sum(traced.step_s)
        # No serving tier runs here: its layers are idle.
        layers.update(dict.fromkeys(SERVE_LAYER_METRICS, 0.0))
        layers.update(
            {
                "budget.step_ms": 1000.0 * outer / max(1, steps),
                "budget.unattributed_share": (
                    probe.inner_s.get("sim.session", 0.0) / outer if outer else 0.0
                ),
                "trace.overhead_ms": p50_ms(traced.step_s) - p50_ms(untraced.step_s),
            }
        )
        gates = [
            prefix_gate(
                "traced step records equal untraced ones",
                untraced.digests(),
                traced.digests(),
            ),
        ]
        return traced, layers, gates + self.extra_gates(traced)


class Table1(SessionWorkload):
    """Scenario B at paper scale on one array backend."""

    steps_per_session = 30
    warmup_steps = 5

    def __init__(self, seed: int, work: Path, backend: str):
        super().__init__(seed, work)
        self.backend = backend

    def open(self, index: int):
        from repro.sim.scenarios import scenario_b
        from repro.sim.session import LocalizerSession

        scenario = scenario_b()
        scenario = dataclasses.replace(
            scenario,
            localizer_config=dataclasses.replace(
                scenario.localizer_config, backend=self.backend
            ),
        )
        return LocalizerSession(scenario, seed=session_seed(self.seed, index))

    def extra_gates(self, tally: Tally) -> List[Gate]:
        if self.backend != "fast":
            return []
        name = "fast estimates finite and inside the area"
        width, height = 260.0, 260.0
        checked = 0
        for key, docs in tally.docs.items():
            for step, doc in enumerate(docs):
                for estimate in doc["estimates"]:
                    checked += 1
                    x, y, s = estimate["x"], estimate["y"], estimate["strength"]
                    if not (
                        all(math.isfinite(v) for v in (x, y, s))
                        and 0.0 <= x <= width
                        and 0.0 <= y <= height
                    ):
                        detail = f"session {key} step {step}: ({x}, {y}, {s})"
                        return [Gate(name, False, detail)]
        gates = [Gate(name, checked > 0, f"{checked} estimates checked")]
        if tally.ospa:
            # Tolerance parity: the fused float32 path stays in the same
            # accuracy class as the reference (a broken path reads 20+).
            ospa = statistics.fmean(tally.ospa)
            gates.append(
                Gate(
                    f"fast final OSPA below {FAST_OSPA_LIMIT:g}",
                    ospa < FAST_OSPA_LIMIT,
                    f"mean {ospa:.2f} over {len(tally.ospa)} sessions",
                )
            )
        return gates


class RobustReplay(SessionWorkload):
    """The golden stream under reordering, faults, integrity and I/O."""

    steps_per_session = 10
    warmup_steps = 10

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        baseline = json.loads(GOLDEN_BASELINE.read_text())
        self.pinned_sha256 = baseline["context"]["stream_sha256"]

    def faults(self, run_seed: int):
        from repro.faults.models import (
            DuplicatedMessages,
            NetworkPartition,
            SpoofedCounts,
        )
        from repro.faults.schedule import FaultSchedule

        return FaultSchedule(
            models=(
                # Two sensors far from the source report a phantom, loud
                # enough for their neighbours to witness (as bench_faults).
                SpoofedCounts(sensor_ids=(4, 29), low=2000.0, high=6000.0),
                DuplicatedMessages(probability=0.1),
                # The centre block is cut off for steps 3-5 and heals at 6.
                NetworkPartition(sensor_ids=(15, 16, 21, 22), start=3, end=6),
            ),
            seed=run_seed,
        )

    def open(self, index: int):
        from repro.network.link import UniformLatencyLink
        from repro.network.transport import OutOfOrderDelivery
        from repro.obs.ledger import Ledger
        from repro.sim.session import LocalizerSession
        from repro.streams.replay import scenario_from_header
        from repro.streams.source import FileReplaySource

        run_seed = session_seed(self.seed, index)
        source = FileReplaySource(GOLDEN_STREAM)
        if source.sha256 != self.pinned_sha256:
            raise RuntimeError(
                f"{GOLDEN_STREAM.name} sha256 {source.sha256[:12]} does not "
                f"match the pinned {self.pinned_sha256[:12]}"
            )
        scenario = scenario_from_header(source.header, faults=self.faults(run_seed))
        scenario = dataclasses.replace(
            scenario,
            delivery=OutOfOrderDelivery(UniformLatencyLink(0.0, 2.0)),
            localizer_config=dataclasses.replace(
                scenario.localizer_config, integrity_enabled=True
            ),
        )
        return LocalizerSession(
            scenario,
            seed=run_seed,
            source=source,
            checkpoint_every=1,
            checkpoint_path=self.work / "robust.ckpt.json",
            ledger=Ledger(self.work / "ledger"),
            manifest_name="perfbench-robust-replay",
        )


# --- the serving tier ------------------------------------------------------------


class ServeClosed:
    """Two closed-loop async clients over one out-of-process shard."""

    steps_per_session = 10
    n_clients = 2
    #: Steps after which each session is evicted and restored once.
    evict_at = 5

    def __init__(self, seed: int, work: Path):
        from repro.sim.scenarios import scenario_a
        from repro.sim.serialization import scenario_to_dict

        self.seed = seed
        self.work = work
        self.scenario = scenario_a(n_particles=500, n_time_steps=self.steps_per_session)
        self.scenario_doc = scenario_to_dict(self.scenario)

    def describe(self) -> Dict[str, object]:
        return {
            "backend": self.scenario.localizer_config.backend or "default",
            "n_particles": self.scenario.localizer_config.n_particles,
            "n_sensors": len(self.scenario.sensors),
            "steps_per_session": self.steps_per_session,
            "clients": self.n_clients,
            "shards": 1,
        }

    def spec(self, client: int, index: int) -> dict:
        return {"scenario": self.scenario_doc, "seed": session_seed(self.seed, index, client)}

    def service(self, inline: bool, tag: str):
        from repro.serve.service import LocalizationService, ServiceConfig

        return LocalizationService(
            ServiceConfig(
                checkpoint_dir=self.work / f"serve-{tag}",
                n_shards=1,
                inline=inline,
                steps_per_call=1,
                checkpoint_every=1,
            )
        )

    async def _start(self, tag: str):
        """An out-of-process service whose shard has answered once."""
        service = self.service(inline=False, tag=tag)
        await service.shard_pids()
        return service

    async def _session(self, service, client: int, index: int, prefix: str,
                       deadline: Optional[float], tally: Tally) -> None:
        from repro.serve.admission import Rejected
        from repro.serve.service import StepFailed

        sid = f"{prefix}c{client}s{index}"
        opened = clock()
        tally.attempted += 1
        outcome = await service.submit(f"tenant{client}", sid, self.spec(client, index))
        if isinstance(outcome, Rejected):
            tally.failed += 1
            tally.rejected += 1
            tally.errors.append(f"{sid} submit rejected: {outcome.reason}")
            return
        ends: List[float] = []
        handle = service.sessions[sid]
        cycled = False
        try:
            while not handle.finished and (deadline is None or clock() < deadline):
                if len(ends) == self.evict_at and not cycled:
                    cycled = True
                    tally.attempted += 2
                    await service.evict(sid)
                    restored = await service.restore(sid)
                    if isinstance(restored, Rejected):
                        tally.failed += 1
                        tally.rejected += 1
                        tally.errors.append(f"{sid} restore rejected: {restored.reason}")
                        return
                t0 = clock()
                await service.advance(sid, 1)
                ends.append(clock())
                tally.step_s.append(ends[-1] - t0)
                tally.attempted += 1
        except StepFailed as exc:
            tally.attempted += 1
            tally.failed += 1
            tally.errors.append(f"{sid}: {exc}")
            return
        if not handle.finished:
            tally.sessions += len(ends) / self.steps_per_session
            tally.partial.append((sid, f"{client}/{index}"))
            return
        docs = await self._collect(service, sid, f"{client}/{index}", tally)
        tally.sessions += 1.0
        fixed = next((k for k, d in enumerate(docs) if is_fixed(d["metrics"])), None)
        tally.fix_s.append((ends[fixed] if fixed is not None else ends[-1]) - opened)
        tally.ospa.append(final_ospa(self.scenario.sources, docs[-1]["estimates"]))

    @staticmethod
    async def _collect(service, sid: str, key: str, tally: Tally) -> List[dict]:
        """Fetch a session's step records; count the readings they consumed."""
        docs = (await service.collect(sid))["steps"]
        tally.docs[key] = docs
        tally.readings += sum(doc["n_measurements"] for doc in docs)
        return docs

    async def _window(self, service, seconds: float, prefix: str) -> Tally:
        tally = Tally()
        start = clock()
        deadline = start + seconds

        async def client(c: int) -> None:
            index = 0
            while clock() < deadline:
                await self._session(service, c, index, prefix, deadline, tally)
                index += 1

        await asyncio.gather(*(client(c) for c in range(self.n_clients)))
        tally.window_s = clock() - start
        for sid, key in tally.partial:
            await self._collect(service, sid, key, tally)
        return tally

    async def _warmup(self, service) -> Dict[str, List[str]]:
        tally = Tally()
        await self._session(service, 0, 0, "warm", None, tally)
        return tally.digests()

    def open(self, index: int):
        """The in-process twin of client 0's session ``index``."""
        from repro.sim.serialization import scenario_from_dict
        from repro.sim.session import LocalizerSession

        spec = self.spec(0, index)
        return LocalizerSession(scenario_from_dict(spec["scenario"]), seed=spec["seed"])

    def in_process_gate(self, tally: Tally) -> Gate:
        """A served session equals an in-process run of the same spec."""
        name = "served session equals an in-process LocalizerSession run"
        if "0/0" not in tally.docs:
            return Gate(name, False, "session 0/0 did not complete in the window")
        local_digests = session_digests(self.open(0))
        served = tally.digests()["0/0"]
        ok = local_digests == served
        return Gate(name, ok, f"{len(served)} steps {'identical' if ok else 'differ'}")

    def measure(self, seconds: float) -> Tuple[Tally, List[Gate]]:
        async def go():
            service = await self._start("measure")
            try:
                warm = await self._warmup(service)
                tally = await self._window(service, seconds, "m")
            finally:
                await service.close()
            return tally, warm

        tally, warm = asyncio.run(go())
        gates = [
            prefix_gate(
                "warm-up session repeats bitwise in the window",
                {"0/0": warm.get("0/0", [])},
                tally.digests(),
            ),
            self.in_process_gate(tally),
        ]
        return tally, gates

    def trace(self, seconds: float):
        """Untraced, traced and inline-shard thirds; returns (tally, layers, gates).

        The traced third runs on a fresh shard forked after the wrappers are
        installed, so the worker times ``host_step`` itself and returns the
        time with the result.  Wrappers around the core layers could not
        report back from the worker, so those come from the inline third,
        which replays the same schedule in this process.
        """
        third = seconds / 3.0

        async def go():
            service = await self._start("untraced")
            try:
                await self._warmup(service)
                untraced = await self._window(service, third, "u")
            finally:
                await service.close()
            with LayerProbe(root="serve.shard_compute") as client_probe:
                install_serve_layers(client_probe)
                install_worker_compute(client_probe)
                service = await self._start("traced")  # fork after patching
                try:
                    traced = await self._window(service, third, "t")
                    retries = sum(h.retries for h in service.sessions.values())
                finally:
                    await service.close()
            inline = self.service(inline=True, tag="inline")
            try:
                with LayerProbe(root="serve.shard_compute") as shard_probe:
                    install_session_layers(shard_probe)
                    install_shard_compute(shard_probe)
                    rerun = await self._window(inline, third, "i")
            finally:
                await inline.close()
            return untraced, traced, rerun, client_probe, shard_probe, retries

        untraced, traced, rerun, client_probe, shard_probe, retries = asyncio.run(go())
        layers = layer_metrics(shard_probe, shard_probe.calls.get("sim.session", 0))
        samples = client_probe.samples
        advance = mean_ms(samples["serve.advance"])
        roundtrip = mean_ms(samples["serve.roundtrip.host_step"])
        worker = samples.get("serve.roundtrip.host_step.worker")
        if worker:
            compute, source = mean_ms(worker), "reported by the worker"
        else:  # a spawned worker runs the unpatched host_step
            calls = max(1, shard_probe.calls.get("serve.shard_compute", 0))
            compute, source = 1000.0 * shard_probe.root_s / calls, "inline rerun"
        queue_wait = advance - roundtrip
        ipc = roundtrip - compute
        layers.update(
            {
                "serve.submit_ms": mean_ms(samples["serve.submit"]),
                "serve.queue_wait_ms": queue_wait,
                "serve.ipc_ms": ipc,
                "serve.shard_compute_ms": compute,
                "serve.evict_ms": mean_ms(samples["serve.evict"]),
                "serve.restore_ms": mean_ms(samples["serve.restore"]),
                "serve.retries": float(retries),
                "serve.rejected": float(traced.rejected),
                "budget.step_ms": advance,
                "budget.unattributed_share": (
                    shard_probe.inner_s.get("sim.session", 0.0) / shard_probe.root_s
                    if shard_probe.root_s
                    else 0.0
                ),
                "trace.overhead_ms": p50_ms(traced.step_s) - p50_ms(untraced.step_s),
            }
        )
        gates = [
            prefix_gate(
                "traced step records equal untraced ones",
                untraced.digests(),
                traced.digests(),
            ),
            prefix_gate(
                "inline-shard step records equal out-of-process ones",
                untraced.digests(),
                rerun.digests(),
            ),
            self.in_process_gate(untraced),
            Gate(
                "queue wait and IPC (advance minus shard compute) are non-negative",
                queue_wait >= 0.0 and (ipc >= 0.0 or not worker),
                f"{advance:.2f} = {queue_wait:.2f} + {ipc:.2f} + {compute:.2f} ms"
                f" (compute {source})",
            ),
        ]
        return traced, layers, gates


def make_workload(name: str, seed: int, work: Path):
    if name == "table1-fast":
        return Table1(seed, work, "fast")
    if name == "table1-default":
        return Table1(seed, work, "default")
    if name == "robust-replay":
        return RobustReplay(seed, work)
    if name == "serve-closed":
        return ServeClosed(seed, work)
    raise ValueError(f"unknown workload {name!r}")

