"""Sweep specifications: scenario x config variants x repeat seeds.

A :class:`SweepSpec` names the full grid of runs an experiment wants --
one or more scenario :class:`Variant`\\ s, each repeated ``n_repeats``
times with deterministically derived seeds -- and expands it into flat
:class:`SweepCell`\\ s that the engine (:mod:`repro.exp.engine`) executes
serially or across a process pool.  Cell seeds come from
:func:`repro.sim.rng.derive_run_seed`, so the expansion itself carries the
bitwise-determinism contract: a cell's result depends only on its
``(scenario, seed)``, never on where or when it runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.config import LocalizerConfig
from repro.core.fusion import FusionRangePolicy
from repro.faults.schedule import FaultSchedule
from repro.sim.rng import derive_run_seed
from repro.sim.scenario import Scenario
from repro.sim.session import SessionSpec


@dataclass(frozen=True)
class Variant:
    """One named configuration of the sweep grid."""

    name: str
    scenario: Scenario
    #: Optional per-variant fusion policy (e.g. Scenario C's auto range).
    fusion_policy: Optional[FusionRangePolicy] = None
    #: Optional recorded-stream path: the variant's cells replay this
    #: ``repro-stream v1`` file instead of simulating measurements.
    stream: Optional[str] = None
    #: Optional per-variant base seed (stream-backed variants default to
    #: their header seed, which reproduces the recorded run bitwise).
    base_seed: Optional[int] = None


@dataclass(frozen=True)
class SweepCell:
    """One concrete run: a variant at one repeat index, as a session spec.

    The engine adds the cell's checkpoint path (named by its coordinates)
    before the spec crosses the process boundary.
    """

    variant_name: str
    variant_index: int
    repeat_index: int
    spec: SessionSpec

    @property
    def seed(self) -> int:
        return self.spec.seed


@dataclass(frozen=True)
class SweepSpec:
    """The declarative description of a repeated-run experiment grid."""

    variants: Tuple[Variant, ...]
    n_repeats: int = 10
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "variants", tuple(self.variants))
        if not self.variants:
            raise ValueError("a sweep needs at least one variant")
        if self.n_repeats < 1:
            raise ValueError(f"n_repeats must be >= 1, got {self.n_repeats}")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ValueError(f"variant names must be unique, got {names}")

    @property
    def n_cells(self) -> int:
        return len(self.variants) * self.n_repeats

    def variant_names(self) -> List[str]:
        return [v.name for v in self.variants]

    def cells(self) -> List[SweepCell]:
        """The flat run grid, variant-major, repeats in index order.

        Every variant's repeat ``r`` uses the same derived seed (the
        paper's protocol: identical noise realizations across compared
        configurations), and the serial loop in
        :func:`repro.sim.runner.run_repeated` derives seeds the same way.
        """
        cells: List[SweepCell] = []
        for vi, variant in enumerate(self.variants):
            base = (
                variant.base_seed
                if variant.base_seed is not None
                else self.base_seed
            )
            for r in range(self.n_repeats):
                cells.append(
                    SweepCell(
                        variant_name=variant.name,
                        variant_index=vi,
                        repeat_index=r,
                        spec=SessionSpec(
                            scenario=variant.scenario,
                            stream_path=variant.stream,
                            seed=derive_run_seed(base, r),
                            fusion_policy=variant.fusion_policy,
                            run_index=r,
                            manifest_name=variant.name,
                        ),
                    )
                )
        return cells

    @classmethod
    def single(
        cls,
        scenario: Scenario,
        n_repeats: int = 10,
        base_seed: int = 0,
        fusion_policy: Optional[FusionRangePolicy] = None,
    ) -> "SweepSpec":
        """The plain repeated-run spec: one scenario, ``n_repeats`` seeds."""
        return cls(
            variants=(Variant(scenario.name, scenario, fusion_policy),),
            n_repeats=n_repeats,
            base_seed=base_seed,
        )

    @classmethod
    def of_scenarios(
        cls,
        scenarios: Sequence[Tuple[str, Scenario]],
        n_repeats: int = 10,
        base_seed: int = 0,
    ) -> "SweepSpec":
        """A spec over several named scenarios (e.g. a parameter sweep)."""
        return cls(
            variants=tuple(Variant(name, scenario) for name, scenario in scenarios),
            n_repeats=n_repeats,
            base_seed=base_seed,
        )

    @classmethod
    def of_streams(
        cls,
        paths: Sequence[str],
        n_repeats: int = 1,
        base_seed: Optional[int] = None,
    ) -> "SweepSpec":
        """A spec whose cells replay recorded stream files.

        One variant per stream, named by its stream id; the scenario is
        rebuilt from each stream's header.  With ``base_seed=None`` (the
        default) every variant seeds from its own header, so repeat 0
        reproduces the recorded run bitwise; pass an explicit base seed
        to re-randomize transport/filter over the canned measurements.
        ``n_repeats`` defaults to 1 because the measurement realization
        is frozen -- repeats only vary the downstream RNG streams.
        """
        from repro.streams.replay import read_header, scenario_from_header

        variants = []
        for path in paths:
            header = read_header(path)
            variants.append(
                Variant(
                    name=header.stream_id,
                    scenario=scenario_from_header(header),
                    stream=str(path),
                    base_seed=(
                        header.seed if base_seed is None else base_seed
                    ),
                )
            )
        return cls(variants=tuple(variants), n_repeats=n_repeats, base_seed=0)

    @classmethod
    def config_grid(
        cls,
        scenario: Scenario,
        configs: Mapping[str, LocalizerConfig],
        n_repeats: int = 10,
        base_seed: int = 0,
    ) -> "SweepSpec":
        """One scenario under several localizer configurations.

        Each variant is the scenario with its ``localizer_config``
        replaced -- the ablation-style axis of the sweep grid.
        """
        variants = tuple(
            Variant(
                name,
                dataclasses.replace(
                    scenario, name=f"{scenario.name}[{name}]", localizer_config=config
                ),
            )
            for name, config in configs.items()
        )
        return cls(variants=variants, n_repeats=n_repeats, base_seed=base_seed)

    @classmethod
    def fault_grid(
        cls,
        scenario: Scenario,
        faults: Mapping[str, Optional[FaultSchedule]],
        n_repeats: int = 10,
        base_seed: int = 0,
    ) -> "SweepSpec":
        """One scenario under several fault schedules -- the robustness axis.

        Each variant is the scenario with its ``faults`` replaced (``None``
        or an empty schedule is the fault-free control).  Repeat ``r`` of
        every variant shares the same derived run seed, so compared
        schedules see identical ground-truth noise and transport
        realizations -- the fault injection is the *only* difference.
        """
        variants = tuple(
            Variant(
                name,
                dataclasses.replace(
                    scenario, name=f"{scenario.name}[{name}]", faults=schedule
                ),
            )
            for name, schedule in faults.items()
        )
        return cls(variants=variants, n_repeats=n_repeats, base_seed=base_seed)
