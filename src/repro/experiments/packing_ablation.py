"""Section 6.5: iteration packing ablation.

Paper: packing affects 5 of the 13 profitable 2017 benchmarks and adds
0.9 pp of geomean speedup (9.5% with vs 8.6% without); the mean packing
factor is ~2.1x with a maximum of 25x."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List

from ..analysis.report import format_table
from ..uarch.config import MachineConfig, default_machine
from . import metrics as exp_metrics
from . import registry
from .spec import ExperimentSpec, Sweep, Variant


@dataclass
class PackingResult:
    geomean_with_percent: float
    geomean_without_percent: float
    affected: List[str]                 # benchmarks whose speedup changed
    mean_packing_factor: float
    max_packing_factor: int
    per_benchmark: Dict[str, Dict[str, float]]

    @property
    def delta_pp(self) -> float:
        return self.geomean_with_percent - self.geomean_without_percent

    def render(self) -> str:
        rows = [
            (name, f"{v['with']:+.1f}%", f"{v['without']:+.1f}%")
            for name, v in self.per_benchmark.items()
        ]
        table = format_table(
            ["benchmark", "with packing", "without packing"],
            rows,
            title="Section 6.5: iteration-packing ablation (SPEC 2017)",
        )
        summary = (
            f"geomean with packing {self.geomean_with_percent:+.1f}% vs "
            f"without {self.geomean_without_percent:+.1f}% "
            f"(delta {self.delta_pp:+.1f} pp); "
            f"mean factor {self.mean_packing_factor:.1f}x, "
            f"max {self.max_packing_factor}x; "
            f"affected: {', '.join(self.affected) or 'none'}"
        )
        return table + "\n" + summary


def machine_without_packing() -> MachineConfig:
    machine = default_machine()
    machine.loopfrog = dataclasses.replace(
        machine.loopfrog, packing_enabled=False
    )
    return machine


def _derive(sweep: Sweep) -> PackingResult:
    runs_with = sweep.runs(variant="with packing")
    runs_without = sweep.runs(variant="without packing")

    per_benchmark: Dict[str, Dict[str, float]] = {}
    affected = []
    factors = []
    max_factor = 1
    for with_run, without_run in zip(runs_with, runs_without):
        per_benchmark[with_run.name] = {
            "with": with_run.speedup_percent,
            "without": without_run.speedup_percent,
        }
        if abs(with_run.speedup_percent - without_run.speedup_percent) > 0.5:
            affected.append(with_run.name)
        for phase in with_run.phases:
            stats = phase.loopfrog
            if stats.packing_events:
                factors.append(stats.mean_packing_factor)
                max_factor = max(max_factor, stats.max_packing_factor)

    mean_factor = sum(factors) / len(factors) if factors else 1.0
    return PackingResult(
        geomean_with_percent=exp_metrics.geomean_percent(runs_with),
        geomean_without_percent=exp_metrics.geomean_percent(runs_without),
        affected=affected,
        mean_packing_factor=mean_factor,
        max_packing_factor=max_factor,
        per_benchmark=per_benchmark,
    )


def _json(result: PackingResult) -> Dict[str, Any]:
    return {
        "geomean_with_percent": result.geomean_with_percent,
        "geomean_without_percent": result.geomean_without_percent,
        "delta_pp": result.delta_pp,
        "affected": sorted(result.affected),
        "mean_packing_factor": result.mean_packing_factor,
        "max_packing_factor": result.max_packing_factor,
        "per_benchmark": dict(sorted(result.per_benchmark.items())),
    }


SPEC = registry.register(ExperimentSpec(
    name="packing",
    title="Section 6.5: iteration-packing ablation",
    kind="ablation",
    suites=("spec2017",),
    variants=(
        Variant(label="with packing"),
        Variant(label="without packing", machine=machine_without_packing),
    ),
    derive=_derive,
    to_json=_json,
    description="Speedup with and without packing short iterations into "
                "one threadlet activation.",
))
