"""Figure 7: threadlet utilisation over the benchmarks' lifetimes.

Paper: >= 2 threadlets active 42% of the time on the 13 profitable 2017
benchmarks (29% over all), all four active 23% (16% overall); via
Amdahl's law, a 43% geometric-mean in-region speedup."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..analysis.report import format_table
from ..analysis.speedup import geometric_mean
from . import metrics as exp_metrics
from . import registry
from .runner import BenchmarkRun
from .spec import ExperimentSpec, Sweep


@dataclass
class UtilizationRow:
    name: str
    at_least_2: float  # fraction of cycles
    at_least_3: float
    all_4: float


@dataclass
class Fig7Result:
    rows: List[UtilizationRow]
    profitable_names: List[str]

    def _mean(self, names, attr) -> float:
        return exp_metrics.mean(
            getattr(r, attr) for r in self.rows if r.name in names
        )

    @property
    def profitable_at_least_2(self) -> float:
        return self._mean(self.profitable_names, "at_least_2")

    @property
    def overall_at_least_2(self) -> float:
        return self._mean([r.name for r in self.rows], "at_least_2")

    @property
    def profitable_all_4(self) -> float:
        return self._mean(self.profitable_names, "all_4")

    @property
    def overall_all_4(self) -> float:
        return self._mean([r.name for r in self.rows], "all_4")

    def render(self) -> str:
        table = format_table(
            ["benchmark", ">=2 active", ">=3 active", "4 active"],
            [
                (r.name, f"{r.at_least_2:.0%}", f"{r.at_least_3:.0%}",
                 f"{r.all_4:.0%}")
                for r in self.rows
            ],
            title="Figure 7: speculative threadlet utilisation over time",
        )
        summary = (
            f"profitable benchmarks: >=2 active {self.profitable_at_least_2:.0%} "
            f"of cycles, all 4 active {self.profitable_all_4:.0%}\n"
            f"all benchmarks:        >=2 active {self.overall_at_least_2:.0%} "
            f"of cycles, all 4 active {self.overall_all_4:.0%}"
        )
        return table + "\n" + summary


def _derive(sweep: Sweep) -> Fig7Result:
    runs = sweep.runs()
    rows = []
    for run in runs:
        stats = run.phases[0].loopfrog
        rows.append(
            UtilizationRow(
                name=run.name,
                at_least_2=stats.threadlet_utilization(2),
                at_least_3=stats.threadlet_utilization(3),
                all_4=stats.threadlet_utilization(4),
            )
        )
    return Fig7Result(rows, exp_metrics.profitable_names(runs))


def _json(result: Fig7Result) -> Dict[str, Any]:
    return {
        "rows": sorted(
            (
                {
                    "name": r.name,
                    "at_least_2": r.at_least_2,
                    "at_least_3": r.at_least_3,
                    "all_4": r.all_4,
                }
                for r in result.rows
            ),
            key=lambda r: r["name"],
        ),
        "profitable": sorted(result.profitable_names),
        "profitable_at_least_2": result.profitable_at_least_2,
        "overall_at_least_2": result.overall_at_least_2,
        "profitable_all_4": result.profitable_all_4,
        "overall_all_4": result.overall_all_4,
    }


SPEC = registry.register(ExperimentSpec(
    name="fig7",
    title="Figure 7: speculative threadlet utilisation over time",
    kind="figure",
    suites=("spec2017",),
    derive=_derive,
    to_json=_json,
    description="How often >=2/>=3/4 threadlet contexts are active, on "
                "profitable benchmarks vs overall.",
))


def in_region_geomean_speedup(runs: List[BenchmarkRun]) -> float:
    """The paper's section-6.3 in-region speedup via per-loop cycles."""
    values = []
    for run in runs:
        for label, value in run.region_speedups().items():
            if value > 0:
                values.append(value)
    return geometric_mean(values) if values else 1.0
