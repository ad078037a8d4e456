"""Section 6.3: per-loop (region) speedup distribution.

Paper: loop speedups range up to 2.9x, with 6 loops achieving over 2x and
44 loops speeding up by 20% or more; via Amdahl, a 43% geometric-mean
in-region speedup."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..analysis.report import format_table
from ..analysis.speedup import geometric_mean
from . import registry
from .spec import ExperimentSpec, Sweep, Variant


@dataclass
class LoopsReport:
    loop_speedups: Dict[str, float]  # "workload:region" -> speedup

    @property
    def count(self) -> int:
        return len(self.loop_speedups)

    @property
    def max_speedup(self) -> float:
        return max(self.loop_speedups.values(), default=1.0)

    def loops_over(self, threshold: float) -> int:
        return sum(1 for v in self.loop_speedups.values() if v >= threshold)

    @property
    def geomean(self) -> float:
        values = [v for v in self.loop_speedups.values() if v > 0]
        return geometric_mean(values) if values else 1.0

    def render(self) -> str:
        top = sorted(self.loop_speedups.items(), key=lambda kv: -kv[1])[:12]
        table = format_table(
            ["loop (workload:region)", "speedup"],
            [(name, f"{value:.2f}x") for name, value in top],
            title="Section 6.3: fastest parallel loops",
        )
        summary = (
            f"\n{self.count} parallel loops measured; max {self.max_speedup:.2f}x; "
            f"{self.loops_over(2.0)} loops over 2x; "
            f"{self.loops_over(1.2)} loops at +20% or more; "
            f"geomean in-region speedup {100 * (self.geomean - 1):+.0f}%"
        )
        return table + summary


def _derive(sweep: Sweep) -> LoopsReport:
    speedups: Dict[str, float] = {}
    for run in sweep.runs():
        speedups.update(run.region_speedups())
    return LoopsReport(speedups)


def _json(result: LoopsReport) -> Dict[str, Any]:
    return {
        "loop_speedups": dict(sorted(result.loop_speedups.items())),
        "count": result.count,
        "max_speedup": result.max_speedup,
        "over_2x": result.loops_over(2.0),
        "over_20_percent": result.loops_over(1.2),
        "geomean": result.geomean,
    }


SPEC = registry.register(ExperimentSpec(
    name="loops",
    title="Section 6.3: per-loop speedup distribution",
    kind="report",
    suites=("spec2017", "spec2006"),
    # Deselection snaps unprofitable loops to baseline and would hide the
    # tail of the distribution.
    variants=(Variant("default", dynamic_deselection=False),),
    derive=_derive,
    to_json=_json,
    description="Region-level speedups across both suites: count, max, "
                "loops over 2x / +20%, geomean in-region speedup.",
))
