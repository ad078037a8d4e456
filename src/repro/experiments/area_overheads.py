"""Section 6.8: area and power overheads.

Combines the analytic area model (SSB + conflict detector + SMT support)
with dynamic overhead statistics measured on the suite: issued-instruction
increase (paper: +14%), L2 access increase (+1.7%) and L2 miss change
(-2.3%)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..analysis.area import (
    AreaReport,
    area_report,
    pollack_expected_speedup_percent,
)
from ..analysis.report import format_table
from . import registry
from .spec import ExperimentSpec, Sweep, Variant


@dataclass
class OverheadResult:
    area: AreaReport
    issued_increase_percent: float
    l2_access_increase_percent: float
    l2_miss_change_percent: float
    pollack_low: float
    pollack_high: float

    def render(self) -> str:
        rows = [
            ("SSB granule cache", f"{self.area.ssb_mm2:.3f} mm^2"),
            ("conflict detector", f"{self.area.conflict_mm2:.3f} mm^2"),
            ("new structures vs N1 core",
             f"{self.area.new_structures_percent:.1f}%"),
            ("total overhead (with SMT support)",
             f"{self.area.total_overhead_percent_low:.0f}-"
             f"{self.area.total_overhead_percent_high:.0f}%"),
            ("overhead if SMT already exists",
             f"~{self.area.overhead_if_smt_exists_percent:.0f}%"),
            ("issued instructions", f"{self.issued_increase_percent:+.1f}%"),
            ("L2 accesses", f"{self.l2_access_increase_percent:+.1f}%"),
            ("L2 misses", f"{self.l2_miss_change_percent:+.1f}%"),
            ("Pollack-rule expectation for that area",
             f"{self.pollack_low:.1f}-{self.pollack_high:.1f}%"),
        ]
        return format_table(
            ["quantity", "value"], rows,
            title="Section 6.8: area and power overheads",
        )


def _derive(sweep: Sweep) -> OverheadResult:
    (suite_name,) = sweep.spec.suites
    (variant,) = sweep.spec.variants
    cell = sweep.cell(suite_name, variant.label)

    base_issued = frog_issued = 0
    base_l2 = frog_l2 = 0
    base_l2m = frog_l2m = 0
    for run in cell.runs:
        for phase in run.phases:
            base_issued += phase.baseline.issued_instructions
            frog_issued += phase.loopfrog.issued_instructions
            base_l2 += phase.baseline.l2_accesses
            frog_l2 += phase.loopfrog.l2_accesses
            base_l2m += phase.baseline.l2_misses
            frog_l2m += phase.loopfrog.l2_misses

    report = area_report(cell.machine.loopfrog)
    return OverheadResult(
        area=report,
        issued_increase_percent=100.0 * (frog_issued / base_issued - 1.0),
        l2_access_increase_percent=100.0 * (frog_l2 / base_l2 - 1.0),
        l2_miss_change_percent=100.0 * (frog_l2m / max(1, base_l2m) - 1.0),
        pollack_low=pollack_expected_speedup_percent(
            report.total_overhead_percent_low
        ),
        pollack_high=pollack_expected_speedup_percent(
            report.total_overhead_percent_high
        ),
    )


def _json(result: OverheadResult) -> Dict[str, Any]:
    return {
        "ssb_mm2": result.area.ssb_mm2,
        "conflict_mm2": result.area.conflict_mm2,
        "new_structures_percent": result.area.new_structures_percent,
        "total_overhead_percent_low": result.area.total_overhead_percent_low,
        "total_overhead_percent_high":
            result.area.total_overhead_percent_high,
        "overhead_if_smt_exists_percent":
            result.area.overhead_if_smt_exists_percent,
        "issued_increase_percent": result.issued_increase_percent,
        "l2_access_increase_percent": result.l2_access_increase_percent,
        "l2_miss_change_percent": result.l2_miss_change_percent,
        "pollack_low": result.pollack_low,
        "pollack_high": result.pollack_high,
    }


SPEC = registry.register(ExperimentSpec(
    name="area",
    title="Section 6.8: area and power overheads",
    kind="report",
    suites=("spec2017",),
    # Deselection would mask the issue/L2 overheads on unprofitable
    # benchmarks, which are exactly what this section measures.
    variants=(Variant("default", dynamic_deselection=False),),
    derive=_derive,
    to_json=_json,
    description="Analytic area model plus measured issued-instruction and "
                "L2 traffic overheads.",
))
