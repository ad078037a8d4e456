"""Table 2: sources of performance gains.

The paper attributes each profitable loop's whole gain to a dominant
category: memory parallelism (17 loops / 29%), control dependencies
(9 / 23%), dependency chains (2 / 12%), branch-condition prefetching
(6 / 32%) and data-value prefetching (4 / 3%)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..analysis.categorize import (
    CategoryShare,
    categorize_runs,
    phase_classifications,
)
from ..analysis.report import format_table
from ..workloads.base import ALL_CATEGORIES
from . import metrics as exp_metrics
from . import registry
from .spec import ExperimentSpec, Sweep

_CATEGORY_TITLES = {
    "memory_parallelism": ("True parallelism", "Memory parallelism"),
    "control_dependencies": ("True parallelism", "Control dependencies"),
    "dependency_chains": ("True parallelism", "Dependency chains"),
    "branch_condition_prefetch": ("Prefetching", "Branch conditions"),
    "data_value_prefetch": ("Prefetching", "Data values"),
}


@dataclass
class Table2Result:
    shares: List[CategoryShare]
    classified: Dict[str, str]  # benchmark -> category
    expected: Dict[str, str]    # benchmark -> suite-declared category

    def loops_in(self, category: str) -> int:
        for share in self.shares:
            if share.category == category:
                return share.loops
        raise KeyError(category)

    def fraction_of(self, category: str) -> float:
        for share in self.shares:
            if share.category == category:
                return share.speedup_fraction
        raise KeyError(category)

    @property
    def classification_agreement(self) -> float:
        """Fraction of profitable benchmarks whose heuristic classification
        matches the behaviour the kernel was engineered to show."""
        keys = [k for k in self.classified if k in self.expected]
        if not keys:
            return 0.0
        hits = sum(1 for k in keys if self.classified[k] == self.expected[k])
        return hits / len(keys)

    def render(self) -> str:
        rows = []
        for share in self.shares:
            group, sub = _CATEGORY_TITLES[share.category]
            rows.append(
                (group, sub, share.loops, f"{share.speedup_fraction:.0%}")
            )
        return format_table(
            ["Category", "Sub-category", "Loops", "Fraction of speedup"],
            rows,
            title="Table 2: sources of performance gains",
        )


def _derive(sweep: Sweep) -> Table2Result:
    runs = sweep.runs()
    profitable = exp_metrics.profitable(runs)
    shares = categorize_runs(profitable)
    classified = phase_classifications(profitable)
    expected: Dict[str, str] = {}
    for run in profitable:
        for workload, _ in run.benchmark.phases:
            if workload.category in ALL_CATEGORIES:
                expected[workload.name] = workload.category
    return Table2Result(shares, classified, expected)


def _json(result: Table2Result) -> Dict[str, Any]:
    return {
        "shares": [
            {
                "category": s.category,
                "loops": s.loops,
                "speedup_fraction": s.speedup_fraction,
            }
            for s in result.shares
        ],
        "classified": dict(sorted(result.classified.items())),
        "classification_agreement": result.classification_agreement,
    }


SPEC = registry.register(ExperimentSpec(
    name="table2",
    title="Table 2: sources of performance gains",
    kind="table",
    suites=("spec2017", "spec2006"),
    derive=_derive,
    to_json=_json,
    description="Attributes each profitable benchmark's gain to a dominant "
                "mechanism (parallelism vs prefetching sub-categories).",
))
