"""Section 6.6 (second half): SSB associativity and the victim buffer.

Paper: limiting slice associativity to 4/8 ways costs 2.0%/1.4% vs the
headline; adding a small shared victim buffer (8 entries) reduces both to
1.2%, with omnetpp and imagick the main victims."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Tuple

from ..analysis.report import format_table
from ..uarch.config import MachineConfig, default_machine
from . import metrics as exp_metrics
from . import registry
from .spec import ExperimentSpec, Sweep, Variant

# (label, associativity, victim entries); 0 ways = fully associative.
CONFIGURATIONS: List[Tuple[str, int, int]] = [
    ("full (headline)", 0, 0),
    ("4-way", 4, 0),
    ("8-way", 8, 0),
    ("4-way + 8-entry victim", 4, 8),
    ("8-way + 8-entry victim", 8, 8),
]


@dataclass
class AssocPoint:
    label: str
    associativity: int       # 0 = fully associative (not modelled)
    victim_entries: int
    geomean_percent: float
    per_benchmark: Dict[str, float]


@dataclass
class AssocResult:
    points: List[AssocPoint]

    def geomean(self, label: str) -> float:
        for p in self.points:
            if p.label == label:
                return p.geomean_percent
        raise KeyError(label)

    def benchmark(self, label: str, name: str) -> float:
        for p in self.points:
            if p.label == label:
                return p.per_benchmark[name]
        raise KeyError(label)

    def worst_hit(self, label: str) -> str:
        """The benchmark losing the most speedup vs the headline config."""
        base = next(p for p in self.points if p.associativity == 0)
        point = next(p for p in self.points if p.label == label)
        return max(
            base.per_benchmark,
            key=lambda n: base.per_benchmark[n] - point.per_benchmark[n],
        )

    def render(self) -> str:
        body = format_table(
            ["configuration", "geomean speedup %"],
            [(p.label, f"{p.geomean_percent:+.1f}") for p in self.points],
            title="Section 6.6: SSB associativity sensitivity (SPEC 2017)",
        )
        victim = self.worst_hit("4-way")
        full = self.benchmark("full (headline)", victim)
        limited = self.benchmark("4-way", victim)
        recovered = self.benchmark("4-way + 8-entry victim", victim)
        body += (
            f"\nworst hit at 4-way: {victim} ({full:+.1f}% -> {limited:+.1f}%,"
            f" victim buffer recovers to {recovered:+.1f}%)"
        )
        return body


def machine_with_assoc(assoc: int, victim: int = 0) -> MachineConfig:
    machine = default_machine()
    machine.loopfrog = dataclasses.replace(
        machine.loopfrog,
        ssb_associativity=assoc,
        ssb_victim_entries=victim,
    )
    return machine


def _derive(sweep: Sweep) -> AssocResult:
    points = []
    for variant in sweep.spec.variants:
        runs = sweep.runs(variant=variant.label)
        points.append(
            AssocPoint(
                variant.label,
                variant.params["assoc"],
                variant.params["victim"],
                exp_metrics.geomean_percent(runs),
                {r.name: r.speedup_percent for r in runs},
            )
        )
    return AssocResult(points)


def _json(result: AssocResult) -> Dict[str, Any]:
    return {
        "points": [
            {
                "label": p.label,
                "associativity": p.associativity,
                "victim_entries": p.victim_entries,
                "geomean_percent": p.geomean_percent,
                "per_benchmark": dict(sorted(p.per_benchmark.items())),
            }
            for p in result.points
        ]
    }


SPEC = registry.register(ExperimentSpec(
    name="assoc",
    title="Section 6.6: SSB associativity sensitivity",
    kind="ablation",
    suites=("spec2017",),
    variants=tuple(
        Variant(
            label=label,
            machine=partial(machine_with_assoc, assoc, victim),
            params={"assoc": assoc, "victim": victim},
        )
        for label, assoc, victim in CONFIGURATIONS
    ),
    derive=_derive,
    to_json=_json,
    description="Limited SSB associativity (4/8 ways) with and without a "
                "small shared victim buffer vs the fully associative "
                "headline.",
))
