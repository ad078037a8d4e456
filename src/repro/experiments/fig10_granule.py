"""Figure 10: sensitivity to SSB/conflict-detector granule size.

Paper: 1-4 B granules are equivalent; 8 B only slows x264 (~5%); 16 B and
32 B introduce enough false sharing to drop the geomean to 6.5% and ~6%.
Sub-granule stores read-modify-write the whole granule, adding the false
read that causes those conflicts (section 4.1.1)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Tuple

from ..analysis.report import format_series
from ..uarch.config import MachineConfig, default_machine
from . import metrics as exp_metrics
from . import registry
from .spec import ExperimentSpec, Sweep, Variant

GRANULES = (1, 2, 4, 8, 16, 32)


@dataclass
class Fig10Result:
    points: List[Tuple[int, float]]               # (granule, geomean %)
    per_benchmark: Dict[int, Dict[str, float]]    # granule -> name -> %

    def speedup_at(self, granule: int) -> float:
        for g, v in self.points:
            if g == granule:
                return v
        raise KeyError(granule)

    def benchmark_at(self, granule: int, name: str) -> float:
        return self.per_benchmark[granule][name]

    def render(self) -> str:
        body = format_series(
            "granule", "geomean speedup %",
            [(f"{g} B", v) for g, v in self.points],
            title="Figure 10: sensitivity to conflict granule size "
                  "(SPEC 2017 stand-ins)",
        )
        if 4 in self.per_benchmark and 8 in self.per_benchmark:
            x264_4 = self.per_benchmark[4].get("x264")
            x264_8 = self.per_benchmark[8].get("x264")
            if x264_4 is not None and x264_8 is not None:
                body += (
                    f"\nx264 at 4 B: {x264_4:+.1f}%  at 8 B: {x264_8:+.1f}% "
                    "(the paper's one 8-B casualty)"
                )
        return body


def machine_with_granule(granule_bytes: int) -> MachineConfig:
    machine = default_machine()
    machine.loopfrog = dataclasses.replace(
        machine.loopfrog, granule_bytes=granule_bytes
    )
    return machine


def _derive(sweep: Sweep) -> Fig10Result:
    points = []
    per_benchmark: Dict[int, Dict[str, float]] = {}
    for variant in sweep.spec.variants:
        granule = variant.params["granule"]
        runs = sweep.runs(variant=variant.label)
        points.append((granule, exp_metrics.geomean_percent(runs)))
        per_benchmark[granule] = {r.name: r.speedup_percent for r in runs}
    return Fig10Result(points, per_benchmark)


def _json(result: Fig10Result) -> Dict[str, Any]:
    return {
        "points": [
            {"granule_bytes": g, "geomean_percent": v}
            for g, v in result.points
        ],
        "per_benchmark": {
            str(g): dict(sorted(by_name.items()))
            for g, by_name in sorted(result.per_benchmark.items())
        },
    }


SPEC = registry.register(ExperimentSpec(
    name="fig10",
    title="Figure 10: sensitivity to conflict granule size",
    kind="figure",
    suites=("spec2017",),
    variants=tuple(
        Variant(
            label=f"granule-{granule}",
            machine=partial(machine_with_granule, granule),
            params={"granule": granule},
        )
        for granule in GRANULES
    ),
    derive=_derive,
    to_json=_json,
    description="Geomean speedup as the conflict-detection granule grows "
                "from 1 B to 32 B (false sharing from RMW granules).",
))
