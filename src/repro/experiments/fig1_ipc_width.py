"""Figure 1: IPC and commit utilisation vs front-end width.

The paper measures four commercial Intel microarchitectures of increasing
width and finds IPC rising roughly linearly while the fraction of commit
bandwidth actually used falls.  We reproduce the trend by sweeping the
baseline core's width over the SPEC 2017 stand-in suite (no speculation:
these are conventional cores)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List

from ..analysis.report import format_table
from ..analysis.speedup import geometric_mean
from ..uarch.config import scaled_core
from . import registry
from .spec import ExperimentSpec, Sweep, Variant

# Width stand-ins for the paper's four Intel generations.
WIDTHS = (4, 6, 8, 10)
WIDTH_NAMES = {4: "4-wide (SKL-like)", 6: "6-wide (ICL-like)",
               8: "8-wide (GLC-like)", 10: "10-wide (LNC-like)"}


@dataclass
class WidthPoint:
    width: int
    name: str
    geomean_ipc: float
    commit_utilization: float


@dataclass
class Fig1Result:
    points: List[WidthPoint]

    def render(self) -> str:
        return format_table(
            ["front-end width", "geomean IPC", "commit utilisation"],
            [
                (p.name, f"{p.geomean_ipc:.2f}", f"{p.commit_utilization:.1%}")
                for p in self.points
            ],
            title="Figure 1: IPC and commit utilisation vs width "
                  "(SPEC 2017 stand-ins, no speculation)",
        )

    @property
    def ipc_increases_with_width(self) -> bool:
        ipcs = [p.geomean_ipc for p in self.points]
        return all(b > a for a, b in zip(ipcs, ipcs[1:]))

    @property
    def utilization_decreases_with_width(self) -> bool:
        utils = [p.commit_utilization for p in self.points]
        return all(b < a for a, b in zip(utils, utils[1:]))


def _derive(sweep: Sweep) -> Fig1Result:
    points = []
    for variant in sweep.spec.variants:
        ipcs: List[float] = []
        utils: List[float] = []
        for suite_name in sweep.spec.suites:
            cell = sweep.cell(suite_name, variant.label)
            commit_width = cell.machine.core.commit_width
            for phases in cell.by_benchmark().values():
                ipcs.append(sum(p.stats.ipc * p.weight for p in phases))
                utils.append(sum(
                    p.stats.commit_utilization(commit_width) * p.weight
                    for p in phases
                ))
        points.append(
            WidthPoint(
                width=variant.params["width"],
                name=variant.label,
                geomean_ipc=geometric_mean(ipcs),
                commit_utilization=sum(utils) / len(utils),
            )
        )
    return Fig1Result(points)


def _json(result: Fig1Result) -> Dict[str, Any]:
    return {
        "points": [
            {
                "width": p.width,
                "name": p.name,
                "geomean_ipc": p.geomean_ipc,
                "commit_utilization": p.commit_utilization,
            }
            for p in result.points
        ]
    }


SPEC = registry.register(ExperimentSpec(
    name="fig1",
    title="Figure 1: IPC and commit utilisation vs front-end width",
    kind="figure",
    suites=("spec2017",),
    variants=tuple(
        Variant(
            label=WIDTH_NAMES[width],
            machine=partial(scaled_core, width),
            paired=False,
            params={"width": width},
        )
        for width in WIDTHS
    ),
    derive=_derive,
    to_json=_json,
    description="Width sweep of the conventional baseline core: IPC "
                "rises with width while commit utilisation falls.",
))
