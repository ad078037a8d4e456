"""Figure 9: sensitivity of speedups to SSB size (default 8 KiB total).

Paper: 32 KiB gains <0.1 pp over 8 KiB, 2 KiB loses only 0.4 pp, and even
512 B still gains 6.2% — size acts almost binarily per loop (fits or
doesn't)."""

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

SIZES = (512, 2048, 8192, 32768)


@dataclass
class Fig9Result:
    points: List[Tuple[int, float]]  # (ssb bytes, geomean speedup %)

    def speedup_at(self, size: int) -> float:
        for s, v in self.points:
            if s == size:
                return v
        raise KeyError(size)

    def render(self) -> str:
        return format_series(
            "SSB size", "geomean speedup %",
            [(f"{s // 1024} KiB" if s >= 1024 else f"{s} B", v)
             for s, v in self.points],
            title="Figure 9: sensitivity to SSB size (SPEC 2017 stand-ins)",
        )


def machine_with_ssb_size(size_bytes: int) -> MachineConfig:
    machine = default_machine()
    machine.loopfrog = dataclasses.replace(
        machine.loopfrog, ssb_total_bytes=size_bytes
    )
    return machine


def _derive(sweep: Sweep) -> Fig9Result:
    points = []
    for variant in sweep.spec.variants:
        runs = sweep.runs(variant=variant.label)
        points.append(
            (variant.params["size"], exp_metrics.geomean_percent(runs))
        )
    return Fig9Result(points)


def _json(result: Fig9Result) -> Dict[str, Any]:
    return {
        "points": [
            {"ssb_bytes": s, "geomean_percent": v} for s, v in result.points
        ]
    }


SPEC = registry.register(ExperimentSpec(
    name="fig9",
    title="Figure 9: sensitivity to SSB size",
    kind="figure",
    suites=("spec2017",),
    variants=tuple(
        Variant(
            label=f"ssb-{size}",
            machine=partial(machine_with_ssb_size, size),
            params={"size": size},
        )
        for size in SIZES
    ),
    derive=_derive,
    to_json=_json,
    description="Geomean speedup as the store speculation buffer shrinks "
                "from 32 KiB to 512 B.",
))
