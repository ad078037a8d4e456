"""Design-choice ablations beyond the paper's own sweeps.

Two knobs DESIGN.md calls out:

* **Threadlet count** — the paper evaluates 4 contexts; sweeping 1/2/4/8
  shows where the returns diminish (the SSB is resized proportionally so
  each slice keeps the table-1 2-KiB capacity).
* **Conflict-set implementation** — the paper idealises Bloom filters
  (no false positives modelled, section 6.1) and argues false aliasing is
  a second-order effect; comparing exact sets against real Bloom filters
  checks that claim in-model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Tuple

from ..analysis.report import format_series, format_table
from ..uarch.config import MachineConfig, default_machine
from . import metrics as exp_metrics
from . import registry
from .spec import ExperimentSpec, Sweep, Variant

CONTEXTS = (2, 4, 8)


@dataclass
class ThreadletSweepResult:
    points: List[Tuple[int, float]]  # (contexts, geomean speedup %)

    def speedup_at(self, contexts: int) -> float:
        for n, v in self.points:
            if n == contexts:
                return v
        raise KeyError(contexts)

    def render(self) -> str:
        return format_series(
            "threadlet contexts", "geomean speedup %",
            [(str(n), v) for n, v in self.points],
            title="Ablation: threadlet count (SSB scaled to 2 KiB/slice)",
        )


def machine_with_threadlets(contexts: int) -> MachineConfig:
    machine = default_machine()
    machine.loopfrog = dataclasses.replace(
        machine.loopfrog,
        num_threadlets=contexts,
        ssb_total_bytes=2048 * contexts,
    )
    return machine


def _derive_threadlets(sweep: Sweep) -> ThreadletSweepResult:
    points = []
    for variant in sweep.spec.variants:
        runs = sweep.runs(variant=variant.label)
        points.append(
            (variant.params["contexts"], exp_metrics.geomean_percent(runs))
        )
    return ThreadletSweepResult(points)


def _json_threadlets(result: ThreadletSweepResult) -> Dict[str, Any]:
    return {
        "points": [
            {"contexts": n, "geomean_percent": v} for n, v in result.points
        ]
    }


THREADLET_SPEC = registry.register(ExperimentSpec(
    name="threadlets",
    title="Ablation: threadlet count",
    kind="ablation",
    suites=("spec2017",),
    variants=tuple(
        Variant(
            label=f"{n}-contexts",
            machine=partial(machine_with_threadlets, n),
            params={"contexts": n},
        )
        for n in CONTEXTS
    ),
    derive=_derive_threadlets,
    to_json=_json_threadlets,
    description="Geomean speedup at 2/4/8 threadlet contexts with the SSB "
                "scaled to keep 2 KiB per slice.",
))


@dataclass
class BloomAblationResult:
    exact_percent: float
    bloom_percent: float

    @property
    def delta_pp(self) -> float:
        return self.exact_percent - self.bloom_percent

    def render(self) -> str:
        return format_table(
            ["conflict sets", "geomean speedup %"],
            [("exact (idealised, as in the paper)", f"{self.exact_percent:+.1f}"),
             ("4096-bit Bloom filters", f"{self.bloom_percent:+.1f}")],
            title="Ablation: conflict-detector set implementation",
        )


def machine_with_bloom() -> MachineConfig:
    machine = default_machine()
    machine.loopfrog = dataclasses.replace(
        machine.loopfrog, use_bloom_filters=True
    )
    return machine


def _derive_bloom(sweep: Sweep) -> BloomAblationResult:
    return BloomAblationResult(
        exact_percent=exp_metrics.geomean_percent(sweep.runs(variant="exact")),
        bloom_percent=exp_metrics.geomean_percent(sweep.runs(variant="bloom")),
    )


def _json_bloom(result: BloomAblationResult) -> Dict[str, Any]:
    return {
        "exact_percent": result.exact_percent,
        "bloom_percent": result.bloom_percent,
        "delta_pp": result.delta_pp,
    }


BLOOM_SPEC = registry.register(ExperimentSpec(
    name="bloom",
    title="Ablation: conflict-detector set implementation",
    kind="ablation",
    suites=("spec2017",),
    variants=(
        Variant(label="exact"),
        Variant(label="bloom", machine=machine_with_bloom),
    ),
    derive=_derive_bloom,
    to_json=_json_bloom,
    description="Idealised exact conflict sets vs 4096-bit Bloom filters "
                "with real false positives.",
))
