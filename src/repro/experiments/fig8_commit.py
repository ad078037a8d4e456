"""Figure 8: instructions committed per cycle by the architectural and
speculative threadlets (plus failed speculation), normalised to the
baseline IPC.

Paper: the architectural threadlet loses ~6% on average to resource
sharing; successful speculation recoups that and adds the 9.5% speedup;
an additional ~31% of committed-then-squashed instructions ride along,
two thirds of it from five benchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..analysis.report import format_table
from . import metrics as exp_metrics
from . import registry
from .spec import ExperimentSpec, Sweep, Variant


@dataclass
class CommitRow:
    name: str
    arch_ratio: float    # arch commit IPC / baseline IPC
    spec_ratio: float    # successful speculative commits / baseline IPC
    failed_ratio: float  # failed speculative commits / baseline IPC

    @property
    def useful_ratio(self) -> float:
        return self.arch_ratio + self.spec_ratio


@dataclass
class Fig8Result:
    rows: List[CommitRow]

    @property
    def mean_arch_ratio(self) -> float:
        return exp_metrics.mean(r.arch_ratio for r in self.rows)

    @property
    def mean_failed_ratio(self) -> float:
        return exp_metrics.mean(r.failed_ratio for r in self.rows)

    @property
    def mean_useful_ratio(self) -> float:
        return exp_metrics.mean(r.useful_ratio for r in self.rows)

    def render(self) -> str:
        table = format_table(
            ["benchmark", "architectural", "+speculative", "+failed"],
            [
                (r.name, f"{r.arch_ratio:.2f}",
                 f"{r.useful_ratio:.2f}",
                 f"{r.useful_ratio + r.failed_ratio:.2f}")
                for r in self.rows
            ],
            title="Figure 8: committed IPC relative to baseline "
                  "(cumulative: arch, +spec, +failed)",
        )
        summary = (
            f"mean architectural ratio {self.mean_arch_ratio:.2f} "
            f"(paper: ~0.94), mean useful {self.mean_useful_ratio:.2f}, "
            f"mean failed overhead {self.mean_failed_ratio:.2f} (paper: ~0.31)"
        )
        return table + "\n" + summary


def _derive(sweep: Sweep) -> Fig8Result:
    rows = []
    for run in sweep.runs():
        base = run.phases[0].baseline
        frog = run.phases[0].loopfrog
        base_ipc = base.arch_instructions / base.cycles
        rows.append(
            CommitRow(
                name=run.name,
                arch_ratio=(frog.arch_instructions / frog.cycles) / base_ipc,
                spec_ratio=(frog.spec_committed_instructions / frog.cycles)
                / base_ipc,
                failed_ratio=(frog.failed_spec_instructions / frog.cycles)
                / base_ipc,
            )
        )
    return Fig8Result(rows)


def _json(result: Fig8Result) -> Dict[str, Any]:
    return {
        "rows": sorted(
            (
                {
                    "name": r.name,
                    "arch_ratio": r.arch_ratio,
                    "spec_ratio": r.spec_ratio,
                    "failed_ratio": r.failed_ratio,
                }
                for r in result.rows
            ),
            key=lambda r: r["name"],
        ),
        "mean_arch_ratio": result.mean_arch_ratio,
        "mean_useful_ratio": result.mean_useful_ratio,
        "mean_failed_ratio": result.mean_failed_ratio,
    }


SPEC = registry.register(ExperimentSpec(
    name="fig8",
    title="Figure 8: committed IPC relative to baseline",
    kind="figure",
    suites=("spec2017",),
    # Deselection would snap unprofitable benchmarks back to their
    # baseline cycle counts and hide the failed-speculation overhead this
    # figure exists to show.
    variants=(Variant("default", dynamic_deselection=False),),
    derive=_derive,
    to_json=_json,
    description="Commit-bandwidth decomposition: architectural vs "
                "successful-speculative vs squashed instructions.",
))
