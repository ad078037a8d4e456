"""Figure 6: whole-program speedups across SPEC CPU 2006 and 2017.

Paper headline: geometric means of 9.2% (2006) and 9.5% (2017); 34/47
benchmarks accelerated by >1%, including 13/20 in 2017; top gainers
imagick 87%, omnetpp 54%, nab 15%, gcc 12%, xalancbmk 11%."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..analysis.report import format_bars
from ..uarch.config import MachineConfig
from . import metrics as exp_metrics
from . import registry
from .runner import BenchmarkRun
from .spec import ExperimentSpec, Sweep, configured_variant, run_rows


@dataclass
class Fig6Result:
    runs_2006: List[BenchmarkRun]
    runs_2017: List[BenchmarkRun]

    # A subset run (``--only``) may select no benchmark of a suite; its
    # geomean is then undefined (None) and its block is not rendered.
    @property
    def geomean_2006_percent(self) -> Optional[float]:
        return _geomean_or_none(self.runs_2006)

    @property
    def geomean_2017_percent(self) -> Optional[float]:
        return _geomean_or_none(self.runs_2017)

    def profitable(self, threshold_percent: float = 1.0) -> List[BenchmarkRun]:
        return exp_metrics.profitable(
            self.runs_2006 + self.runs_2017, threshold_percent
        )

    def speedup_of(self, name: str) -> float:
        return exp_metrics.speedup_of(self.runs_2006 + self.runs_2017, name)

    def render(self) -> str:
        parts = []
        for label, runs, geomean in (
            ("SPEC CPU 2017", self.runs_2017, self.geomean_2017_percent),
            ("SPEC CPU 2006", self.runs_2006, self.geomean_2006_percent),
        ):
            if geomean is None:
                continue
            items = [
                (r.name, r.speedup_percent)
                for r in sorted(runs, key=lambda x: -x.speedup)
            ]
            parts.append(
                format_bars(
                    items,
                    title=f"Figure 6: whole-program speedup, {label} "
                          f"(geomean {geomean:+.1f}%)",
                )
            )
        total = len(self.runs_2006) + len(self.runs_2017)
        parts.append(
            f"accelerated >1%: {len(self.profitable())} of {total} benchmarks"
        )
        return "\n\n".join(parts)


def _geomean_or_none(runs: List[BenchmarkRun]) -> Optional[float]:
    return exp_metrics.geomean_percent(runs) if runs else None


def _derive(sweep: Sweep) -> Fig6Result:
    return Fig6Result(
        runs_2006=sweep.runs("spec2006"),
        runs_2017=sweep.runs("spec2017"),
    )


def _json(result: Fig6Result) -> Dict[str, Any]:
    return {
        "geomean_2006_percent": result.geomean_2006_percent,
        "geomean_2017_percent": result.geomean_2017_percent,
        "profitable": len(result.profitable()),
        "benchmarks": run_rows(result.runs_2006 + result.runs_2017),
    }


SPEC = registry.register(ExperimentSpec(
    name="fig6",
    title="Figure 6: whole-program speedups, SPEC CPU 2006 and 2017",
    kind="figure",
    suites=("spec2006", "spec2017"),
    derive=_derive,
    to_json=_json,
    description="The paper's headline result: per-benchmark and geomean "
                "speedup of LoopFrog over the hints-as-nops baseline.",
))


def run_fig6(
    machine: Optional[MachineConfig] = None,
    baseline: Optional[MachineConfig] = None,
) -> Fig6Result:
    return registry.run_experiment(
        "fig6", variants=(configured_variant(machine, baseline),)
    ).result
