"""Table 3: LoopFrog vs classic TLS/SpMT schemes.

The paper compares against STAMPede (4 cores, private-cache TLS, 2005) and
Multiscalar (8 processing units, 1995), noting the numbers are not
like-for-like: every scheme runs on a wildly different baseline.  We run
our epoch-granularity models of both schemes on the same task traces the
LoopFrog binary produces, and report each scheme's speedup over *its own*
baseline, alongside the static rows (cores, area, task sizes,
deployment)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..analysis.report import format_table
from ..analysis.speedup import geometric_mean
from ..tls import (
    MultiscalarConfig,
    StampedeConfig,
    extract_tasks,
    simulate_multiscalar,
    simulate_stampede,
)
from ..workloads.suites import suite
from . import metrics as exp_metrics
from . import registry
from .spec import ExperimentSpec, Sweep


@dataclass
class SchemeRow:
    scheme: str
    speedup: float
    cores: str
    area: str
    baseline: str
    task_sizes: str
    deployment: str


@dataclass
class Table3Result:
    rows: List[SchemeRow]
    mean_task_size: float

    def row(self, scheme_prefix: str) -> SchemeRow:
        for row in self.rows:
            if row.scheme.startswith(scheme_prefix):
                return row
        raise KeyError(scheme_prefix)

    def render(self) -> str:
        return format_table(
            ["Scheme", "Speedup", "Cores", "Area", "Baseline",
             "Task sizes", "Deployment"],
            [
                (r.scheme, f"{r.speedup:.2f}x", r.cores, r.area, r.baseline,
                 r.task_sizes, r.deployment)
                for r in self.rows
            ],
            title="Table 3: comparison with classic TLS/SpMT schemes "
                  "(speedups are over each scheme's own baseline)",
        )


def _derive(sweep: Sweep) -> Table3Result:
    # LoopFrog speedup from the cycle-level model.
    frog_speedup = exp_metrics.suite_geomean(sweep.runs())

    # The TLS schemes run on task traces, not the cycle model; they don't
    # go through the sweep's cell cache.
    only = sweep.only
    multiscalar_speedups = []
    stampede_speedups = []
    task_sizes = []
    for suite_name in sweep.spec.suites:
        for benchmark in suite(suite_name):
            if only is not None and benchmark.name not in only:
                continue
            for workload, _ in benchmark.phases:
                memory, regs = workload.fresh_input()
                trace = extract_tasks(workload.program, memory, regs)
                if trace.mean_parallel_task_size():
                    task_sizes.append(trace.mean_parallel_task_size())
                multiscalar_speedups.append(
                    simulate_multiscalar(trace).speedup
                )
                stampede_speedups.append(simulate_stampede(trace).speedup)

    ms_config = MultiscalarConfig()
    st_config = StampedeConfig()
    rows = [
        SchemeRow(
            scheme="LoopFrog",
            speedup=frog_speedup,
            cores="1 (4-way SMT)",
            area="~1.15x",
            baseline="8-issue OoO",
            task_sizes="~100-10,000 instructions",
            deployment="compiler, ISA hints",
        ),
        SchemeRow(
            scheme=st_config.name,
            speedup=geometric_mean(stampede_speedups),
            cores=str(st_config.num_cores),
            area=f"> {st_config.area_factor:.0f}x",
            baseline="4-issue simple OoO, 5 stages",
            task_sizes="~1,400 instructions",
            deployment="OS, compiler, ISA",
        ),
        SchemeRow(
            scheme=ms_config.name,
            speedup=geometric_mean(multiscalar_speedups),
            cores=f"{ms_config.num_units} (PUs)",
            area=f"~ {ms_config.area_factor:.0f}x",
            baseline="2-issue limited OoO (ROB=32)",
            task_sizes="10-50 instructions",
            deployment="specialist u-arch, compiler, ISA",
        ),
    ]
    mean_task = sum(task_sizes) / len(task_sizes) if task_sizes else 0.0
    return Table3Result(rows, mean_task)


def _json(result: Table3Result) -> Dict[str, Any]:
    return {
        "rows": [
            {
                "scheme": r.scheme,
                "speedup": r.speedup,
                "cores": r.cores,
                "area": r.area,
                "baseline": r.baseline,
                "task_sizes": r.task_sizes,
                "deployment": r.deployment,
            }
            for r in result.rows
        ],
        "mean_task_size": result.mean_task_size,
    }


SPEC = registry.register(ExperimentSpec(
    name="table3",
    title="Table 3: comparison with classic TLS/SpMT schemes",
    kind="table",
    suites=("spec2017",),
    derive=_derive,
    to_json=_json,
    description="LoopFrog vs STAMPede and Multiscalar epoch models on the "
                "same task traces, each over its own baseline.",
))
