"""Declarative experiment specs and the generic sweep engine.

Every paper figure/table is described by an :class:`ExperimentSpec`: a
grid of **axes** (workload suites x machine-config :class:`Variant`\\ s),
a ``derive`` function that turns the swept cells into the paper-specific
result object (which carries the render template), and an optional
``to_json`` projection for machine-readable artifacts.  The generic
engine (:func:`execute_spec`) walks the grid through the existing
``run_suite``/``run_workload``/``ResultStore``/sampling stack, so every
spec automatically composes with ``--jobs`` parallelism, ``--sampled``
estimation and the persistent result store.

**Cell accounting.**  A *cell* is one distinct (workload, machine-config)
simulation, identified by the same content digests the runner caches
under.  Before executing each spec the engine counts how many of its
cells are already in the in-process cache — populated by *earlier
experiments in the same invocation* — versus how many still need to
leave it (fresh simulation or a persistent-store load).  The counts feed
the ``exp.*`` metrics (docs/observability.md), which is how
``repro exp all`` proves it simulates each distinct cell at most once
across all fourteen experiments.

Specs are registered in :mod:`repro.experiments.registry`; adding a new
figure is ~30 lines (docs/experiments.md has a worked example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..obs import metrics as _metrics
from ..obs.tracing import span as _span
from ..uarch.config import MachineConfig, baseline_machine, default_machine
from ..uarch.statistics import SimStats
from ..workloads.base import Benchmark
from ..workloads.suites import suite
from . import runner as _runner
from .runner import BenchmarkRun, run_suite, run_workload

MachineFactory = Callable[[], MachineConfig]

#: Spec kinds, for ``repro exp list`` grouping and manifest metadata.
KINDS = ("figure", "table", "ablation", "report")


# ---------------------------------------------------------------------------
# Axes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variant:
    """One machine-configuration point of a spec's sweep axis.

    ``machine``/``baseline`` are zero-argument factories (not config
    instances) so each execution gets a fresh config and import-time spec
    construction stays cheap; ``None`` means the stack defaults
    (:func:`default_machine` / :func:`baseline_machine`).

    ``paired=True`` (the norm) runs every workload under both the
    baseline and the variant machine via ``run_suite``, producing
    :class:`BenchmarkRun` pairs.  ``paired=False`` is the single-config
    sweep mode (figure 1): each workload runs once on the variant
    machine and the cell holds raw per-phase :class:`SimStats`.

    ``params`` carries the axis value (width, SSB bytes, granule, ...)
    so ``derive`` never has to parse it back out of the label.
    """

    label: str
    machine: Optional[MachineFactory] = None
    baseline: Optional[MachineFactory] = None
    paired: bool = True
    dynamic_deselection: bool = True
    params: Mapping[str, Any] = field(default_factory=dict)

    def build_machine(self) -> MachineConfig:
        return self.machine() if self.machine is not None else default_machine()

    def build_baseline(self) -> MachineConfig:
        return (
            self.baseline() if self.baseline is not None
            else baseline_machine()
        )


# ---------------------------------------------------------------------------
# Spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one paper artefact.

    ``derive`` receives the executed :class:`Sweep` and returns the
    experiment's result object — any object with a ``render() -> str``
    method.  ``to_json`` projects that result into a JSON-safe dict for
    ``--json`` artifacts; multi-benchmark listings inside it must be
    deterministically ordered (use :func:`run_rows`).
    """

    name: str
    title: str
    kind: str
    derive: Callable[["Sweep"], Any] = field(compare=False)
    suites: Tuple[str, ...] = ("spec2017",)
    variants: Tuple[Variant, ...] = (Variant("default"),)
    to_json: Optional[Callable[[Any], Dict[str, Any]]] = field(
        default=None, compare=False
    )
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"bad experiment name {self.name!r}")
        if self.kind not in KINDS:
            raise ValueError(
                f"{self.name}: kind must be one of {KINDS}, got {self.kind!r}"
            )
        if not self.suites:
            raise ValueError(f"{self.name}: at least one suite required")
        if not self.variants:
            raise ValueError(f"{self.name}: at least one variant required")
        labels = [v.label for v in self.variants]
        if len(set(labels)) != len(labels):
            raise ValueError(f"{self.name}: duplicate variant labels {labels}")


# ---------------------------------------------------------------------------
# Swept data
# ---------------------------------------------------------------------------

@dataclass
class PhaseStats:
    """One workload phase simulated in single-config (unpaired) mode."""

    benchmark: str
    workload: str
    weight: float
    stats: SimStats


@dataclass
class Cell:
    """The executed content of one (suite, variant) grid point."""

    suite: str
    variant: Variant
    machine: MachineConfig
    baseline: Optional[MachineConfig] = None
    runs: Optional[List[BenchmarkRun]] = None      # paired mode
    phases: Optional[List[PhaseStats]] = None      # single-config mode

    def by_benchmark(self) -> Dict[str, List[PhaseStats]]:
        """Single-config phases grouped per benchmark, in suite order."""
        grouped: Dict[str, List[PhaseStats]] = {}
        for phase in self.phases or []:
            grouped.setdefault(phase.benchmark, []).append(phase)
        return grouped


class Sweep:
    """All executed cells of one spec, addressable by (suite, variant)."""

    def __init__(self, spec: ExperimentSpec, only: Optional[List[str]] = None):
        self.spec = spec
        self.only = only
        self._cells: Dict[Tuple[str, str], Cell] = {}

    def add(self, cell: Cell) -> None:
        self._cells[(cell.suite, cell.variant.label)] = cell

    def cell(self, suite_name: str, variant_label: str) -> Cell:
        try:
            return self._cells[(suite_name, variant_label)]
        except KeyError:
            raise KeyError(
                f"{self.spec.name}: no cell ({suite_name!r}, "
                f"{variant_label!r}); have {sorted(self._cells)}"
            ) from None

    def runs(
        self,
        suite_name: Optional[str] = None,
        variant: Optional[str] = None,
    ) -> List[BenchmarkRun]:
        """Paired runs of the matching cells, concatenated in spec axis
        order (suites outer, variants inner) — the iteration order the
        hand-rolled modules used, so derived numbers are unchanged."""
        out: List[BenchmarkRun] = []
        for s in self.spec.suites:
            if suite_name is not None and s != suite_name:
                continue
            for v in self.spec.variants:
                if variant is not None and v.label != variant:
                    continue
                cell = self.cell(s, v.label)
                out.extend(cell.runs or [])
        return out


# ---------------------------------------------------------------------------
# Cell accounting (the exp.* metrics)
# ---------------------------------------------------------------------------

@dataclass
class CellCounters:
    """Sweep-engine accounting collected as the ``exp.*`` metrics."""

    experiments: int = 0
    cells_total: int = 0
    cells_cached: int = 0
    cells_simulated: int = 0

    def observe(self, cached: bool) -> None:
        self.cells_total += 1
        if cached:
            self.cells_cached += 1
        else:
            self.cells_simulated += 1

    def merge(self, other: "CellCounters") -> None:
        self.experiments += other.experiments
        self.cells_total += other.cells_total
        self.cells_cached += other.cells_cached
        self.cells_simulated += other.cells_simulated

    def to_dict(self) -> Dict[str, int]:
        return {
            "total": self.cells_total,
            "cached": self.cells_cached,
            "simulated": self.cells_simulated,
        }


# Process-wide counters: what `default_registry().collect(...)` snapshots.
_GLOBAL_COUNTERS = CellCounters()


def global_counters() -> CellCounters:
    return _GLOBAL_COUNTERS


def reset_counters() -> None:
    """Zero the process-wide counters (tests; the CLI zeroes per command)."""
    global _GLOBAL_COUNTERS
    _GLOBAL_COUNTERS = CellCounters()


# ---------------------------------------------------------------------------
# The sweep engine
# ---------------------------------------------------------------------------

def _cell_pairs(
    benchmarks: List[Benchmark],
    variant: Variant,
    machine: MachineConfig,
    baseline: Optional[MachineConfig],
) -> List[Tuple[Any, MachineConfig]]:
    pairs: List[Tuple[Any, MachineConfig]] = []
    for benchmark in benchmarks:
        for workload, _weight in benchmark.phases:
            if variant.paired and baseline is not None:
                pairs.append((workload, baseline))
            pairs.append((workload, machine))
    return pairs


def execute_spec(
    spec: ExperimentSpec,
    only: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    sampling: Any = None,
    extra_counters: Tuple[CellCounters, ...] = (),
) -> Sweep:
    """Run every (suite, variant) cell of ``spec`` and return the sweep.

    ``only`` restricts benchmarks by name; ``jobs``/``sampling`` thread
    straight through to the runner.  Cell accounting updates the global
    counters plus any ``extra_counters`` (the registry passes a per-run
    instance so each :class:`ExperimentRun` carries its own delta).
    """
    sweep = Sweep(spec, only)
    sampling_cfg = _runner.resolve_sampling(sampling)
    counters = (_GLOBAL_COUNTERS,) + tuple(extra_counters)
    for variant in spec.variants:
        machine = variant.build_machine()
        baseline = variant.build_baseline() if variant.paired else None
        for suite_name in spec.suites:
            benchmarks = [
                b for b in suite(suite_name)
                if only is None or b.name in only
            ]
            seen = set()
            for workload, m in _cell_pairs(
                benchmarks, variant, machine, baseline
            ):
                key = _runner.cell_key(workload, m, sampling_cfg)
                if key in seen:
                    continue
                seen.add(key)
                hit = _runner.cell_cached(workload, m, sampling_cfg)
                for counter in counters:
                    counter.observe(hit)
            with _span(
                "exp.cell",
                experiment=spec.name,
                suite=suite_name,
                variant=variant.label,
            ):
                if variant.paired:
                    runs = run_suite(
                        suite_name,
                        machine,
                        baseline,
                        dynamic_deselection=variant.dynamic_deselection,
                        only=only,
                        jobs=jobs,
                        sampling=sampling_cfg,
                    )
                    cell = Cell(
                        suite_name, variant, machine=machine,
                        baseline=baseline, runs=runs,
                    )
                else:
                    phases = [
                        PhaseStats(
                            benchmark.name, workload.name, weight,
                            run_workload(
                                workload, machine,
                                sampling=sampling_cfg, jobs=jobs,
                            ),
                        )
                        for benchmark in benchmarks
                        for workload, weight in benchmark.phases
                    ]
                    cell = Cell(
                        suite_name, variant, machine=machine, phases=phases
                    )
            sweep.add(cell)
    return sweep


# ---------------------------------------------------------------------------
# JSON projection helpers
# ---------------------------------------------------------------------------

def run_rows(runs: List[BenchmarkRun]) -> List[Dict[str, Any]]:
    """Per-benchmark rows for ``--json`` artifacts, sorted stably by
    (suite, name) so repeat invocations diff cleanly regardless of the
    sweep's execution order."""
    rows = [
        {
            "suite": run.benchmark.suite,
            "name": run.name,
            "baseline_cycles": run.baseline_cycles,
            "loopfrog_cycles": run.loopfrog_cycles,
            "speedup_percent": run.speedup_percent,
            "deselected": run.deselected,
        }
        for run in runs
    ]
    rows.sort(key=lambda r: (r["suite"], r["name"]))
    return rows


# ---------------------------------------------------------------------------
# Metrics catalog for the experiment sweep engine
# (collected off CellCounters; see docs/observability.md).
# ---------------------------------------------------------------------------

_metrics.register(
    _metrics.MetricSpec(
        "exp.experiments", _metrics.COUNTER, "exp",
        "Experiments executed through the registry sweep engine",
        unit="experiments", source="experiments"),
    _metrics.MetricSpec(
        "exp.cells_total", _metrics.COUNTER, "exp",
        "Distinct (workload, config) cells the executed specs asked for",
        unit="cells", source="cells_total"),
    _metrics.MetricSpec(
        "exp.cells_cached", _metrics.COUNTER, "exp",
        "Cells already in the in-process cache when a spec needed them "
        "(cross-experiment sharing within one invocation)",
        unit="cells", source="cells_cached"),
    _metrics.MetricSpec(
        "exp.cells_simulated", _metrics.COUNTER, "exp",
        "Cells that had to leave the in-process cache (fresh simulation "
        "or a persistent-store load)",
        unit="cells", source="cells_simulated"),
)
