"""Benchmark runner: the evaluation methodology of paper section 6.1.

Every benchmark binary is simulated twice per phase — once on the baseline
(hints treated as nops) and once with LoopFrog speculation — and phase
cycle counts are combined with SimPoint-style weights.  Dynamic loop
deselection (section 5.1) is modelled by falling back to the baseline
cycle count when speculation lost time: real hardware would stop honouring
the hints of an unprofitable loop.

Each simulation is a *cell*: one (workload, machine config) pair, run in
full or, with ``sampling``, estimated by SimPoint-style sampled
simulation (docs/sampling.md; ``True`` selects the default
:class:`~repro.sampling.runner.SamplingConfig`).  This module is the only
place cells are cached, read through the persistent
:class:`~repro.results.ResultStore` and simulated.  A cell's key is its
store digest (see :mod:`repro.results.digest`): ``run_digest`` for an
exact cell, ``sampled_run_digest`` for a sampled one, so one in-process
cache serves both and an estimate can never shadow an exact result.

:func:`_prefetch` is the one read-through.  It takes the cells in runs
of consecutive cells of one workload, and a run's misses form one job:
the workload's input is built once, and a sampled job's plan once, for
every machine of the job.  With ``jobs <= 1`` it walks the runs in
order: key, cache, store, simulate, fill.  With ``jobs > 1`` it dedups
the cells, reads the store, and sends the jobs to one
:class:`~concurrent.futures.ProcessPoolExecutor`, whose worker entry
:func:`_run_job` runs full engine runs or whole sampled estimates.  Both
paths give bit-identical results.  ``run_suite`` and
``registry.run_all`` call it once over every cell they need, then
assemble from the warm cache; ``run_benchmark`` and ``run_workload`` only
read.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..analysis.speedup import BenchmarkResult, weighted_time
from ..results.digest import machine_digest, run_digest, sampled_run_digest
from ..results.store import get_default_store
from ..uarch.config import MachineConfig, baseline_machine, default_machine
from ..uarch.core import Engine
from ..uarch.statistics import SimStats
from ..workloads.base import Benchmark, Workload
from ..workloads.suites import suite
from .metrics import suite_geomean  # noqa: F401  (historical home; re-exported)

# In-process result cache, keyed by store digest: a SimStats for an exact
# cell, a SampledRunResult for a sampled one.  Digests cover program,
# input and config, so two workloads that share a name never collide and
# editing a kernel's source invalidates its entry automatically.
_CACHE: Dict[str, Any] = {}

# Default parallelism for run_suite/run_all when the caller passes
# ``jobs=None``.  Starts serial so library users (and the test suite) get
# the exact historical behaviour; the CLI raises it via ``configure``.
_default_jobs = 1


def configure(jobs: Optional[int] = None) -> None:
    """Set process-wide runner defaults (used by the CLI entry point)."""
    global _default_jobs
    if jobs is not None:
        _default_jobs = max(1, jobs)


def default_jobs() -> int:
    return _default_jobs


def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        return _default_jobs
    if jobs <= 0:  # 0 / negative mean "all cores", mirroring make -j
        return os.cpu_count() or 1
    return jobs


def _sampling_config(sampling):
    """Normalise the ``sampling`` parameter: None/False -> exact mode,
    True -> default config, config instance -> itself."""
    if sampling is None or sampling is False:
        return None
    if sampling is True:
        from ..sampling.runner import SamplingConfig

        return SamplingConfig()
    return sampling


def cell_key(workload: Workload, machine: MachineConfig, sampling=None) -> str:
    """The digest one cell is cached and stored under."""
    config = _sampling_config(sampling)
    if config is None:
        return run_digest(workload, machine)
    return sampled_run_digest(workload, machine, config)


def is_cached(key: str) -> bool:
    """Whether the in-process cache holds the cell keyed ``key``."""
    return key in _CACHE


def clear_cache() -> None:
    _CACHE.clear()


def _payload(workload: Workload, machines: Iterable[MachineConfig],
             config) -> tuple:
    """One job's picklable payload: ``workload`` on each of ``machines``.
    It leaves out the :class:`Workload`, whose ``setup`` is usually a
    closure: the parent materializes ``fresh_input()`` once and ships
    plain state."""
    memory, regs = workload.fresh_input()
    return (workload.program, memory, regs, tuple(machines),
            workload.max_cycles, config)


def _run_job(payload) -> list:
    """One job, in this process or a worker: one workload's cells, with
    one result per machine, in order.  An exact cell is a full engine run
    (:class:`SimStats`) on its own copy of the input; the sampled cells
    share one :class:`~repro.sampling.runner.SamplingPlan` and each is a
    whole estimate (:class:`~repro.sampling.extrapolate.SampledRunResult`)."""
    program, memory, regs, machines, max_cycles, config = payload
    if config is None:
        return [
            Engine(machine, program, memory.copy(), regs).run(
                max_cycles=max_cycles
            )
            for machine in machines
        ]
    from ..sampling.runner import plan_program_sampled, run_program_sampled

    plan = plan_program_sampled(program, memory, regs, config)
    return [run_program_sampled(plan, machine, max_cycles)
            for machine in machines]


def _load(store, key: str, config):
    stats = store.load(key)
    if stats is None or config is None:
        return stats
    from ..sampling.runner import _from_store

    return _from_store(stats, store.load_extra(key) or {})


def _save(store, workload: Workload, cells: Dict[str, MachineConfig],
          results: List[Any]) -> None:
    """Record a job's fresh results in the cache and the store."""
    for (key, machine), result in zip(cells.items(), results):
        _CACHE[key] = result
        if store is None:
            continue
        label = {"workload": workload.name,
                 "machine": machine_digest(machine)[:12]}
        if isinstance(result, SimStats):
            store.save(key, result, **label)
        else:
            from ..sampling.runner import _extra_payload

            store.save(key, result.stats, extra=_extra_payload(result),
                       **label)


def _prefetch(
    pairs: Iterable[Tuple[Workload, MachineConfig]],
    jobs: int,
    sampling=None,
) -> None:
    """Ensure every (workload, machine) cell is cached.

    The cells are taken in runs of consecutive cells of one workload.  A
    run's cells are keyed and looked up in the cache and the store, and
    its misses form one job (:func:`_run_job`), which builds the input,
    and a sampled job its plan, once for all of them.  With ``jobs <= 1``
    each job runs before the next run is keyed: a workload digest encodes
    the whole memory image, so keying every cell first would hold more
    memory at once.  With ``jobs > 1`` the cells are deduped, the store is
    read, and the jobs go to one process pool; a lone job runs here.
    """
    config = _sampling_config(sampling)
    store = get_default_store()
    pending: List[Tuple[Workload, Dict[str, MachineConfig]]] = []
    pending_keys = set()
    for _, run in groupby(pairs, key=lambda pair: id(pair[0])):
        missing: Dict[str, MachineConfig] = {}
        for workload, machine in run:
            key = cell_key(workload, machine, config)
            if key in _CACHE or key in missing or key in pending_keys:
                continue
            result = _load(store, key, config) if store is not None else None
            if result is not None:
                _CACHE[key] = result
            else:
                missing[key] = machine
        if not missing:
            continue
        if jobs <= 1:
            _save(store, workload, missing,
                  _run_job(_payload(workload, missing.values(), config)))
        else:
            pending.append((workload, missing))
            pending_keys.update(missing)
    if len(pending) == 1:
        [(workload, missing)] = pending
        _save(store, workload, missing,
              _run_job(_payload(workload, missing.values(), config)))
    elif pending:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {
                pool.submit(
                    _run_job, _payload(workload, missing.values(), config)
                ): (workload, missing)
                for workload, missing in pending
            }
            for future in as_completed(futures):
                _save(store, *futures[future], future.result())


def _cell(workload: Workload, machine: MachineConfig, use_cache: bool,
          sampling):
    """One cell's full result, read through the cache and the store
    (``use_cache=False`` simulates it here, touching neither)."""
    config = _sampling_config(sampling)
    if not use_cache:
        [result] = _run_job(_payload(workload, [machine], config))
        return result
    key = cell_key(workload, machine, config)
    if key not in _CACHE:
        _prefetch([(workload, machine)], 1, config)
    return _CACHE[key]


def run_workload(
    workload: Workload,
    machine: MachineConfig,
    use_cache: bool = True,
    sampling=None,
) -> SimStats:
    """Simulate one workload on one machine configuration (cached).

    ``sampling`` selects the sampled estimator instead of an exact run
    and returns the estimate's statistics.
    """
    result = _cell(workload, machine, use_cache, sampling)
    return result if isinstance(result, SimStats) else result.stats


def cell_pairs(
    benchmarks: Iterable[Benchmark],
    machine: MachineConfig,
    baseline: Optional[MachineConfig] = None,
) -> List[Tuple[Workload, MachineConfig]]:
    """The cells of ``benchmarks`` in run order: each phase on
    ``baseline`` (when given), then on ``machine``."""
    pairs = []
    for benchmark in benchmarks:
        for workload, _weight in benchmark.phases:
            if baseline is not None:
                pairs.append((workload, baseline))
            pairs.append((workload, machine))
    return pairs


@dataclass
class PhaseRun:
    workload: str
    weight: float
    baseline: SimStats
    loopfrog: SimStats


@dataclass
class BenchmarkRun:
    """Everything the figure experiments need about one benchmark."""

    benchmark: Benchmark
    phases: List[PhaseRun]
    deselected: bool = False  # dynamic deselection kicked in

    @property
    def name(self) -> str:
        return self.benchmark.name

    @property
    def baseline_cycles(self) -> float:
        return weighted_time([(p.baseline.cycles, p.weight) for p in self.phases])

    @property
    def raw_loopfrog_cycles(self) -> float:
        return weighted_time([(p.loopfrog.cycles, p.weight) for p in self.phases])

    @property
    def loopfrog_cycles(self) -> float:
        if self.deselected:
            return self.baseline_cycles
        return self.raw_loopfrog_cycles

    @property
    def speedup(self) -> float:
        return self.baseline_cycles / self.loopfrog_cycles

    @property
    def speedup_percent(self) -> float:
        return (self.speedup - 1.0) * 100.0

    def region_speedups(self) -> Dict[str, float]:
        """Per-annotated-loop speedup (baseline vs LoopFrog region cycles)."""
        result: Dict[str, float] = {}
        for phase in self.phases:
            for label, base_region in phase.baseline.regions.items():
                if label == "<none>":
                    continue
                frog_region = phase.loopfrog.regions.get(label)
                if (
                    frog_region is None
                    or base_region.arch_cycles == 0
                    or frog_region.arch_cycles == 0
                ):
                    continue
                result[f"{phase.workload}:{label}"] = (
                    base_region.arch_cycles / frog_region.arch_cycles
                )
        return result

    def parallel_fraction(self) -> float:
        """Fraction of baseline time inside annotated loops."""
        total = 0.0
        in_region = 0.0
        for phase in self.phases:
            total += phase.weight * phase.baseline.cycles
            in_region += phase.weight * sum(
                r.arch_cycles
                for label, r in phase.baseline.regions.items()
                if label != "<none>"
            )
        return in_region / total if total else 0.0

    def to_result(self) -> BenchmarkResult:
        return BenchmarkResult(
            name=self.benchmark.name,
            suite=self.benchmark.suite,
            baseline_cycles=self.baseline_cycles,
            loopfrog_cycles=self.loopfrog_cycles,
            profitable_expected=self.benchmark.profitable,
            category=self.benchmark.category,
            region_speedups=self.region_speedups(),
            parallel_fraction=self.parallel_fraction(),
        )


def run_benchmark(
    benchmark: Benchmark,
    machine: Optional[MachineConfig] = None,
    baseline: Optional[MachineConfig] = None,
    dynamic_deselection: bool = True,
    use_cache: bool = True,
    sampling=None,
) -> BenchmarkRun:
    """One benchmark's runs under both configurations, read through the
    cache cell by cell (``run_suite`` and ``run_all`` fill it first)."""
    machine = machine or default_machine()
    baseline = baseline or baseline_machine()
    phases = [
        PhaseRun(
            workload.name, weight,
            run_workload(workload, baseline, use_cache, sampling),
            run_workload(workload, machine, use_cache, sampling),
        )
        for workload, weight in benchmark.phases
    ]
    run = BenchmarkRun(benchmark, phases)
    if dynamic_deselection and run.raw_loopfrog_cycles > run.baseline_cycles:
        run.deselected = True
    return run


def run_suite(
    suite_name: str,
    machine: Optional[MachineConfig] = None,
    baseline: Optional[MachineConfig] = None,
    dynamic_deselection: bool = True,
    use_cache: bool = True,
    only: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    sampling=None,
) -> List[BenchmarkRun]:
    """Run a whole suite; ``only`` restricts to the named benchmarks."""
    machine = machine or default_machine()
    baseline = baseline or baseline_machine()
    benchmarks = [
        b for b in suite(suite_name) if only is None or b.name in only
    ]
    if use_cache:
        _prefetch(cell_pairs(benchmarks, machine, baseline),
                  _resolve_jobs(jobs), sampling)
    return [
        run_benchmark(benchmark, machine, baseline, dynamic_deselection,
                      use_cache, sampling)
        for benchmark in benchmarks
    ]
