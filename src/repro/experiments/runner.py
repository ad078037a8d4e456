"""Benchmark runner: the evaluation methodology of paper section 6.1.

Every benchmark binary is simulated twice per phase — once on the baseline
(hints treated as nops) and once with LoopFrog speculation — and phase
cycle counts are combined with SimPoint-style weights.  Dynamic loop
deselection (section 5.1) is modelled by falling back to the baseline
cycle count when speculation lost time: real hardware would stop honouring
the hints of an unprofitable loop.

Results are cached at two levels, both keyed by content digests of the
(program, initial input, machine config) triple — see
:mod:`repro.results.digest`:

* an in-process dict, so configuration sweeps that revisit the same
  (workload, config) pair never resimulate within a run, and
* the persistent :class:`~repro.results.ResultStore`, so repeat
  invocations of the CLI skip simulation entirely.

``run_suite``/``run_benchmark`` accept a ``jobs`` parameter: with
``jobs > 1`` the distinct uncached simulations are collected, deduped and
fanned out across a :class:`~concurrent.futures.ProcessPoolExecutor`
before results are assembled.  ``jobs <= 1`` keeps the exact serial
in-process path.  Both paths produce bit-identical statistics: the worker
runs the same :class:`~repro.uarch.core.Engine` on the same inputs.

They also accept a ``sampling`` parameter selecting SimPoint-style
sampled simulation (docs/sampling.md): ``True`` for the default
:class:`~repro.sampling.runner.SamplingConfig`, or a config instance.
Sampled estimates live in a *separate* digest dimension — they are cached
and stored under :func:`~repro.results.digest.sampled_run_digest`, so
they can never be confused with (or shadow) exact results.  With
``jobs > 1`` the sampled path parallelises each run's detailed windows
instead of prefetching whole simulations.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.speedup import BenchmarkResult, weighted_time
from ..results.digest import machine_digest, run_digest, workload_digest
from ..results.store import get_default_store
from ..uarch.config import MachineConfig, baseline_machine, default_machine
from ..uarch.core import Engine
from ..uarch.statistics import SimStats
from ..workloads.base import Benchmark, Workload
from ..workloads.suites import suite
from .metrics import suite_geomean  # noqa: F401  (historical home; re-exported)

# In-process result cache.  Keyed by content digests — NOT by workload
# name — so two workloads that happen to share a name but differ in
# program or input can never collide, and editing a kernel's source
# invalidates its entry automatically.
_CacheKey = Tuple[str, str]
_CACHE: Dict[_CacheKey, SimStats] = {}

# Default parallelism for run_suite/run_benchmark when the caller passes
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


def _cache_key(workload: Workload, machine: MachineConfig) -> _CacheKey:
    return (workload_digest(workload), machine_digest(machine))


def _simulate(workload: Workload, machine: MachineConfig) -> SimStats:
    """One simulation in this process, bypassing both cache layers."""
    memory, regs = workload.fresh_input()
    engine = Engine(machine, workload.program, memory, regs)
    return engine.run(max_cycles=workload.max_cycles)


def _fill(store, workload: Workload, machine: MachineConfig,
          key: _CacheKey, stats: SimStats) -> None:
    """Record a fresh simulation in both cache layers."""
    _CACHE[key] = stats
    if store is not None:
        store.save(run_digest(workload, machine), stats,
                   workload=workload.name, machine=key[1][:12])


def _sampling_config(sampling):
    """Normalise the ``sampling`` parameter: None/False -> exact mode,
    True -> default config, config instance -> itself."""
    if sampling is None or sampling is False:
        return None
    if sampling is True:
        from ..sampling.runner import SamplingConfig

        return SamplingConfig()
    return sampling


def run_workload(
    workload: Workload,
    machine: MachineConfig,
    use_cache: bool = True,
    sampling=None,
    jobs: Optional[int] = None,
) -> SimStats:
    """Simulate one workload on one machine configuration (cached).

    With ``use_cache=True`` the in-process cache is consulted first, then
    the persistent result store; a fresh simulation populates both.
    ``use_cache=False`` bypasses both layers entirely.  ``sampling``
    selects the sampled estimator instead of an exact run (its cache and
    store entries use the disjoint sampled digest); ``jobs`` only
    applies there, fanning the detailed windows out across processes.
    """
    config = _sampling_config(sampling)
    if config is not None:
        from ..sampling.runner import run_workload_sampled

        return run_workload_sampled(
            workload, machine, config, use_cache=use_cache, jobs=jobs
        ).stats
    if not use_cache:
        return _simulate(workload, machine)
    key = _cache_key(workload, machine)
    stats = _CACHE.get(key)
    if stats is not None:
        return stats
    store = get_default_store()
    if store is not None:
        stats = store.load(run_digest(workload, machine))
        if stats is not None:
            _CACHE[key] = stats
            return stats
    stats = _simulate(workload, machine)
    _fill(store, workload, machine, key, stats)
    return stats


# -- parallel scheduler -------------------------------------------------------

def _run_job(payload) -> SimStats:
    """Worker-side entry point: one simulation from a picklable payload.

    The payload deliberately excludes the :class:`Workload` object —
    its ``setup`` member is usually a closure, which does not pickle.
    The parent materializes ``fresh_input()`` and ships plain state.
    """
    program, memory, regs, machine, max_cycles = payload
    engine = Engine(machine, program, memory, regs)
    return engine.run(max_cycles=max_cycles)


def _prefetch(
    pairs: Iterable[Tuple[Workload, MachineConfig]], jobs: int
) -> None:
    """Ensure every (workload, config) pair is cached, simulating misses
    in parallel.

    Pairs are deduped by content digest, then filtered against the
    in-process cache and the persistent store; only true misses are
    dispatched to worker processes.  Results land in both cache layers,
    so the subsequent serial assembly pass is all hits.
    """
    store = get_default_store()
    pending: Dict[_CacheKey, Tuple[Workload, MachineConfig]] = {}
    for workload, machine in pairs:
        key = _cache_key(workload, machine)
        if key in _CACHE or key in pending:
            continue
        if store is not None:
            stats = store.load(run_digest(workload, machine))
            if stats is not None:
                _CACHE[key] = stats
                continue
        pending[key] = (workload, machine)
    if jobs <= 1 or len(pending) <= 1:
        for key, (workload, machine) in pending.items():
            _fill(store, workload, machine, key, _simulate(workload, machine))
        return
    payloads = {}
    for key, (workload, machine) in pending.items():
        memory, regs = workload.fresh_input()
        payloads[key] = (
            workload.program, memory, regs, machine, workload.max_cycles,
        )
    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        futures = {
            pool.submit(_run_job, payload): key
            for key, payload in payloads.items()
        }
        for future in as_completed(futures):
            key = futures[future]
            _fill(store, *pending[key], key, future.result())


def _benchmark_pairs(
    benchmarks: Iterable[Benchmark],
    machine: MachineConfig,
    baseline: MachineConfig,
) -> List[Tuple[Workload, MachineConfig]]:
    pairs = []
    for benchmark in benchmarks:
        for workload, _weight in benchmark.phases:
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
    jobs: Optional[int] = None,
    sampling=None,
) -> BenchmarkRun:
    """Run one benchmark under both configurations."""
    machine = machine or default_machine()
    baseline = baseline or baseline_machine()
    jobs = _resolve_jobs(jobs)
    sampling = _sampling_config(sampling)
    if sampling is None and use_cache and jobs > 1:
        _prefetch(_benchmark_pairs([benchmark], machine, baseline), jobs)
    phases = []
    for workload, weight in benchmark.phases:
        base_stats = run_workload(
            workload, baseline, use_cache, sampling=sampling, jobs=jobs
        )
        frog_stats = run_workload(
            workload, machine, use_cache, sampling=sampling, jobs=jobs
        )
        phases.append(PhaseRun(workload.name, weight, base_stats, frog_stats))
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
    jobs = _resolve_jobs(jobs)
    sampling = _sampling_config(sampling)
    benchmarks = [
        b for b in suite(suite_name) if only is None or b.name in only
    ]
    if sampling is None and use_cache and jobs > 1:
        _prefetch(_benchmark_pairs(benchmarks, machine, baseline), jobs)
    return [
        run_benchmark(
            benchmark, machine, baseline, dynamic_deselection, use_cache,
            # Exact mode: everything uncached was just prefetched, keep
            # assembly serial.  Sampled mode: parallelism lives inside
            # each run's window fan-out instead.
            jobs=1 if sampling is None else jobs,
            sampling=sampling,
        )
        for benchmark in benchmarks
    ]


def clear_cache() -> None:
    _CACHE.clear()


# -- cell identity (the experiment sweep engine's accounting) -----------------

#: Public alias: normalise a ``sampling`` parameter exactly like the run
#: functions do (None/False -> exact, True -> default config, config -> it).
resolve_sampling = _sampling_config


def cell_key(workload: Workload, machine: MachineConfig, sampling=None):
    """Hashable identity of one simulation cell.

    Exact and sampled runs live in disjoint key spaces, mirroring their
    disjoint cache/store digests — a sampled estimate never counts as a
    hit for an exact cell or vice versa.
    """
    config = _sampling_config(sampling)
    if config is None:
        return ("exact",) + _cache_key(workload, machine)
    from ..results.digest import sampled_run_digest

    return ("sampled", sampled_run_digest(workload, machine, config))


def cell_cached(workload: Workload, machine: MachineConfig, sampling=None) -> bool:
    """Whether the cell is already in the in-process cache (it would not
    simulate *or* touch the persistent store if requested now)."""
    config = _sampling_config(sampling)
    if config is None:
        return _cache_key(workload, machine) in _CACHE
    from ..results.digest import sampled_run_digest
    from ..sampling.runner import _CACHE as sampled_cache

    return sampled_run_digest(workload, machine, config) in sampled_cache
