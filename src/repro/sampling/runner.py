"""Sampled-simulation orchestration: profile, cluster, window, extrapolate.

The pipeline (docs/sampling.md) for one program:

1. **Profile** (fast-forward pass 1): BBV per ``interval_length``
   instructions over the whole program.
2. **Cluster**: seed-pinned k-means picks ``k <= max_clusters``
   representative intervals and instruction-share weights.
3. **Checkpoint** (fast-forward pass 2): architectural snapshots at each
   representative's *window start* — ``warmup_intervals`` intervals
   before the representative, so the detailed engine warms up through
   real preceding work before measurement begins — plus bounded
   functional warmup history (recent data lines, branch outcomes).
4. **Windows**: the detailed :class:`~repro.uarch.core.Engine` replays
   each window from its checkpoint via :meth:`Engine.run_window`, one
   after another.
5. **Extrapolate**: weighted CPI combination with an error bound.

Steps 1-3 never read the machine: :func:`plan_program_sampled` runs them
once per program and returns a :class:`SamplingPlan`, and
:func:`run_program_sampled` runs steps 4-5 of a plan on one machine.
Caching and fan-out belong to :mod:`repro.experiments.runner`, which
treats a sampled estimate as one cell: keyed by
:func:`~repro.results.digest.sampled_run_digest` (a digest dimension
disjoint from exact results, so an estimate can never shadow a detailed
simulation), read through the result store with :func:`_from_store`,
saved with :func:`_extra_payload`, and sent to its process pool with the
workload's other missing cells, which share one plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs import metrics as _metrics
from ..obs.tracing import span as _span
from ..isa.program import Program
from ..uarch.config import MachineConfig, default_machine
from ..uarch.core import Engine
from ..uarch.memory_state import SparseMemory
from .extrapolate import SampledRunResult, WindowMeasurement, extrapolate
from .fastforward import Checkpoint, collect_checkpoints, profile_intervals
from .kmeans import cluster_intervals

# Version of the *sampling methodology*.  Part of the sampled run digest:
# bump on any change to profiling, clustering, warmup policy or
# extrapolation that can alter estimates, so stale estimates are never
# served from the store.  (The engine's own timing semantics are covered
# by ENGINE_SCHEMA_VERSION, which the digest also includes.)
SAMPLING_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SamplingConfig:
    """Tunables of the sampled-simulation methodology.

    Every field is part of the sampled run digest.  Defaults are tuned on
    the long-run suite (see docs/sampling.md for the validation data):
    intervals must be long relative to the engine's speculative *runahead*
    — threadlets complete whole future iterations before the merge credits
    them, so short windows see lumpy, unrepresentative slices — and
    windows are measured whole from a clean (unspeculated) checkpoint
    start rather than split into a timed warmup prefix, because a
    mid-speculation cut cannot be attributed cleanly to either side.
    """

    interval_length: int = 8000
    max_clusters: int = 8
    seed: int = 42
    # Programs at or below this many dynamic instructions are "too short
    # to sample" (the classic SimPoint guard): the runner simulates them
    # as ONE exact detailed run covering the whole program, reproducing
    # the continuous engine's cycle count bit-for-bit.  Sampling proper
    # only pays off once windows are much smaller than the program.
    full_detail_threshold: int = 100_000
    # Detailed warmup: how many preceding intervals to simulate (unmeasured)
    # before each representative.  The default of 0 is deliberate: the
    # engine's speculative runahead makes the warmup/measured cycle split
    # unattributable (see class docstring); microarchitectural state is
    # instead reconstructed from the functional warmup record below.
    warmup_intervals: int = 0
    # Branch-history depth recorded at each checkpoint and replayed into
    # the predictor (0 disables all warmup replay).  Cache contents are
    # reconstructed from the full last-touch record regardless.
    functional_warmup: int = 4096
    # Fast-forward instruction budget (safety net against runaway kernels).
    max_instructions: int = 500_000_000


def _window_plan(
    intervals, cluster, warmup_intervals: int
) -> List[Tuple[int, float, int, int, int]]:
    """Per representative: (interval_index, weight, window_start_icount,
    warmup_instructions, n_instructions)."""
    plan = []
    for rep, weight in zip(cluster.representatives, cluster.weights):
        start_interval = max(0, rep - warmup_intervals)
        window_start = intervals[start_interval].start_icount
        warmup = intervals[rep].start_icount - window_start
        plan.append((rep, weight, window_start, warmup, intervals[rep].length))
    return plan


@dataclass(frozen=True)
class SamplingPlan:
    """The machine-independent half of a sampled run of one program.

    Profiling, clustering and checkpointing read only the program, its
    entry state and the :class:`SamplingConfig`, never the machine, so
    one plan serves every machine the program is estimated on.
    ``windows`` is empty when the program is too short to sample.
    """

    program: Program
    memory: SparseMemory              # program-entry state, never mutated
    initial_regs: Dict[str, float]
    config: SamplingConfig
    total_instructions: int
    num_intervals: int
    ff_instructions_per_second: float
    windows: List[Tuple[int, float, int, int, int]]   # see _window_plan
    checkpoints: Dict[int, Checkpoint]                # by window start


def plan_program_sampled(
    program: Program,
    memory: SparseMemory,
    initial_regs: Dict[str, float],
    config: Optional[SamplingConfig] = None,
) -> SamplingPlan:
    """Profile, cluster and checkpoint one program (steps 1-3).

    ``memory``/``initial_regs`` are the program-entry state (they are
    copied per pass, never mutated).
    """
    config = config or SamplingConfig()

    with _span("sample.profile", program=program.name,
               interval_length=config.interval_length):
        start = time.perf_counter()
        intervals, total_instructions = profile_intervals(
            program, memory.copy(), initial_regs,
            config.interval_length, config.max_instructions,
        )
        profile_wall = time.perf_counter() - start

    windows: List[Tuple[int, float, int, int, int]] = []
    checkpoints: Dict[int, Checkpoint] = {}
    # Too short to sample: no windows, and run_program_sampled runs the
    # whole program in detail.
    if total_instructions > config.full_detail_threshold:
        with _span("sample.cluster", intervals=len(intervals)):
            cluster = cluster_intervals(
                intervals, config.max_clusters, config.seed
            )
        windows = _window_plan(intervals, cluster, config.warmup_intervals)
        with _span("sample.checkpoint", windows=len(windows)):
            checkpoints = collect_checkpoints(
                program, memory.copy(), initial_regs,
                [window_start for _, _, window_start, _, _ in windows],
                record_warmup=config.functional_warmup,
            )

    return SamplingPlan(
        program=program, memory=memory, initial_regs=initial_regs,
        config=config, total_instructions=total_instructions,
        num_intervals=len(intervals),
        ff_instructions_per_second=(
            total_instructions / profile_wall if profile_wall > 0 else 0.0
        ),
        windows=windows, checkpoints=checkpoints,
    )


def _run_window(plan: SamplingPlan, entry, machine,
                max_cycles: int) -> WindowMeasurement:
    """One detailed window of the plan, replayed from its checkpoint."""
    (interval_index, weight, window_start,
     warmup_instructions, n_instructions) = entry
    checkpoint: Checkpoint = plan.checkpoints[window_start]
    warmup_state = (
        checkpoint.warmup if plan.config.functional_warmup > 0 else None
    )
    # With a recorded warmup the caches are reconstructed from last-touch
    # order (apply_warmup); the constructor's whole-working-set warming
    # models program entry and would leave mid-program windows too warm.
    engine = Engine(
        machine, plan.program, checkpoint.engine_memory(), checkpoint.regs,
        warm_caches=warmup_state is None, initial_pc=checkpoint.pc,
    )
    if warmup_state is not None:
        engine.apply_warmup(warmup_state)
    window = engine.run_window(
        n_instructions,
        warmup_instructions=warmup_instructions,
        max_cycles=max_cycles,
    )
    return WindowMeasurement(
        interval_index=interval_index,
        weight=weight,
        warmup_instructions=window.warmup_instructions,
        measured_instructions=window.measured_instructions,
        measured_cycles=window.measured_cycles,
        stats=window.stats,
    )


def run_program_sampled(
    plan: SamplingPlan,
    machine: Optional[MachineConfig] = None,
    max_cycles: int = 50_000_000,
) -> SampledRunResult:
    """Estimate the planned program on ``machine`` (steps 4-5): run its
    detailed windows and extrapolate."""
    machine = machine or default_machine()
    config = plan.config

    if not plan.windows:
        # Too short to sample (the classic SimPoint guard, see
        # docs/sampling.md): one detailed run over the whole program,
        # weight 1.  The estimate IS the detailed result — every counter
        # exact, error bound zero.
        with _span("sample.windows", windows=1):
            engine = Engine(machine, plan.program, plan.memory.copy(),
                            plan.initial_regs)
            stats = engine.run(max_cycles=max_cycles)
        window = WindowMeasurement(
            interval_index=0, weight=1.0, warmup_instructions=0,
            measured_instructions=plan.total_instructions,
            measured_cycles=stats.cycles, stats=stats,
        )
        return SampledRunResult(
            stats=stats,
            estimated_cpi=(
                stats.cycles / stats.arch_instructions
                if stats.arch_instructions else 0.0
            ),
            estimated_cycles=stats.cycles,
            error_bound=0.0,
            total_instructions=plan.total_instructions,
            num_intervals=plan.num_intervals,
            num_clusters=1,
            interval_length=config.interval_length,
            detailed_instructions=plan.total_instructions,
            ff_instructions_per_second=plan.ff_instructions_per_second,
            windows=[window],
        )

    with _span("sample.windows", windows=len(plan.windows)):
        windows = [
            _run_window(plan, entry, machine, max_cycles)
            for entry in plan.windows
        ]

    return extrapolate(
        windows,
        total_instructions=plan.total_instructions,
        num_intervals=plan.num_intervals,
        interval_length=config.interval_length,
        ff_instructions_per_second=plan.ff_instructions_per_second,
    )


# ---------------------------------------------------------------------------
# Workload-level entry point and the estimate's store record
# ---------------------------------------------------------------------------

def _extra_payload(result: SampledRunResult) -> dict:
    return {
        "sampled": True,
        "sampling_schema": SAMPLING_SCHEMA_VERSION,
        "estimated_cpi": result.estimated_cpi,
        "error_bound": result.error_bound,
        "total_instructions": result.total_instructions,
        "num_intervals": result.num_intervals,
        "num_clusters": result.num_clusters,
        "interval_length": result.interval_length,
        "detailed_instructions": result.detailed_instructions,
    }


def _from_store(stats, extra: dict) -> SampledRunResult:
    fallback_cpi = (
        stats.cycles / stats.arch_instructions if stats.arch_instructions else 0.0
    )
    return SampledRunResult(
        stats=stats,
        estimated_cpi=float(extra.get("estimated_cpi", fallback_cpi)),
        estimated_cycles=stats.cycles,
        error_bound=float(extra.get("error_bound", 0.0)),
        total_instructions=int(extra.get("total_instructions", stats.arch_instructions)),
        num_intervals=int(extra.get("num_intervals", 0)),
        num_clusters=int(extra.get("num_clusters", 0)),
        interval_length=int(extra.get("interval_length", 0)),
        detailed_instructions=int(extra.get("detailed_instructions", 0)),
        cached=True,
    )


def run_workload_sampled(
    workload,
    machine: Optional[MachineConfig] = None,
    config: Optional[SamplingConfig] = None,
    use_cache: bool = True,
) -> SampledRunResult:
    """Sampled-simulate one workload, read through the experiment
    runner's cache and result store like any other cell."""
    from ..experiments.runner import _cell

    return _cell(workload, machine or default_machine(), use_cache,
                 config or SamplingConfig())


# ---------------------------------------------------------------------------
# Metrics catalog for the sampling subsystem (collected off
# SampledRunResult; see docs/observability.md).
# ---------------------------------------------------------------------------

_metrics.register(
    _metrics.MetricSpec(
        "sampling.total_instructions", _metrics.COUNTER, "sampling",
        "Dynamic instructions in the fast-forwarded whole program",
        unit="instructions", source="total_instructions"),
    _metrics.MetricSpec(
        "sampling.intervals", _metrics.GAUGE, "sampling",
        "Profiled fixed-length instruction intervals",
        unit="intervals", source="num_intervals"),
    _metrics.MetricSpec(
        "sampling.clusters", _metrics.GAUGE, "sampling",
        "k-means clusters (= detailed windows simulated)",
        unit="clusters", source="num_clusters"),
    _metrics.MetricSpec(
        "sampling.detailed_instructions", _metrics.COUNTER, "sampling",
        "Instructions simulated in detail (warmup + measured windows)",
        unit="instructions", source="detailed_instructions"),
    _metrics.MetricSpec(
        "sampling.detailed_fraction", _metrics.GAUGE, "sampling",
        "Detailed instructions / total instructions (sampling savings)",
        derive=lambda r: r.detailed_fraction),
    _metrics.MetricSpec(
        "sampling.estimated_cpi", _metrics.GAUGE, "sampling",
        "Extrapolated whole-program cycles per instruction",
        unit="cpi", source="estimated_cpi"),
    _metrics.MetricSpec(
        "sampling.error_bound", _metrics.GAUGE, "sampling",
        "Relative 95% half-width of the CPI estimate (cluster dispersion)",
        source="error_bound"),
    _metrics.MetricSpec(
        "sampling.fast_forward_rate", _metrics.GAUGE, "sampling",
        "Fast-forward profiling throughput",
        unit="instr/s", source="ff_instructions_per_second"),
)
