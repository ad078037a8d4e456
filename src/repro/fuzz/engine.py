"""The seed-pinned fuzzing session: generate, mutate, execute, minimize.

A session is fully determined by its :class:`FuzzConfig`: case ``i`` of a
session draws everything (base program, mutation count, mutator choices)
from a private ``random.Random`` derived from ``(seed, i)``, and the
minimizer is a greedy deterministic descent — so the same config replays
to byte-identical survivors and corpus files, which is the contract
``repro fuzz`` advertises and the regression corpus relies on.

Every generated case is compiled with the static dependence analysis
attached, run once on the functional executor (golden model) and once on
the LoopFrog core, then shown to the oracle registry
(:mod:`repro.fuzz.oracles`).  A case that fires an oracle is *minimized*:
structural simplifications first (drop loops, drop statements, remove
nesting), numeric shrinking second (trip, stride, offset, scale,
distance), each step kept only if the same oracle still fires.

A minimization step asks one oracle, so it runs only what that oracle
reads (:data:`~repro.fuzz.oracles.ORACLE_READS`): the LoopFrog core
always, the functional executor and the memory images only for
``state_divergence``, the static analysis only for the verdict oracles.
Every candidate of a descent keeps the case's input seed, so the case's
input is built once and each run gets a copy; and a candidate the descent
meets again reuses its verdict.  Neither shortcut changes the descent,
its execution count or the survivors: a session replays byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..compiler import CompileOptions, compile_frog
from ..errors import ExecutionError, ReproError
from ..obs import metrics as _metrics
from ..uarch import LoopFrogCore
from ..uarch.executor import Executor
from ..uarch.memory_state import SparseMemory
from .model import LoopSpec, ProgramSpec, StmtSpec, generate_program
from .mutators import apply_mutations
from .oracles import (
    EVERYTHING,
    IMAGES,
    ORACLE_READS,
    ORACLES,
    VERDICTS,
    FuzzCase,
    evaluate_case,
)

# Bounds one candidate's execution so a pathological mutant cannot hang
# the session (the model's size caps keep real cases far below this).
CASE_MAX_CYCLES = 2_000_000
CASE_MAX_INSTRUCTIONS = 2_000_000


@dataclass(frozen=True)
class FuzzConfig:
    """Session parameters (the reproducibility key)."""

    seed: int = 0
    budget: int = 50           # number of generated cases
    max_mutations: int = 3     # mutations applied per case (0..max)
    minimize_steps: int = 160  # execution cap per survivor minimization


@dataclass
class Survivor:
    """One minimized interesting program."""

    name: str
    oracle: str
    detail: str
    case_seed: int
    mutations: Tuple[str, ...]
    program: ProgramSpec

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "oracle": self.oracle,
            "detail": self.detail,
            "case_seed": self.case_seed,
            "mutations": list(self.mutations),
            "program": self.program.to_dict(),
        }


@dataclass
class FuzzReport:
    """Outcome of one session (the ``fuzz.session.*`` collection target)."""

    seed: int
    budget: int
    cases: int = 0
    executions: int = 0        # candidates evaluated, minimization included
    crashes: int = 0
    survivors: List[Survivor] = field(default_factory=list)
    oracle_counts: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def programs_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.executions / self.wall_seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "cases": self.cases,
            "executions": self.executions,
            "crashes": self.crashes,
            "oracle_counts": dict(sorted(self.oracle_counts.items())),
            "survivors": [s.to_dict() for s in self.survivors],
        }


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute_spec(
    spec: ProgramSpec,
    reads: FrozenSet[str] = EVERYTHING,
    inputs: Optional[Tuple[SparseMemory, Dict[str, int]]] = None,
) -> FuzzCase:
    """Compile + run one candidate: the LoopFrog core always, the rest
    as ``reads`` asks.

    ``reads`` holds the parts besides the SimStats that the caller's
    oracles read (:data:`~repro.fuzz.oracles.ORACLE_READS`; default all):
    ``IMAGES`` runs the functional executor and keeps both final memory
    images, ``VERDICTS`` compiles with the static analysis attached.  A
    part not run is ``None`` on the case.  ``inputs`` is
    ``spec.fresh_input()`` when the caller has built it; each model runs
    on its own copy of the memory.

    Raises :class:`~repro.errors.ReproError` on compile or runtime
    failure — the session records those as crashes.
    """
    source = spec.render()
    images, verdicts = IMAGES in reads, VERDICTS in reads
    result = compile_frog(
        source, CompileOptions(static_analysis=verdicts, name="fuzz")
    )
    memory, regs = inputs if inputs is not None else spec.fresh_input()
    exec_image = frog_image = None
    if images:
        ex = Executor(result.program, memory.copy())
        ex.regs.update(regs)
        ex.run(max_instructions=CASE_MAX_INSTRUCTIONS)
        exec_image = ex.memory.image()

    sim = LoopFrogCore().run(
        result.program, memory.copy(), regs, max_cycles=CASE_MAX_CYCLES
    )
    if images:
        frog_image = sim.memory.image()
    elif sim.instructions > CASE_MAX_INSTRUCTIONS:
        # The core commits exactly the executor's instructions, HALT
        # included: reject what the executor's budget would have.
        raise ExecutionError(
            f"{result.program.name} exceeded {CASE_MAX_INSTRUCTIONS} "
            f"instructions"
        )
    return FuzzCase(
        spec=spec,
        source=source,
        compile_result=result if verdicts else None,
        exec_image=exec_image,
        frog_image=frog_image,
        stats=sim.stats,
    )


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def _shrink_candidates(spec: ProgramSpec) -> List[ProgramSpec]:
    """Strictly-simpler neighbours, structural first, deterministic order."""
    out: List[ProgramSpec] = []

    def with_loop(index: int, loop: LoopSpec) -> ProgramSpec:
        loops = list(spec.loops)
        loops[index] = loop
        return ProgramSpec(loops=tuple(loops), input_seed=spec.input_seed)

    def loop_with(loop: LoopSpec, **kwargs) -> LoopSpec:
        fields = {
            "trip": loop.trip, "stride": loop.stride,
            "offset": loop.offset, "pragma": loop.pragma,
            "nested_trip": loop.nested_trip, "stmts": loop.stmts,
        }
        fields.update(kwargs)
        return LoopSpec(**fields)

    # Drop whole loops.
    if len(spec.loops) > 1:
        for i in range(len(spec.loops)):
            loops = spec.loops[:i] + spec.loops[i + 1:]
            out.append(ProgramSpec(loops=loops, input_seed=spec.input_seed))
    for i, loop in enumerate(spec.loops):
        # Drop statements.
        if len(loop.stmts) > 1:
            for k in range(len(loop.stmts)):
                stmts = loop.stmts[:k] + loop.stmts[k + 1:]
                out.append(with_loop(i, loop_with(loop, stmts=stmts)))
        # Remove nesting.
        if loop.nested_trip:
            out.append(with_loop(i, loop_with(loop, nested_trip=0)))
        # Shrink trip count.
        for trip in (0, 1, 2, 3, 5, 8):
            if trip < loop.trip:
                out.append(with_loop(i, loop_with(loop, trip=trip)))
        # Normalize stride / offset.
        if loop.stride > 1:
            out.append(with_loop(i, loop_with(loop, stride=1)))
        if loop.offset > 0:
            out.append(with_loop(i, loop_with(loop, offset=0)))
        # Shrink statement constants.
        for k, stmt in enumerate(loop.stmts):
            simpler = []
            if stmt.scale != 1:
                simpler.append(StmtSpec(kind=stmt.kind, scale=1,
                                        distance=stmt.distance))
            if stmt.distance > 1:
                simpler.append(StmtSpec(kind=stmt.kind, scale=stmt.scale,
                                        distance=1))
            for new in simpler:
                stmts = loop.stmts[:k] + (new,) + loop.stmts[k + 1:]
                out.append(with_loop(i, loop_with(loop, stmts=stmts)))
    return out


def minimize(
    spec: ProgramSpec,
    still_interesting: Callable[[ProgramSpec], Optional[str]],
    max_steps: int = 160,
    detail: Optional[str] = None,
) -> Tuple[ProgramSpec, str, int]:
    """Greedy descent: accept the first simpler neighbour that still
    fires, restart from it, stop at a fixpoint or the execution cap.

    ``detail`` is what ``still_interesting(spec)`` returns, when the
    caller already has it; otherwise ``spec`` is checked first.  Each
    distinct candidate is checked once: one the descent meets again (a
    neighbour of an earlier spec too) reuses its verdict, and still
    counts toward ``max_steps`` and the returned executions, as if it ran.
    Returns ``(minimized_spec, final_detail, executions_used)``.
    """
    if detail is None:
        detail = still_interesting(spec)
        if detail is None:
            raise ValueError("minimize() called on an uninteresting spec")
    verdicts: Dict[ProgramSpec, Optional[str]] = {spec: detail}
    executions = 0
    progress = True
    while progress and executions < max_steps:
        progress = False
        for candidate in _shrink_candidates(spec):
            if executions >= max_steps:
                break
            executions += 1
            if candidate not in verdicts:
                verdicts[candidate] = still_interesting(candidate)
            new_detail = verdicts[candidate]
            if new_detail is not None:
                spec = candidate
                detail = new_detail
                progress = True
                break
    return spec, detail, executions


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


def _case_rng(seed: int, index: int) -> random.Random:
    # Stable across platforms/sessions: a pure integer mix, no hash().
    return random.Random((seed * 1_000_003 + index) & 0xFFFF_FFFF_FFFF)


def session_case(config: FuzzConfig,
                 index: int) -> Tuple[ProgramSpec, List[str]]:
    """Case ``index`` of a session: ``(program, mutator names)``."""
    rng = _case_rng(config.seed, index)
    base = generate_program(rng)
    count = rng.randint(0, config.max_mutations)
    return apply_mutations(base, rng, count)


def survivor_name(oracle: str, program: ProgramSpec) -> str:
    payload = json.dumps(
        [oracle, program.to_dict()], sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:8]
    return f"{oracle}_{digest}"


def run_fuzz(
    config: FuzzConfig,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run one deterministic fuzzing session."""
    report = FuzzReport(seed=config.seed, budget=config.budget)
    seen: Dict[str, Survivor] = {}
    start = time.perf_counter()

    for index in range(config.budget):
        spec, mutations = session_case(config, index)
        report.cases += 1
        report.executions += 1
        inputs = spec.fresh_input()  # for the case and its descent
        try:
            case = execute_spec(spec, inputs=inputs)
        except ReproError as exc:
            report.crashes += 1
            report.oracle_counts["crash"] = (
                report.oracle_counts.get("crash", 0) + 1
            )
            if log:
                log(f"case {index}: crash: {exc}")
            continue

        outcomes = evaluate_case(case)
        for outcome in outcomes:
            report.oracle_counts[outcome.oracle] = (
                report.oracle_counts.get(outcome.oracle, 0) + 1
            )
        if not outcomes:
            continue
        # File under the highest-severity firing oracle.
        oracle = outcomes[0].oracle
        oracle_fn = ORACLES[oracle]
        reads = ORACLE_READS[oracle]

        def still_interesting(candidate: ProgramSpec) -> Optional[str]:
            try:
                return oracle_fn(execute_spec(candidate, reads, inputs))
            except ReproError:
                return None

        minimized, detail, used = minimize(
            spec, still_interesting, max_steps=config.minimize_steps,
            detail=outcomes[0].detail,
        )
        report.executions += used
        name = survivor_name(oracle, minimized)
        if name not in seen:
            survivor = Survivor(
                name=name,
                oracle=oracle,
                detail=detail,
                case_seed=index,
                mutations=tuple(mutations),
                program=minimized,
            )
            seen[name] = survivor
            report.survivors.append(survivor)
            if log:
                log(f"case {index}: {oracle}: {detail} -> {name}")

    report.wall_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Metrics (docs/observability.md section `fuzz`)
# ---------------------------------------------------------------------------

_metrics.register(
    _metrics.MetricSpec("fuzz.session.cases", _metrics.COUNTER, "fuzz",
                        "Generated candidate programs in one session",
                        unit="programs", source="cases"),
    _metrics.MetricSpec("fuzz.session.executions", _metrics.COUNTER, "fuzz",
                        "Candidate programs evaluated, minimization steps "
                        "included",
                        unit="programs", source="executions"),
    _metrics.MetricSpec("fuzz.session.crashes", _metrics.COUNTER, "fuzz",
                        "Candidates that failed to compile or run",
                        unit="programs", source="crashes"),
    _metrics.MetricSpec("fuzz.session.survivors", _metrics.COUNTER, "fuzz",
                        "Unique minimized survivors found",
                        unit="programs",
                        derive=lambda r: len(r.survivors)),
    _metrics.MetricSpec("fuzz.session.oracle_hits", _metrics.HISTOGRAM,
                        "fuzz",
                        "Oracle firings by oracle name (pre-dedup)",
                        unit="cases", source="oracle_counts"),
    _metrics.MetricSpec("fuzz.session.programs_per_second", _metrics.GAUGE,
                        "fuzz",
                        "Mutated+executed program throughput of the session",
                        unit="programs/s",
                        derive=lambda r: r.programs_per_second),
)
