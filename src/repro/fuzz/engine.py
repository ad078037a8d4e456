"""The seed-pinned fuzzing session: generate, mutate, execute, minimize.

A session is fully determined by its :class:`FuzzConfig`: case ``i`` of a
session draws everything (base program, mutation count, mutator choices)
from a private ``random.Random`` derived from ``(seed, i)``, and the
minimizer is a greedy deterministic descent — so the same config replays
to byte-identical survivors and corpus files, which is the contract
``repro fuzz`` advertises and the regression corpus relies on.

Every candidate is compiled with the static dependence analysis attached,
run once on the functional executor (golden model) and once on the
LoopFrog core, then shown to the oracle registry
(:mod:`repro.fuzz.oracles`).  A case that fires an oracle is *minimized*:
structural simplifications first (drop loops, drop statements, remove
nesting), numeric shrinking second (trip, stride, offset, scale,
distance), each step kept only if the same oracle still fires.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..compiler import CompileOptions, compile_frog
from ..errors import ReproError
from ..obs import metrics as _metrics
from ..uarch import LoopFrogCore
from ..uarch.executor import Executor
from .model import LoopSpec, ProgramSpec, StmtSpec, generate_program
from .mutators import apply_mutations
from .oracles import ORACLES, FuzzCase, evaluate_case

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
    executions: int = 0        # including minimization re-runs
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


def execute_spec(spec: ProgramSpec) -> FuzzCase:
    """Compile + run one candidate on both reference and timing models.

    Raises :class:`~repro.errors.ReproError` on compile or runtime
    failure — the session records those as crashes.
    """
    source = spec.render()
    result = compile_frog(
        source, CompileOptions(static_analysis=True, name="fuzz")
    )

    # One input per execution: the executor runs on a copy, the engine on
    # the original (both mutate their memory in place).
    memory, regs = spec.fresh_input()
    ex = Executor(result.program, memory.copy())
    ex.regs.update(regs)
    ex.run(max_instructions=CASE_MAX_INSTRUCTIONS)

    sim = LoopFrogCore().run(
        result.program, memory, regs, max_cycles=CASE_MAX_CYCLES
    )
    return FuzzCase(
        spec=spec,
        source=source,
        compile_result=result,
        exec_image=ex.memory.image(),
        frog_image=sim.memory.image(),
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
) -> Tuple[ProgramSpec, str, int]:
    """Greedy descent: accept the first simpler neighbour that still
    fires, restart from it, stop at a fixpoint or the execution cap.

    Returns ``(minimized_spec, final_detail, executions_used)``.
    """
    detail = still_interesting(spec)
    if detail is None:
        raise ValueError("minimize() called on an uninteresting spec")
    executions = 0
    progress = True
    while progress and executions < max_steps:
        progress = False
        for candidate in _shrink_candidates(spec):
            if executions >= max_steps:
                break
            executions += 1
            new_detail = still_interesting(candidate)
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
        rng = _case_rng(config.seed, index)
        base = generate_program(rng)
        count = rng.randint(0, config.max_mutations)
        spec, mutations = apply_mutations(base, rng, count)
        report.cases += 1
        report.executions += 1
        try:
            case = execute_spec(spec)
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

        def still_interesting(candidate: ProgramSpec) -> Optional[str]:
            try:
                return oracle_fn(execute_spec(candidate))
            except ReproError:
                return None

        minimized, detail, used = minimize(
            spec, still_interesting, max_steps=config.minimize_steps
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
                        "Programs executed, including minimization re-runs",
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
