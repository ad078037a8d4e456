"""Interestingness oracles: what makes a fuzzed program worth keeping.

Each oracle inspects one executed :class:`FuzzCase` — the compiled
program (with static dependence verdicts attached), the functional
executor's final memory image, and the LoopFrog core's final image and
:class:`~repro.uarch.statistics.SimStats` — and returns a short
deterministic detail string when it fires, ``None`` otherwise.  Every
oracle reads the SimStats; :data:`ORACLE_READS` declares which of the
other parts it reads, so a minimization step that only asks one oracle
runs only those parts.

The registry is ordered by severity: differential state divergence (an
engine correctness bug) outranks analyzer/observed disagreements, which
outrank the throughput pathologies (squash storms, packing failures,
SSB overflow).  The fuzz engine files each survivor under its
highest-severity firing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional

from ..compiler.depanal import VERDICT_INDEPENDENT, VERDICT_MUST_CONFLICT
from .model import ProgramSpec

# Thresholds for the pathology oracles.  Derived from the repro.obs
# metrics the suite-level experiments read (uarch.core.threadlets_*,
# uarch.conflict.*, uarch.packing.*).
SQUASH_STORM_MIN_SPAWNED = 16
SQUASH_STORM_RATE = 0.6
SILENT_MUST_CONFLICT_MIN_EPOCHS = 4


# The parts of a run besides the LoopFrog core's SimStats, which every run
# has: an oracle reads none, one or both (ORACLE_READS).
IMAGES = "images"       # the functional executor run, both memory images
VERDICTS = "verdicts"   # the static dependence analysis
EVERYTHING: FrozenSet[str] = frozenset({IMAGES, VERDICTS})


@dataclass
class FuzzCase:
    """Everything the oracles may inspect about one executed candidate.

    A run scoped to one oracle leaves the parts that oracle does not read
    ``None``.
    """

    spec: ProgramSpec
    source: str
    compile_result: Optional[object]      # CompileResult with VERDICTS
    exec_image: Optional[Dict[int, int]]  # executor final memory (IMAGES)
    frog_image: Optional[Dict[int, int]]  # LoopFrog final memory (IMAGES)
    stats: object                         # SimStats of the LoopFrog run


@dataclass(frozen=True)
class OracleOutcome:
    """One oracle firing on one case."""

    oracle: str
    detail: str


def state_divergence(case: FuzzCase) -> Optional[str]:
    """Speculative execution committed different memory than the
    functional executor: an engine correctness bug, always a keeper."""
    if case.frog_image == case.exec_image:
        return None
    diffs = sorted(
        set(case.frog_image.items()) ^ set(case.exec_image.items())
    )
    addrs = sorted({addr for addr, _ in diffs})
    return (
        f"{len(addrs)} address(es) diverged from the functional "
        f"executor, first at {addrs[0]:#x}"
    )


def _annotated_reports(case: FuzzCase):
    return [r for r in case.compile_result.hint_reports if r.annotated]


def imprecise_verdict(case: FuzzCase) -> Optional[str]:
    """A loop the *abstract interpreter* settled as independent squashed
    on a conflict: an unsoundness in the PR-9 interval/congruence domains
    specifically (the affine stage had left the pair undecided).  Filed
    above the generic ``unsound_independent`` so absint-domain bugs do
    not hide behind the affine-stage bucket."""
    from ..compiler.depanal import STAGE_ABSINT

    dependence = getattr(case.compile_result, "dependence", None) or {}
    for report in _annotated_reports(case):
        if report.static_verdict != VERDICT_INDEPENDENT:
            continue
        dep = dependence.get(report.header)
        if dep is None or dep.resolved_by != STAGE_ABSINT:
            continue
        region = case.stats.regions.get(report.region)
        if region is not None and region.squash_conflicts > 0:
            return (
                f"region {report.region} proven independent by absint "
                f"({dep.pairs_abs_resolved} pair(s) resolved) but "
                f"squash_conflicts={region.squash_conflicts}"
            )
    return None


def unsound_independent(case: FuzzCase) -> Optional[str]:
    """Static verdict says independent, the conflict detector squashed:
    the PR-4 soundness contract violated on a generated program."""
    for report in _annotated_reports(case):
        if report.static_verdict != VERDICT_INDEPENDENT:
            continue
        region = case.stats.regions.get(report.region)
        if region is not None and region.squash_conflicts > 0:
            return (
                f"region {report.region} classified independent but "
                f"squash_conflicts={region.squash_conflicts}"
            )
    return None


def silent_must_conflict(case: FuzzCase) -> Optional[str]:
    """Static verdict says must-conflict, yet a real run with epochs
    spawned never squashed on a conflict — the analyzer and the machine
    disagree about a *certain* dependence."""
    for report in _annotated_reports(case):
        if report.static_verdict != VERDICT_MUST_CONFLICT:
            continue
        region = case.stats.regions.get(report.region)
        if (
            region is not None
            and region.epochs_spawned >= SILENT_MUST_CONFLICT_MIN_EPOCHS
            and region.squash_conflicts == 0
        ):
            return (
                f"region {report.region} classified must-conflict but "
                f"{region.epochs_spawned} epochs ran squash-free"
            )
    return None


def squash_storm(case: FuzzCase) -> Optional[str]:
    """Most spawned threadlets die: speculation is pure overhead here."""
    spawned = case.stats.threadlets_spawned
    squashed = case.stats.threadlets_squashed
    if spawned < SQUASH_STORM_MIN_SPAWNED:
        return None
    rate = squashed / spawned
    if rate < SQUASH_STORM_RATE:
        return None
    return (
        f"threadlets_squashed={squashed} of threadlets_spawned={spawned} "
        f"(rate {rate:.2f})"
    )


def packing_pathology(case: FuzzCase) -> Optional[str]:
    """Iteration packing mispredicted a trip count and forced squashes."""
    if case.stats.squash_packing <= 0:
        return None
    return (
        f"squash_packing={case.stats.squash_packing} over "
        f"packing_events={case.stats.packing_events}"
    )


def ssb_overflow(case: FuzzCase) -> Optional[str]:
    """A threadlet overflowed its speculative store buffer slice."""
    if case.stats.squash_overflow <= 0:
        return None
    return f"squash_overflow={case.stats.squash_overflow}"


# Ordered most-severe first; the engine reports the first firing oracle.
ORACLES: Dict[str, Callable[[FuzzCase], Optional[str]]] = {
    "state_divergence": state_divergence,
    "imprecise_verdict": imprecise_verdict,
    "unsound_independent": unsound_independent,
    "ssb_overflow": ssb_overflow,
    "packing_pathology": packing_pathology,
    "squash_storm": squash_storm,
    "silent_must_conflict": silent_must_conflict,
}


# What each oracle reads besides the SimStats.  A minimization step runs
# only this much of its candidate (execute_spec's ``reads``);
# tests/test_fuzz_engine.py holds every oracle to its entry.
ORACLE_READS: Dict[str, FrozenSet[str]] = {
    "state_divergence": frozenset({IMAGES}),
    "imprecise_verdict": frozenset({VERDICTS}),
    "unsound_independent": frozenset({VERDICTS}),
    "ssb_overflow": frozenset(),
    "packing_pathology": frozenset(),
    "squash_storm": frozenset(),
    "silent_must_conflict": frozenset({VERDICTS}),
}


def evaluate_case(case: FuzzCase) -> List[OracleOutcome]:
    """All firing oracles for a case, in severity order."""
    outcomes = []
    for name, oracle in ORACLES.items():
        detail = oracle(case)
        if detail is not None:
            outcomes.append(OracleOutcome(oracle=name, detail=detail))
    return outcomes
