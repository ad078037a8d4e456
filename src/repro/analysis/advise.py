"""``repro advise``: static loop-profitability model over abstract facts.

LoopFrog's compiler picks loops by *profiling* (paper §5.1): run once,
measure, annotate what paid off.  This module is the static shortcut —
a profitability model over the facts the dependence analyzer and the
abstract interpreter already derive per loop, with no simulation:

* **squash risk** — how likely the conflict detector is to squash the
  loop's threadlets, from the dependence verdict and its witness (a
  proven distance-1/2 overlap is near-certain squashing; an unresolved
  non-affine address is a coin flip the paper's prototype happily takes,
  because squashed threadlets still prefetch);
* **predicted trip count** — the abstract IV ranges bound how many
  iterations an epoch can draw from;
* **epoch shape** — body size against the packing target predicts the
  packing factor and epoch iteration count (§4.3);
* **loop character** — a static guess at the §6.4 gain taxonomy, from
  the shape of the loop's memory accesses.

Per loop this yields a ranked :class:`LoopAdvice` with stable
``advise-*`` reason ids, surfaced by the ``repro advise`` CLI and
consumed by the ``speculate="analyze"`` hint policy, which gates
annotation on predicted profitability.  :func:`validate_advise` scores
the predictions against observed squashes and the analyze-vs-always
squash delta across the workload suites, mirroring ``lint --validate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..compiler import CompileOptions, CompileResult, compile_frog
from ..compiler.depanal import (
    BAIL_LOADED_VALUE,
    VERDICT_INDEPENDENT,
    VERDICT_MUST_CONFLICT,
    LoopDependence,
)
from ..obs import metrics as _metrics
from ..workloads.base import (
    CATEGORY_BRANCH_PREFETCH,
    CATEGORY_DATA_PREFETCH,
    CATEGORY_DEPCHAIN,
    CATEGORY_MEMORY,
)

# Stable advice-reason identifiers (enum-like; tools key on these).
REASON_PROFITABLE = "advise-profitable"
REASON_NOT_ANNOTATABLE = "advise-not-annotatable"
REASON_MUST_CONFLICT = "advise-must-conflict"
REASON_HIGH_SQUASH_RISK = "advise-high-squash-risk"
REASON_SHORT_TRIP = "advise-short-trip"
ADVISE_REASONS = frozenset({
    REASON_PROFITABLE,
    REASON_NOT_ANNOTATABLE,
    REASON_MUST_CONFLICT,
    REASON_HIGH_SQUASH_RISK,
    REASON_SHORT_TRIP,
})

# A loop whose predicted squash risk reaches this threshold is gated by
# the "analyze" policy.  Calibration: proven small-distance overlaps
# (risk 0.85) squash nearly every epoch, while unresolved non-affine
# addresses (risk 0.5) are exactly the speculation the paper's prototype
# profits from even when squashed (prefetch side effects, §6.4) — so the
# threshold sits between the two.
RISK_THRESHOLD = 0.75

# Minimum predicted trip count worth an epoch: below this the loop body
# completes at most once, so detaching threadlets is pure overhead.
MIN_PREDICTED_TRIP = 2

# Committed CI floor: of the observed loops the model gates, at least
# this fraction must actually squash (tools/ci checks it via
# ``repro advise --validate``).
ADVISE_GATED_PRECISION_FLOOR = 0.5

# Witness-reason base risks for may-conflict loops.  Proven overlaps at
# small distance are near-certain squashes; wider windows squash some
# epochs; unresolved addresses are genuinely unknown.
_NEAR_CERTAIN_REASONS = ("granule-overlap", "loop-invariant-address",
                         "abs-exact-overlap")
_RISK_NEAR_CERTAIN = 0.85
_RISK_WIDE_WINDOW = 0.6
_RISK_UNKNOWN = 0.5


def squash_risk(dep: LoopDependence) -> float:
    """Predicted probability in [0, 1] that speculation on this loop
    squashes, from the static verdict and its witness."""
    if dep.verdict == VERDICT_INDEPENDENT:
        return 0.0
    if dep.verdict == VERDICT_MUST_CONFLICT:
        return 1.0
    witness = dep.witness
    if witness is None:
        return _RISK_UNKNOWN
    if witness.reason in _NEAR_CERTAIN_REASONS:
        distance = witness.distance
        if distance is not None and distance <= 2:
            return _RISK_NEAR_CERTAIN
        return _RISK_WIDE_WINDOW
    return _RISK_UNKNOWN


def predicted_unprofitable(dep: LoopDependence) -> Optional[str]:
    """Why the ``analyze`` hint policy should not speculate on this loop
    (``None`` = speculation predicted profitable).  Uses only the
    dependence facts, so the hint pass can gate before transforming."""
    risk = squash_risk(dep)
    if risk >= RISK_THRESHOLD:
        return (
            f"predicted squash risk {risk:.2f} >= {RISK_THRESHOLD:.2f} "
            f"({dep.witness.reason if dep.witness else dep.verdict})"
        )
    trip = dep.trip_bound
    if trip is not None and trip < MIN_PREDICTED_TRIP:
        return (
            f"predicted trip count {trip} cannot fill an epoch "
            f"(minimum {MIN_PREDICTED_TRIP})"
        )
    return None


def _guess_category(dep: LoopDependence, trip_bound: Optional[int]) -> str:
    """Best-effort static guess at the §6.4 gain taxonomy.

    The dynamic classifier (:mod:`repro.analysis.categorize`) works from
    measured MPKI/miss rates; this guess works from access shape only and
    is advisory — the validation harness scores risk, not category.
    """
    if any(a.bail == BAIL_LOADED_VALUE for a in dep.accesses):
        return CATEGORY_DATA_PREFETCH   # data-dependent (indirect) accesses
    if len(dep.accesses) >= 8:
        return CATEGORY_MEMORY          # wide per-iteration memory footprint
    if trip_bound is None:
        return CATEGORY_BRANCH_PREFETCH  # data-dependent trip/exit condition
    return CATEGORY_DEPCHAIN


@dataclass
class LoopAdvice:
    """Profitability prediction for one marked loop."""

    header: str
    line: int
    annotated: bool                 # the hint pass found a legal placement
    verdict: str
    resolved_by: str                # affine | absint
    squash_risk: float
    predicted_trip: Optional[int]   # abstract trip-count bound, if any
    body_instrs: int                # parallel-body size (0 if unannotated)
    packing_factor: int             # predicted iterations packed per threadlet
    packing_feasible: bool
    epoch_iterations: int           # predicted iterations per epoch
    category: str                   # §6.4 taxonomy guess
    score: float                    # ranking key (higher = more attractive)
    reasons: List[str] = field(default_factory=list)  # stable advise-* ids
    hint_reason: str = ""           # hint-pass reject reason, if unannotated

    @property
    def profitable(self) -> bool:
        return self.reasons == [REASON_PROFITABLE]

    def to_dict(self) -> dict:
        return {
            "header": self.header,
            "line": self.line,
            "annotated": self.annotated,
            "verdict": self.verdict,
            "resolved_by": self.resolved_by,
            "squash_risk": self.squash_risk,
            "predicted_trip": self.predicted_trip,
            "body_instrs": self.body_instrs,
            "packing_factor": self.packing_factor,
            "packing_feasible": self.packing_feasible,
            "epoch_iterations": self.epoch_iterations,
            "category": self.category,
            "score": self.score,
            "profitable": self.profitable,
            "reasons": list(self.reasons),
            "hint_reason": self.hint_reason,
        }


@dataclass
class FileAdvice:
    """Ranked per-loop advice for one Frog source file."""

    path: str
    loops: List[LoopAdvice]

    def to_dict(self) -> dict:
        return {"file": self.path, "loops": [a.to_dict() for a in self.loops]}


def _body_size(result: CompileResult, report, entry: str) -> int:
    """IR instruction count of the annotated parallel body."""
    if not report.annotated or result.ir is None:
        return 0
    func = result.ir
    total = 0
    for name in report.body_blocks:
        try:
            total += len(func.block(name).instrs)
        except Exception:
            return 0
    return total


def advise_result(
    result: CompileResult,
    path: str = "<string>",
    entry: str = "main",
    machine=None,
) -> FileAdvice:
    """Build ranked advice from an already-compiled result (must have been
    compiled with ``static_analysis=True``)."""
    from ..uarch.config import default_machine

    if machine is None:
        machine = default_machine()
    lf = machine.loopfrog
    pack_target = lf.packing_target_size or machine.core.rob_size

    by_header = {r.header: r for r in result.hint_reports}
    advices: List[LoopAdvice] = []
    for header, dep in (result.dependence or {}).items():
        report = by_header.get(header)
        annotated = report is not None and report.annotated
        risk = squash_risk(dep)
        trip = dep.trip_bound
        body = _body_size(result, report, entry) if report else 0

        if annotated and body:
            factor = max(1, min(lf.packing_max_factor, pack_target // body))
        else:
            factor = 1
        packing_feasible = bool(lf.packing_enabled and factor > 1)
        epoch = lf.num_threadlets * factor
        if trip is not None:
            epoch = min(epoch, max(trip, 0))

        reasons: List[str] = []
        if not annotated:
            reasons.append(REASON_NOT_ANNOTATABLE)
        if dep.verdict == VERDICT_MUST_CONFLICT:
            reasons.append(REASON_MUST_CONFLICT)
        elif risk >= RISK_THRESHOLD:
            reasons.append(REASON_HIGH_SQUASH_RISK)
        if trip is not None and trip < MIN_PREDICTED_TRIP:
            reasons.append(REASON_SHORT_TRIP)
        if not reasons:
            reasons = [REASON_PROFITABLE]

        # Ranking: expected covered work = body size x iterations an epoch
        # can realistically draw, discounted by the squash probability.
        horizon = min(trip, 64) if trip is not None else 64
        score = 0.0
        if annotated:
            score = round(body * max(horizon, 0) * (1.0 - risk), 1)

        advices.append(LoopAdvice(
            header=header,
            line=dep.line,
            annotated=annotated,
            verdict=dep.verdict,
            resolved_by=dep.resolved_by,
            squash_risk=risk,
            predicted_trip=trip,
            body_instrs=body,
            packing_factor=factor,
            packing_feasible=packing_feasible,
            epoch_iterations=epoch,
            category=_guess_category(dep, trip),
            score=score,
            reasons=reasons,
            hint_reason=report.reason if report else "",
        ))
    advices.sort(key=lambda a: (-a.score, a.line, a.header))
    return FileAdvice(path=path, loops=advices)


def advise_source(
    source: str,
    path: str = "<string>",
    entry: str = "main",
    machine=None,
) -> FileAdvice:
    """Compile ``source`` with static analysis and rank its loops."""
    from ..compiler import HintOptions
    from ..uarch.config import default_machine

    if machine is None:
        machine = default_machine()
    options = CompileOptions(
        entry=entry,
        static_analysis=True,
        hint_options=HintOptions(
            granule_bytes=machine.loopfrog.granule_bytes
        ),
    )
    return advise_result(
        compile_frog(source, options), path=path, entry=entry, machine=machine
    )


def render_advice(advice: FileAdvice) -> str:
    """Human-readable ranked advice for one file."""
    lines = [f"{advice.path}:"]
    if not advice.loops:
        lines.append("  no #pragma loopfrog loops")
        return "\n".join(lines)
    for rank, loop in enumerate(advice.loops, 1):
        where = f"line {loop.line}" if loop.line else "line ?"
        trip = "?" if loop.predicted_trip is None else str(loop.predicted_trip)
        lines.append(
            f"  #{rank} loop at {where} ({loop.header}): "
            f"{'speculate' if loop.profitable else 'skip'} "
            f"[{', '.join(loop.reasons)}]"
        )
        lines.append(
            f"      risk {loop.squash_risk:.2f}, verdict {loop.verdict} "
            f"({loop.resolved_by}), trip<={trip}, body {loop.body_instrs} "
            f"instrs, epoch ~{loop.epoch_iterations} iters "
            f"(pack x{loop.packing_factor}), {loop.category}, "
            f"score {loop.score}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Suite validation: predictions vs. observed squashes and the gated delta
# ---------------------------------------------------------------------------


@dataclass
class AdviseRow:
    """One annotated loop: prediction vs. always-policy observation."""

    workload: str
    header: str
    line: int
    squash_risk: float
    gated: bool          # the analyze policy would reject this loop
    category: str
    observed: bool       # region spawned at least one epoch (always policy)
    squashes: int        # observed squashes under the always policy

    @property
    def squashed(self) -> bool:
        return self.squashes > 0

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "header": self.header,
            "line": self.line,
            "squash_risk": self.squash_risk,
            "gated": self.gated,
            "category": self.category,
            "observed": self.observed,
            "squashes": self.squashes,
        }


@dataclass
class GateOutcome:
    """Always-vs-analyze comparison for one workload the policy gates."""

    workload: str
    gated_headers: List[str]
    squashes_always: int
    squashes_analyze: int
    cycles_always: int
    cycles_analyze: int

    @property
    def squashes_avoided(self) -> int:
        return self.squashes_always - self.squashes_analyze

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "gated_headers": list(self.gated_headers),
            "squashes_always": self.squashes_always,
            "squashes_analyze": self.squashes_analyze,
            "squashes_avoided": self.squashes_avoided,
            "cycles_always": self.cycles_always,
            "cycles_analyze": self.cycles_analyze,
        }


def _ratio(num: int, den: int) -> float:
    return num / den if den else 1.0


@dataclass
class AdviseValidationReport:
    """Profitability predictions vs. run-time squashes over the suites."""

    suites: List[str]
    rows: List[AdviseRow] = field(default_factory=list)
    gate_outcomes: List[GateOutcome] = field(default_factory=list)

    @property
    def loops_total(self) -> int:
        return len(self.rows)

    @property
    def loops_gated(self) -> int:
        return sum(1 for r in self.rows if r.gated)

    @property
    def loops_accepted(self) -> int:
        return sum(1 for r in self.rows if not r.gated)

    @property
    def gated_observed(self) -> int:
        return sum(1 for r in self.rows if r.gated and r.observed)

    @property
    def gated_squash_hits(self) -> int:
        return sum(
            1 for r in self.rows if r.gated and r.observed and r.squashed
        )

    @property
    def gated_precision(self) -> float:
        """Of the observed loops the model gates, the fraction that really
        squash under the always policy (predictive power of the gate)."""
        return _ratio(self.gated_squash_hits, self.gated_observed)

    @property
    def accepted_clean_rate(self) -> float:
        """Of the observed loops the model accepts, the fraction that run
        squash-free.  Informational: accepting a squashing loop can still
        profit via prefetch (§6.4), so no floor applies here."""
        accepted = [r for r in self.rows if not r.gated and r.observed]
        clean = sum(1 for r in accepted if not r.squashed)
        return _ratio(clean, len(accepted))

    @property
    def squashes_avoided(self) -> int:
        return sum(o.squashes_avoided for o in self.gate_outcomes)

    @property
    def workloads_gated(self) -> int:
        return len(self.gate_outcomes)

    @property
    def workloads_squash_reduced(self) -> int:
        return sum(1 for o in self.gate_outcomes if o.squashes_avoided > 0)

    def failures(self) -> List[str]:
        """CI-gating problems: empty when the model meets its floors."""
        problems: List[str] = []
        if self.gated_precision < ADVISE_GATED_PRECISION_FLOOR:
            problems.append(
                f"gated-loop squash precision {self.gated_precision:.2f} "
                f"below the committed floor "
                f"{ADVISE_GATED_PRECISION_FLOOR:.2f}"
            )
        if self.gate_outcomes and self.workloads_squash_reduced == 0:
            problems.append(
                "the analyze policy gated loops on "
                f"{self.workloads_gated} workload(s) without reducing "
                "squashes on any of them"
            )
        return problems

    def to_dict(self) -> dict:
        return {
            "suites": self.suites,
            "loops_total": self.loops_total,
            "loops_gated": self.loops_gated,
            "loops_accepted": self.loops_accepted,
            "gated_precision": self.gated_precision,
            "accepted_clean_rate": self.accepted_clean_rate,
            "squashes_avoided": self.squashes_avoided,
            "workloads_gated": self.workloads_gated,
            "workloads_squash_reduced": self.workloads_squash_reduced,
            "failures": self.failures(),
            "rows": [r.to_dict() for r in self.rows],
            "gate_outcomes": [o.to_dict() for o in self.gate_outcomes],
        }


def validate_advise(
    suites: Optional[Sequence[str]] = None,
    machine=None,
) -> AdviseValidationReport:
    """Score profitability predictions against observed behaviour.

    Two passes per suite workload: the (cached) always-policy run scores
    each prediction against observed squashes; then every workload with
    at least one gated loop is recompiled under ``speculate="analyze"``
    and simulated once more (uncached) to measure the squash/cycle delta
    the gate actually buys.  Every workload is side-compiled first, and
    the always-policy runs go to the runner in one call, across
    ``default_jobs()`` processes; the analyze reruns stay serial.
    """
    import copy

    from ..compiler import HintOptions
    from ..experiments.runner import _prefetch, default_jobs, run_workload
    from ..uarch.config import default_machine
    from ..workloads import SUITE_NAMES, suite

    if machine is None:
        machine = default_machine()
    suite_names = list(suites) if suites else list(SUITE_NAMES)
    granule = machine.loopfrog.granule_bytes

    report = AdviseValidationReport(suites=suite_names)
    seen: set = set()
    compiled: list = []
    for suite_name in suite_names:
        for benchmark in suite(suite_name):
            for workload, _weight in benchmark.phases:
                if workload.name in seen:
                    continue
                seen.add(workload.name)
                side = compile_frog(
                    workload.source,
                    CompileOptions(
                        name=workload.name, static_analysis=True,
                        hint_options=HintOptions(granule_bytes=granule),
                    ),
                )
                advice = advise_result(
                    side, path=workload.name, machine=machine
                )
                annotated = {
                    a.header: a for a in advice.loops if a.annotated
                }
                if annotated:
                    compiled.append((workload, side, annotated))
    _prefetch([(w, machine) for w, _, _ in compiled], default_jobs())
    for workload, side, annotated in compiled:
        by_header = {r.header: r for r in side.hint_reports}
        stats = run_workload(workload, machine)
        gated_headers: List[str] = []
        for header, loop in annotated.items():
            hint = by_header[header]
            region = stats.regions.get(hint.region)
            observed = region is not None and region.epochs_spawned > 0
            gated = not loop.profitable
            if gated:
                gated_headers.append(header)
            report.rows.append(AdviseRow(
                workload=workload.name,
                header=header,
                line=loop.line,
                squash_risk=loop.squash_risk,
                gated=gated,
                category=loop.category,
                observed=observed,
                squashes=region.squash_conflicts if region else 0,
            ))
        if gated_headers:
            variant = copy.copy(workload)
            variant.name = workload.name + ":analyze"
            variant._compiled = compile_frog(
                workload.source,
                CompileOptions(
                    name=variant.name,
                    hint_options=HintOptions(
                        speculate="analyze",
                        granule_bytes=granule,
                    ),
                ),
            )
            gated_stats = run_workload(variant, machine, use_cache=False)
            report.gate_outcomes.append(GateOutcome(
                workload=workload.name,
                gated_headers=gated_headers,
                squashes_always=stats.squash_conflicts,
                squashes_analyze=gated_stats.squash_conflicts,
                cycles_always=stats.cycles,
                cycles_analyze=gated_stats.cycles,
            ))
    return report


def render_advise_validation(report: AdviseValidationReport) -> str:
    """Human-readable summary of the advise validation run."""
    lines = [
        f"suites: {', '.join(report.suites)}",
        f"loops: {report.loops_total} annotated, {report.loops_gated} "
        f"gated by the analyze policy, {report.loops_accepted} accepted",
        f"gated precision: {report.gated_precision:.2f} "
        f"(floor {ADVISE_GATED_PRECISION_FLOOR:.2f}); accepted clean "
        f"rate: {report.accepted_clean_rate:.2f}",
        "",
    ]
    for row in report.rows:
        mark = "squash" if row.squashed else (
            "clean" if row.observed else "unobserved"
        )
        gate = "gate" if row.gated else "keep"
        lines.append(
            f"  {row.workload:<18} {row.header:<12} risk "
            f"{row.squash_risk:.2f} {gate:>4} {mark:>10} "
            f"({row.squashes} squashes)"
        )
    if report.gate_outcomes:
        lines.append("")
        lines.append("analyze-policy deltas on gated workloads:")
        for o in report.gate_outcomes:
            lines.append(
                f"  {o.workload:<18} squashes {o.squashes_always} -> "
                f"{o.squashes_analyze} (avoided {o.squashes_avoided}), "
                f"cycles {o.cycles_always} -> {o.cycles_analyze}"
            )
    lines.append("")
    failures = report.failures()
    if failures:
        for f in failures:
            lines.append(f"FAIL: {f}")
    else:
        lines.append(
            f"advise: ok ({report.squashes_avoided} squashes avoided on "
            f"{report.workloads_squash_reduced}/{report.workloads_gated} "
            "gated workloads)"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Metrics catalog (collected from AdviseValidationReport —
# `default_registry().collect(report, "advise")`).
# ---------------------------------------------------------------------------

_metrics.register(
    _metrics.MetricSpec("advise.validate.loops_total", _metrics.COUNTER,
                        "advise",
                        "Annotated pragma loops scored by advise --validate",
                        unit="loops",
                        derive=lambda r: r.loops_total),
    _metrics.MetricSpec("advise.validate.loops_gated", _metrics.COUNTER,
                        "advise",
                        "Loops the analyze policy would reject as "
                        "predicted-unprofitable",
                        unit="loops",
                        derive=lambda r: r.loops_gated),
    _metrics.MetricSpec("advise.validate.loops_accepted", _metrics.COUNTER,
                        "advise",
                        "Loops the analyze policy accepts for speculation",
                        unit="loops",
                        derive=lambda r: r.loops_accepted),
    _metrics.MetricSpec("advise.validate.gated_precision", _metrics.GAUGE,
                        "advise",
                        "Observed gated loops that actually squashed under "
                        "the always policy (1.0 when none gated)",
                        unit="ratio",
                        derive=lambda r: r.gated_precision),
    _metrics.MetricSpec("advise.validate.accepted_clean_rate", _metrics.GAUGE,
                        "advise",
                        "Observed accepted loops that ran squash-free",
                        unit="ratio",
                        derive=lambda r: r.accepted_clean_rate),
    _metrics.MetricSpec("advise.validate.squashes_avoided", _metrics.COUNTER,
                        "advise",
                        "Conflict squashes removed by the analyze policy "
                        "across gated workloads",
                        unit="squashes",
                        derive=lambda r: r.squashes_avoided),
    _metrics.MetricSpec("advise.validate.workloads_gated", _metrics.COUNTER,
                        "advise",
                        "Workloads where the analyze policy gated a loop",
                        unit="workloads",
                        derive=lambda r: r.workloads_gated),
    _metrics.MetricSpec("advise.validate.workloads_squash_reduced",
                        _metrics.COUNTER,
                        "advise",
                        "Gated workloads whose squash count dropped under "
                        "the analyze policy",
                        unit="workloads",
                        derive=lambda r: r.workloads_squash_reduced),
)
