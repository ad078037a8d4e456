"""``repro lint``: static dependence diagnostics and squash validation.

Two layers on top of :mod:`repro.compiler.depanal`:

* :func:`lint_source` / rendering — compile one Frog file with the static
  analysis enabled and format per-loop verdicts (human-readable or JSON)
  for the CLI and ``tools/froglint.py``.
* :func:`validate_suites` — the static/dynamic comparison harness.  Every
  workload of the requested suites is compiled with verdicts attached,
  simulated on the LoopFrog machine (through the ordinary cached
  ``run_workload`` path), and each annotated loop's verdict is checked
  against the conflict detector's observed squashes for that region.
  The resulting :class:`ValidationReport` carries per-verdict-class
  precision/recall and is the collection target for the ``lint.*``
  metrics below.

Soundness contract: a loop classified ``independent`` must never squash
on a memory conflict.  ``ValidationReport.soundness_violations`` counts
the loops breaking that contract; tests assert it is zero across every
suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..compiler import CompileOptions, CompileResult, compile_frog
from ..compiler.depanal import (
    STAGE_ABSINT,
    STAGE_AFFINE,
    VERDICT_INDEPENDENT,
    VERDICT_MAY_CONFLICT,
    VERDICT_MUST_CONFLICT,
    LoopDependence,
)
from ..obs import metrics as _metrics

# Committed floor on the abstract interpreter's resolution rate: of the
# (store, load) pairs the affine stage leaves uncertain, at least this
# fraction must be settled by absint across the validated suites.  The
# acceptance bar for the analysis PR; ``repro lint --validate`` fails
# below it, so precision regressions cannot land silently.
ABS_RESOLUTION_FLOOR = 0.30


# ---------------------------------------------------------------------------
# Per-file lint
# ---------------------------------------------------------------------------


@dataclass
class FileLint:
    """Lint outcome for one Frog source file."""

    path: str
    result: CompileResult

    @property
    def loops(self) -> List[LoopDependence]:
        order = {
            report.header: i for i, report in enumerate(self.result.hint_reports)
        }
        return sorted(
            self.result.dependence.values(),
            key=lambda dep: order.get(dep.header, len(order)),
        )

    def to_dict(self) -> dict:
        by_header = {r.header: r for r in self.result.hint_reports}
        loops = []
        for dep in self.loops:
            entry = dep.to_dict()
            report = by_header.get(dep.header)
            if report is not None:
                entry["annotated"] = report.annotated
                entry["reason"] = report.reason
            loops.append(entry)
        return {"file": self.path, "loops": loops}


def lint_source(
    source: str,
    path: str = "<string>",
    entry: str = "main",
    granule_bytes: int = 4,
) -> FileLint:
    """Compile ``source`` with static analysis and return its diagnostics."""
    from ..compiler import HintOptions

    options = CompileOptions(
        entry=entry,
        static_analysis=True,
        hint_options=HintOptions(granule_bytes=granule_bytes),
    )
    return FileLint(path=path, result=compile_frog(source, options))


def render_lint(lint: FileLint) -> str:
    """Human-readable per-loop diagnostics for one linted file."""
    lines = [f"{lint.path}:"]
    if not lint.loops:
        lines.append("  no #pragma loopfrog loops")
        return "\n".join(lines)
    for dep in lint.loops:
        where = f"line {dep.line}" if dep.line else "line ?"
        via = " (via absint)" if dep.resolved_by == STAGE_ABSINT else ""
        lines.append(f"  loop at {where} ({dep.header}): {dep.describe()}{via}")
        # Accesses the pair tester could not express as affine addresses,
        # with the stable bail-reason id explaining why (BAIL_* ids from
        # repro.compiler.depanal).
        for access in dep.accesses:
            if access.addr is None and access.bail:
                a_where = f"line {access.line}" if access.line else "line ?"
                lines.append(
                    f"    unresolved {access.kind} at {a_where}: "
                    f"{access.text} [{access.bail}]"
                )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Squash validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationRow:
    """One annotated loop of one workload, static verdict vs. run time."""

    workload: str
    header: str
    line: int
    verdict: str
    observed: bool       # the region spawned at least one epoch
    squashes: int        # conflict-detector squashes attributed to it
    # Which pass settled the verdict (STAGE_ABSINT when any pair needed
    # the abstract interpreter) plus the loop's pair-level accounting.
    resolved_by: str = STAGE_AFFINE
    pairs_total: int = 0
    pairs_affine_uncertain: int = 0
    pairs_abs_resolved: int = 0

    @property
    def squashed(self) -> bool:
        return self.squashes > 0

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "header": self.header,
            "line": self.line,
            "verdict": self.verdict,
            "observed": self.observed,
            "squashes": self.squashes,
            "resolved_by": self.resolved_by,
            "pairs_total": self.pairs_total,
            "pairs_affine_uncertain": self.pairs_affine_uncertain,
            "pairs_abs_resolved": self.pairs_abs_resolved,
        }


def _ratio(num: int, den: int) -> float:
    """Precision/recall with the empty-denominator convention of 1.0
    (no predictions of a class cannot be wrong; no positives cannot be
    missed)."""
    return num / den if den else 1.0


@dataclass
class ValidationReport:
    """Static verdicts vs. observed conflict squashes over the suites."""

    suites: List[str]
    rows: List[ValidationRow] = field(default_factory=list)

    # -- totals -------------------------------------------------------------

    @property
    def loops_total(self) -> int:
        return len(self.rows)

    @property
    def loops_observed(self) -> int:
        return sum(1 for r in self.rows if r.observed)

    @property
    def loops_squashing(self) -> int:
        return sum(1 for r in self.rows if r.observed and r.squashed)

    def _count(self, verdict: str) -> int:
        return sum(1 for r in self.rows if r.verdict == verdict)

    @property
    def independent_loops(self) -> int:
        return self._count(VERDICT_INDEPENDENT)

    @property
    def may_conflict_loops(self) -> int:
        return self._count(VERDICT_MAY_CONFLICT)

    @property
    def must_conflict_loops(self) -> int:
        return self._count(VERDICT_MUST_CONFLICT)

    # -- precision / recall -------------------------------------------------

    def _observed(self) -> List[ValidationRow]:
        return [r for r in self.rows if r.observed]

    def precision(self, verdict: str) -> float:
        """Of the observed loops predicted ``verdict``, the fraction whose
        run-time behaviour matches (clean for independent, squashing for
        the conflict classes)."""
        predicted = [r for r in self._observed() if r.verdict == verdict]
        if verdict == VERDICT_INDEPENDENT:
            hits = sum(1 for r in predicted if not r.squashed)
        else:
            hits = sum(1 for r in predicted if r.squashed)
        return _ratio(hits, len(predicted))

    def recall(self, verdict: str) -> float:
        """Of the observed loops whose run-time behaviour matches
        ``verdict`` (clean vs. squashing), the fraction predicted so."""
        if verdict == VERDICT_INDEPENDENT:
            actual = [r for r in self._observed() if not r.squashed]
        else:
            actual = [r for r in self._observed() if r.squashed]
        hits = sum(1 for r in actual if r.verdict == verdict)
        return _ratio(hits, len(actual))

    @property
    def soundness_violations(self) -> int:
        """Loops classified independent that squashed on a conflict."""
        return sum(
            1 for r in self.rows
            if r.verdict == VERDICT_INDEPENDENT and r.observed and r.squashed
        )

    def violations(self) -> List[ValidationRow]:
        return [
            r for r in self.rows
            if r.verdict == VERDICT_INDEPENDENT and r.observed and r.squashed
        ]

    # -- abstract-interpretation precision -----------------------------------

    @property
    def pairs_total(self) -> int:
        return sum(r.pairs_total for r in self.rows)

    @property
    def pairs_affine_uncertain(self) -> int:
        return sum(r.pairs_affine_uncertain for r in self.rows)

    @property
    def pairs_abs_resolved(self) -> int:
        return sum(r.pairs_abs_resolved for r in self.rows)

    @property
    def abs_resolution_rate(self) -> float:
        """Of the pairs the affine stage left uncertain, the fraction the
        abstract interpreter settled (1.0 when affine decided everything)."""
        return _ratio(self.pairs_abs_resolved, self.pairs_affine_uncertain)

    @property
    def abs_resolved_loops(self) -> int:
        """Loops whose verdict required the abstract interpreter."""
        return sum(1 for r in self.rows if r.resolved_by == STAGE_ABSINT)

    @property
    def abs_soundness_violations(self) -> int:
        """Soundness violations on absint-settled loops specifically —
        distinguishes an abstract-domain bug from an affine-stage bug."""
        return sum(
            1 for r in self.violations() if r.resolved_by == STAGE_ABSINT
        )

    def failures(self) -> List[str]:
        """Gate conditions for CI: soundness plus the precision floor."""
        problems: List[str] = []
        if self.soundness_violations:
            problems.append(
                f"{self.soundness_violations} independent-classified "
                "loop(s) squashed on a memory conflict"
            )
        if (self.pairs_affine_uncertain
                and self.abs_resolution_rate < ABS_RESOLUTION_FLOOR):
            problems.append(
                f"absint resolution rate {self.abs_resolution_rate:.2f} "
                f"below committed floor {ABS_RESOLUTION_FLOOR:.2f}"
            )
        return problems

    def to_dict(self) -> dict:
        return {
            "suites": self.suites,
            "loops_total": self.loops_total,
            "loops_observed": self.loops_observed,
            "loops_squashing": self.loops_squashing,
            "soundness_violations": self.soundness_violations,
            "pairs_total": self.pairs_total,
            "pairs_affine_uncertain": self.pairs_affine_uncertain,
            "pairs_abs_resolved": self.pairs_abs_resolved,
            "abs_resolution_rate": self.abs_resolution_rate,
            "abs_resolved_loops": self.abs_resolved_loops,
            "abs_soundness_violations": self.abs_soundness_violations,
            "classes": {
                verdict: {
                    "loops": self._count(verdict),
                    "precision": self.precision(verdict),
                    "recall": self.recall(verdict),
                }
                for verdict in (
                    VERDICT_INDEPENDENT,
                    VERDICT_MAY_CONFLICT,
                    VERDICT_MUST_CONFLICT,
                )
            },
            "rows": [r.to_dict() for r in self.rows],
        }


def validate_suites(
    suites: Optional[Sequence[str]] = None,
    machine=None,
) -> ValidationReport:
    """Run the workload suites and compare static verdicts with observed
    conflict squashes.

    Every workload is side-compiled first; the annotated ones are then
    simulated (cached) in one runner call, across ``default_jobs()``
    processes, before any is read.
    """
    from ..experiments.runner import _prefetch, default_jobs, run_workload
    from ..uarch.config import default_machine
    from ..workloads import SUITE_NAMES, suite

    if machine is None:
        machine = default_machine()
    suite_names = list(suites) if suites else list(SUITE_NAMES)
    granule = machine.loopfrog.granule_bytes

    report = ValidationReport(suites=suite_names)
    seen: set = set()
    compiled: list = []
    for suite_name in suite_names:
        for benchmark in suite(suite_name):
            for workload, _weight in benchmark.phases:
                if workload.name in seen:
                    continue
                seen.add(workload.name)
                # Side-compile with verdicts attached; lowering is
                # deterministic, so headers and region labels line up
                # with the workload's cached compile.
                side = compile_frog(
                    workload.source,
                    CompileOptions(
                        name=workload.name, static_analysis=True,
                        hint_options=_granule_options(granule),
                    ),
                )
                annotated = [r for r in side.hint_reports if r.annotated]
                if annotated:
                    compiled.append((workload, side, annotated))
    _prefetch([(w, machine) for w, _, _ in compiled], default_jobs())
    for workload, side, annotated in compiled:
        stats = run_workload(workload, machine)
        for hint in annotated:
            dep = side.dependence.get(hint.header)
            if dep is None:
                continue
            region = stats.regions.get(hint.region)
            observed = region is not None and region.epochs_spawned > 0
            report.rows.append(ValidationRow(
                workload=workload.name,
                header=hint.header,
                line=dep.line,
                verdict=dep.verdict,
                observed=observed,
                squashes=region.squash_conflicts if region else 0,
                resolved_by=dep.resolved_by,
                pairs_total=dep.pairs_total,
                pairs_affine_uncertain=dep.pairs_affine_uncertain,
                pairs_abs_resolved=dep.pairs_abs_resolved,
            ))
    return report


def _granule_options(granule_bytes: int):
    from ..compiler import HintOptions

    return HintOptions(granule_bytes=granule_bytes)


def render_validation(report: ValidationReport) -> str:
    """Human-readable validation summary: class table + per-loop rows."""
    lines = [
        f"suites: {', '.join(report.suites)}",
        f"loops: {report.loops_total} total, {report.loops_observed} "
        f"observed, {report.loops_squashing} squashing",
        f"pairs: {report.pairs_total} tested, "
        f"{report.pairs_affine_uncertain} affine-uncertain, "
        f"{report.pairs_abs_resolved} absint-resolved "
        f"(rate {report.abs_resolution_rate:.2f}, "
        f"floor {ABS_RESOLUTION_FLOOR:.2f}); "
        f"{report.abs_resolved_loops} loop verdict(s) via absint",
        "",
        f"{'verdict':<14} {'loops':>5} {'precision':>9} {'recall':>7}",
    ]
    for verdict in (
        VERDICT_INDEPENDENT, VERDICT_MAY_CONFLICT, VERDICT_MUST_CONFLICT
    ):
        lines.append(
            f"{verdict:<14} {report._count(verdict):>5} "
            f"{report.precision(verdict):>9.2f} "
            f"{report.recall(verdict):>7.2f}"
        )
    lines.append("")
    for row in report.rows:
        mark = "squash" if row.squashed else (
            "clean" if row.observed else "unobserved"
        )
        lines.append(
            f"  {row.workload:<18} {row.header:<12} "
            f"{row.verdict:<14} {mark:>10} ({row.squashes} squashes)"
        )
    lines.append("")
    if report.soundness_violations:
        lines.append(
            f"UNSOUND: {report.soundness_violations} independent-classified "
            f"loop(s) squashed ({report.abs_soundness_violations} settled "
            "by absint)"
        )
    else:
        lines.append("soundness: ok (no independent-classified loop squashed)")
    for problem in report.failures():
        lines.append(f"FAIL: {problem}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Metrics catalog for the validation harness (collected from
# ValidationReport — `default_registry().collect(report, "lint")`).
# ---------------------------------------------------------------------------

_metrics.register(
    _metrics.MetricSpec("lint.validate.loops_total", _metrics.COUNTER,
                        "lint",
                        "Annotated pragma loops checked by lint --validate",
                        unit="loops",
                        derive=lambda r: r.loops_total),
    _metrics.MetricSpec("lint.validate.loops_observed", _metrics.COUNTER,
                        "lint",
                        "Checked loops whose region spawned at least one epoch",
                        unit="loops",
                        derive=lambda r: r.loops_observed),
    _metrics.MetricSpec("lint.validate.loops_squashing", _metrics.COUNTER,
                        "lint",
                        "Checked loops with at least one conflict squash",
                        unit="loops",
                        derive=lambda r: r.loops_squashing),
    _metrics.MetricSpec("lint.validate.independent_loops", _metrics.COUNTER,
                        "lint",
                        "Loops the static analysis classified independent",
                        unit="loops",
                        derive=lambda r: r.independent_loops),
    _metrics.MetricSpec("lint.validate.may_conflict_loops", _metrics.COUNTER,
                        "lint",
                        "Loops the static analysis classified may-conflict",
                        unit="loops",
                        derive=lambda r: r.may_conflict_loops),
    _metrics.MetricSpec("lint.validate.must_conflict_loops", _metrics.COUNTER,
                        "lint",
                        "Loops the static analysis classified must-conflict",
                        unit="loops",
                        derive=lambda r: r.must_conflict_loops),
    _metrics.MetricSpec("lint.validate.independent_precision", _metrics.GAUGE,
                        "lint",
                        "Observed independent-classified loops that never "
                        "squashed (1.0 when none predicted)",
                        unit="ratio",
                        derive=lambda r: r.precision(VERDICT_INDEPENDENT)),
    _metrics.MetricSpec("lint.validate.independent_recall", _metrics.GAUGE,
                        "lint",
                        "Observed squash-free loops classified independent "
                        "(1.0 when none observed)",
                        unit="ratio",
                        derive=lambda r: r.recall(VERDICT_INDEPENDENT)),
    _metrics.MetricSpec("lint.validate.may_conflict_precision", _metrics.GAUGE,
                        "lint",
                        "Observed may-conflict-classified loops that squashed",
                        unit="ratio",
                        derive=lambda r: r.precision(VERDICT_MAY_CONFLICT)),
    _metrics.MetricSpec("lint.validate.may_conflict_recall", _metrics.GAUGE,
                        "lint",
                        "Observed squashing loops classified may-conflict",
                        unit="ratio",
                        derive=lambda r: r.recall(VERDICT_MAY_CONFLICT)),
    _metrics.MetricSpec("lint.validate.must_conflict_precision", _metrics.GAUGE,
                        "lint",
                        "Observed must-conflict-classified loops that squashed",
                        unit="ratio",
                        derive=lambda r: r.precision(VERDICT_MUST_CONFLICT)),
    _metrics.MetricSpec("lint.validate.must_conflict_recall", _metrics.GAUGE,
                        "lint",
                        "Observed squashing loops classified must-conflict",
                        unit="ratio",
                        derive=lambda r: r.recall(VERDICT_MUST_CONFLICT)),
    _metrics.MetricSpec("lint.validate.soundness_violations", _metrics.COUNTER,
                        "lint",
                        "Independent-classified loops that squashed on a "
                        "memory conflict (must be zero)",
                        unit="loops",
                        derive=lambda r: r.soundness_violations),
    _metrics.MetricSpec("lint.validate.pairs_total", _metrics.COUNTER,
                        "lint",
                        "(store, load) pairs tested by the dependence "
                        "analysis across checked loops",
                        unit="pairs",
                        derive=lambda r: r.pairs_total),
    _metrics.MetricSpec("lint.validate.pairs_affine_uncertain",
                        _metrics.COUNTER,
                        "lint",
                        "Tested pairs the affine (SCEV) stage could not "
                        "decide on its own",
                        unit="pairs",
                        derive=lambda r: r.pairs_affine_uncertain),
    _metrics.MetricSpec("lint.validate.pairs_abs_resolved", _metrics.COUNTER,
                        "lint",
                        "Affine-uncertain pairs settled by the abstract "
                        "interpreter",
                        unit="pairs",
                        derive=lambda r: r.pairs_abs_resolved),
    _metrics.MetricSpec("lint.validate.abs_resolution_rate", _metrics.GAUGE,
                        "lint",
                        "Fraction of affine-uncertain pairs the abstract "
                        "interpreter resolved (gated by the committed floor)",
                        unit="ratio",
                        derive=lambda r: r.abs_resolution_rate),
    _metrics.MetricSpec("lint.validate.abs_resolved_loops", _metrics.COUNTER,
                        "lint",
                        "Checked loops whose verdict required the abstract "
                        "interpreter",
                        unit="loops",
                        derive=lambda r: r.abs_resolved_loops),
    _metrics.MetricSpec("lint.validate.abs_soundness_violations",
                        _metrics.COUNTER,
                        "lint",
                        "Soundness violations on absint-settled loops "
                        "(must be zero)",
                        unit="loops",
                        derive=lambda r: r.abs_soundness_violations),
)
