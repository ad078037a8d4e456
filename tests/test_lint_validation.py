"""Squash-validation of static verdicts, plus the static-gated policy.

These tests run the full workload suites once (simulations are cached by
``run_workload``) and check the central soundness property of the
dependence analyzer: a loop classified ``independent`` must never trigger
a conflict-detector squash.
"""

import pytest

from repro.analysis import render_validation, validate_suites
from repro.analysis.lint import ABS_RESOLUTION_FLOOR
from repro.compiler import (
    CompileOptions,
    HintOptions,
    VERDICT_MUST_CONFLICT,
    compile_frog,
)
from repro.compiler.hints import (
    REASON_PREDICTED_UNPROFITABLE,
    REASON_STATIC_MUST_CONFLICT,
    REJECT_REASONS,
    SPECULATE_ANALYZE,
    SPECULATE_POLICIES,
    SPECULATE_STATIC_GATED,
)
from repro.errors import CompilerError
from repro.obs.metrics import load_all
from repro.uarch import LoopFrogCore, SparseMemory
from repro.workloads import SUITE_NAMES


@pytest.fixture(scope="module")
def report():
    return validate_suites()  # all suites


def test_validation_simulates_in_one_pool(
    monkeypatch, no_default_store, counting_pool
):
    """``lint --validate`` and ``advise --validate`` honour ``--jobs``:
    their cached runs go to one pool and the reports match the serial
    ones (on a two-benchmark slice of each suite)."""
    import repro.workloads
    from repro.analysis import validate_advise
    from repro.experiments import runner

    full = repro.workloads.suite
    monkeypatch.setattr(repro.workloads, "suite", lambda name: full(name)[:2])
    saved = runner.default_jobs()
    reports = {}
    try:
        for jobs in (1, 2):
            runner.configure(jobs=jobs)
            runner.clear_cache()
            lint = validate_suites(suites=["spec2017"]).to_dict()
            runner.clear_cache()
            advise = validate_advise(suites=["spec2017"]).to_dict()
            reports[jobs] = (lint, advise)
            assert counting_pool.pools == 2 * (jobs - 1)
    finally:
        runner.configure(jobs=saved)
    assert reports[2] == reports[1]
    assert reports[1][0]["rows"] and reports[1][1]["rows"]


def test_validation_covers_every_suite(report):
    assert tuple(report.suites) == tuple(SUITE_NAMES)
    assert report.loops_total > 20
    assert report.loops_observed > 0


def test_soundness_no_independent_loop_squashes(report):
    # The acceptance property: across every suite workload, no loop the
    # analyzer proved independent ever squashed in simulation.
    violations = report.violations()
    assert report.soundness_violations == 0, [
        (row.workload, row.header, row.squashes) for row in violations
    ]


def test_squashing_loops_were_predicted_conflicting(report):
    # Same property seen from the recall side: every squashing loop sits
    # in a conflict class, so may/must recall over squashers is perfect.
    squashers = [row for row in report.rows if row.squashed]
    assert squashers, "expected at least one squashing loop in the suites"
    assert all(row.verdict != "independent" for row in squashers)


def test_precision_recall_ratios_well_formed(report):
    for verdict in ("independent", "may-conflict", "must-conflict"):
        assert 0.0 <= report.precision(verdict) <= 1.0
        assert 0.0 <= report.recall(verdict) <= 1.0
    # Independent loops do exist in the suites and never squash, so
    # independent precision is exactly 1.0 here.
    assert report.independent_loops > 0
    assert report.precision("independent") == 1.0


def test_validation_metrics_in_obs_catalog(report):
    registry = load_all()
    snapshot = registry.collect(report, "lint")
    for name in (
        "lint.validate.loops_total",
        "lint.validate.independent_precision",
        "lint.validate.independent_recall",
        "lint.validate.may_conflict_precision",
        "lint.validate.may_conflict_recall",
        "lint.validate.must_conflict_precision",
        "lint.validate.must_conflict_recall",
        "lint.validate.soundness_violations",
    ):
        assert name in snapshot, name
        assert name in registry.catalog()
    assert snapshot["lint.validate.soundness_violations"] == 0
    assert snapshot["lint.validate.loops_total"] == report.loops_total


def test_validation_report_serializes_and_renders(report):
    payload = report.to_dict()
    assert payload["soundness_violations"] == 0
    assert len(payload["rows"]) == len(report.rows)
    text = render_validation(report)
    assert "soundness" in text.lower()


MUST_CONFLICT_SRC = """
fn main(a: ptr<int>, n: int) {
    #pragma loopfrog
    for (var i: int = 0; i < n; i = i + 1) {
        a[i + 1] = a[i] + 3;
    }
}
"""


def run_kernel(options=None):
    result = compile_frog(MUST_CONFLICT_SRC, options or CompileOptions())
    memory = SparseMemory()
    memory.store_int_array(0x1000, [0] * 70)
    sim = LoopFrogCore().run(result.program, memory, {"r1": 0x1000, "r2": 64})
    return result, sim, memory.load_int_array(0x1000, 70)


def test_static_gated_reduces_squashes_on_must_conflict_loop():
    # Differential: the paper-default "always" policy speculates on the
    # must-conflict loop and pays squashes; "static-gated" refuses it
    # up front, eliminating every squash without changing the result.
    always_result, always_sim, always_mem = run_kernel()
    assert always_result.hint_reports[0].annotated
    assert always_sim.stats.squash_conflicts > 0

    gated_result, gated_sim, gated_mem = run_kernel(
        CompileOptions(
            hint_options=HintOptions(speculate=SPECULATE_STATIC_GATED)
        )
    )
    gated_report = gated_result.hint_reports[0]
    assert not gated_report.annotated
    assert gated_report.reason == REASON_STATIC_MUST_CONFLICT
    assert gated_report.static_verdict == VERDICT_MUST_CONFLICT
    assert gated_sim.stats.squash_conflicts == 0
    assert gated_sim.stats.squash_conflicts < always_sim.stats.squash_conflicts
    # Gating changes performance, never semantics.
    assert gated_mem == always_mem


def test_static_gated_keeps_clean_loops_annotated():
    result = compile_frog(
        """
        fn main(dst: ptr<int>, src: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                dst[i] = src[i] * 2;
            }
        }
        """,
        CompileOptions(hint_options=HintOptions(speculate=SPECULATE_STATIC_GATED)),
    )
    report = result.hint_reports[0]
    assert report.annotated
    assert report.static_verdict == "independent"


# ---------------------------------------------------------------------------
# The "analyze" policy: gate speculation on predicted profitability
# ---------------------------------------------------------------------------

# May-conflict (NOT must-conflict: the store is conditional, so the
# affine pair test cannot certify the overlap) with a proven
# granule-overlap witness at carried distance 1 - squash risk 0.85,
# above the analyze policy's threshold.  static-gated accepts this loop;
# analyze refuses it.
HIGH_RISK_SRC = """
fn main(a: ptr<int>, n: int) {
    #pragma loopfrog
    for (var i: int = 0; i < n; i = i + 1) {
        if (a[i] > 2) {
            a[i + 1] = a[i] - 1;
        }
    }
}
"""

CLEAN_SRC = """
fn main(dst: ptr<int>, src: ptr<int>, n: int) {
    #pragma loopfrog
    for (var i: int = 0; i < n; i = i + 1) {
        dst[i] = src[i] * 2;
    }
}
"""


def run_src(source, options=None, regs=None, cells=70):
    result = compile_frog(source, options or CompileOptions())
    memory = SparseMemory()
    memory.store_int_array(0x1000, [5] * cells)
    memory.store_int_array(0x4000, [3] * cells)
    sim = LoopFrogCore().run(
        result.program, memory,
        regs or {"r1": 0x1000, "r2": 64},
    )
    return result, sim, memory.load_int_array(0x1000, cells)


def test_analyze_policy_gates_high_risk_may_conflict_loop():
    # The acceptance differential: "always" speculates on the high-risk
    # loop and pays squashes; "analyze" predicts the risk statically and
    # refuses, eliminating every squash without changing the result.
    always_result, always_sim, always_mem = run_src(HIGH_RISK_SRC)
    assert always_result.hint_reports[0].annotated
    assert always_sim.stats.squash_conflicts > 0

    gated_result, gated_sim, gated_mem = run_src(
        HIGH_RISK_SRC,
        CompileOptions(hint_options=HintOptions(speculate=SPECULATE_ANALYZE)),
    )
    gated_report = gated_result.hint_reports[0]
    assert not gated_report.annotated
    assert gated_report.reason == REASON_PREDICTED_UNPROFITABLE
    assert gated_report.static_verdict == "may-conflict"
    assert "risk" in gated_report.detail
    assert gated_sim.stats.squash_conflicts == 0
    assert gated_mem == always_mem

    # static-gated does NOT gate this loop: the verdict is only
    # may-conflict, which distinguishes the two policies.
    sg_result, _, _ = run_src(
        HIGH_RISK_SRC,
        CompileOptions(
            hint_options=HintOptions(speculate=SPECULATE_STATIC_GATED)
        ),
    )
    assert sg_result.hint_reports[0].annotated


def test_analyze_policy_bit_identical_on_accepted_loops():
    # A loop the analyze policy accepts must compile and run exactly as
    # under "always": same annotation, same committed memory, same
    # cycle-for-cycle statistics.
    regs = {"r1": 0x1000, "r2": 0x4000, "r3": 64}
    always_result, always_sim, always_mem = run_src(CLEAN_SRC, regs=regs)
    analyze_result, analyze_sim, analyze_mem = run_src(
        CLEAN_SRC,
        CompileOptions(hint_options=HintOptions(speculate=SPECULATE_ANALYZE)),
        regs=regs,
    )
    assert always_result.hint_reports[0].annotated
    assert analyze_result.hint_reports[0].annotated
    assert analyze_mem == always_mem
    assert analyze_sim.stats.cycles == always_sim.stats.cycles
    assert (
        analyze_sim.stats.threadlets_spawned
        == always_sim.stats.threadlets_spawned
    )
    assert (
        analyze_sim.stats.squash_conflicts
        == always_sim.stats.squash_conflicts
    )


def test_analyze_policy_still_gates_must_conflict():
    # analyze subsumes static-gated: a proven must-conflict loop is
    # rejected with the *static* reason, not the profitability one.
    result = compile_frog(
        MUST_CONFLICT_SRC,
        CompileOptions(hint_options=HintOptions(speculate=SPECULATE_ANALYZE)),
    )
    report = result.hint_reports[0]
    assert not report.annotated
    assert report.reason == REASON_STATIC_MUST_CONFLICT
    assert report.static_verdict == VERDICT_MUST_CONFLICT


def test_analyze_policy_gates_short_trip_loops():
    result = compile_frog(
        """
        fn main(a: ptr<int>, b: ptr<int>) {
            #pragma loopfrog
            for (var i: int = 0; i < 1; i = i + 1) {
                a[i] = b[i] + 1;
            }
        }
        """,
        CompileOptions(hint_options=HintOptions(speculate=SPECULATE_ANALYZE)),
    )
    report = result.hint_reports[0]
    assert not report.annotated
    assert report.reason == REASON_PREDICTED_UNPROFITABLE
    assert "trip" in report.detail
    assert report.static_verdict == "independent"


def test_speculate_policy_registry():
    assert SPECULATE_POLICIES == (
        "always", "static-gated", "analyze"
    )
    assert REASON_PREDICTED_UNPROFITABLE in REJECT_REASONS


def test_unknown_speculate_policy_rejected():
    with pytest.raises(CompilerError, match="speculate policy"):
        compile_frog(
            CLEAN_SRC,
            CompileOptions(hint_options=HintOptions(speculate="bogus")),
        )


# ---------------------------------------------------------------------------
# Absint pair-resolution telemetry on the suite-wide validation report
# ---------------------------------------------------------------------------


def test_absint_resolution_meets_committed_floor(report):
    # The PR-9 acceptance bar: the abstract interpreter resolves at
    # least ABS_RESOLUTION_FLOOR of the pairs the affine stage left
    # uncertain, with zero soundness violations among its verdicts.
    assert report.pairs_total > 0
    assert report.pairs_affine_uncertain > 0
    assert report.pairs_abs_resolved > 0
    assert report.abs_resolution_rate >= ABS_RESOLUTION_FLOOR
    assert report.abs_soundness_violations == 0
    assert report.abs_resolved_loops > 0
    assert report.failures() == []


def test_absint_telemetry_serializes(report):
    payload = report.to_dict()
    assert payload["pairs_total"] == report.pairs_total
    assert payload["pairs_affine_uncertain"] == report.pairs_affine_uncertain
    assert payload["pairs_abs_resolved"] == report.pairs_abs_resolved
    assert payload["abs_resolution_rate"] == report.abs_resolution_rate
    registry = load_all()
    snapshot = registry.collect(report, "lint")
    for name in (
        "lint.validate.pairs_total",
        "lint.validate.pairs_affine_uncertain",
        "lint.validate.pairs_abs_resolved",
        "lint.validate.abs_resolution_rate",
        "lint.validate.abs_resolved_loops",
        "lint.validate.abs_soundness_violations",
    ):
        assert name in snapshot, name
        assert name in registry.catalog()
    assert snapshot["lint.validate.abs_soundness_violations"] == 0
