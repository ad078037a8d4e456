"""Golden parity tests for the declarative experiment registry.

Every figure/table used to be a hand-rolled function calling
``run_suite``/``run_workload`` directly.  These tests replicate those
pre-registry computations inline (lifted verbatim from the old modules)
and assert the registry path produces **numerically identical** results
on shared workload subsets.

Exact ``==`` on floats is deliberate: the engine is deterministic and the
spec engine must be pure bookkeeping — any drift, however small, means
the refactor changed an experiment's semantics.
"""

from repro.analysis.categorize import categorize_runs, phase_classifications
from repro.analysis.speedup import geometric_mean
from repro.experiments import registry, run_suite, run_workload
from repro.experiments.ablations import machine_with_bloom, machine_with_threadlets
from repro.experiments.assoc_sensitivity import CONFIGURATIONS, machine_with_assoc
from repro.experiments.fig9_ssb_size import SIZES, machine_with_ssb_size
from repro.experiments.fig10_granule import GRANULES, machine_with_granule
from repro.experiments.metrics import suite_geomean
from repro.experiments.packing_ablation import machine_without_packing
from repro.tls import extract_tasks, simulate_multiscalar, simulate_stampede
from repro.uarch.config import default_machine, scaled_core
from repro.workloads.base import ALL_CATEGORIES
from repro.workloads.suites import suite

SUBSET17 = ["imagick", "omnetpp", "x264"]
SUBSET06 = ["libquantum", "mcf06"]
BOTH = SUBSET17 + SUBSET06


def _percent(runs):
    return (suite_geomean(runs) - 1.0) * 100.0


def _speedups(runs):
    return [(r.name, r.speedup_percent) for r in runs]


# ---------------------------------------------------------------------------
# Paired whole-suite experiments
# ---------------------------------------------------------------------------

def test_fig6_matches_direct_run_suite():
    result = registry.run_experiment("fig6", only=BOTH).result
    runs_2006 = run_suite("spec2006", only=BOTH)
    runs_2017 = run_suite("spec2017", only=BOTH)
    assert _speedups(result.runs_2006) == _speedups(runs_2006)
    assert _speedups(result.runs_2017) == _speedups(runs_2017)
    assert result.geomean_2006_percent == _percent(runs_2006)
    assert result.geomean_2017_percent == _percent(runs_2017)
    # Pre-refactor profitability rule: strictly more than +1%.
    expected_profitable = [
        r.name for r in runs_2006 + runs_2017 if r.speedup_percent > 1.0
    ]
    assert [r.name for r in result.profitable()] == expected_profitable


def test_fig7_matches_direct_utilization_computation():
    result = registry.run_experiment("fig7", only=SUBSET17).result
    runs = run_suite("spec2017", only=SUBSET17)
    assert [r.name for r in result.rows] == [r.name for r in runs]
    for row, run in zip(result.rows, runs):
        stats = run.phases[0].loopfrog
        assert row.at_least_2 == stats.threadlet_utilization(2)
        assert row.at_least_3 == stats.threadlet_utilization(3)
        assert row.all_4 == stats.threadlet_utilization(4)
    assert result.profitable_names == [
        r.name for r in runs if r.speedup_percent > 1.0
    ]


def test_fig8_matches_direct_commit_ratios():
    result = registry.run_experiment("fig8", only=SUBSET17).result
    runs = run_suite("spec2017", dynamic_deselection=False, only=SUBSET17)
    assert [r.name for r in result.rows] == [r.name for r in runs]
    for row, run in zip(result.rows, runs):
        base = run.phases[0].baseline
        frog = run.phases[0].loopfrog
        base_ipc = base.arch_instructions / base.cycles
        assert row.arch_ratio == (frog.arch_instructions / frog.cycles) / base_ipc
        assert row.spec_ratio == (
            frog.spec_committed_instructions / frog.cycles
        ) / base_ipc
        assert row.failed_ratio == (
            frog.failed_spec_instructions / frog.cycles
        ) / base_ipc


# ---------------------------------------------------------------------------
# Machine-variant sweeps
# ---------------------------------------------------------------------------

def test_fig9_matches_per_size_run_suite_sweep():
    result = registry.run_experiment("fig9", only=SUBSET17).result
    expected = [
        (size, _percent(run_suite("spec2017", machine_with_ssb_size(size),
                                  only=SUBSET17)))
        for size in SIZES
    ]
    assert result.points == expected


def test_fig10_matches_per_granule_run_suite_sweep():
    result = registry.run_experiment("fig10", only=SUBSET17).result
    for granule in GRANULES:
        runs = run_suite("spec2017", machine_with_granule(granule),
                         only=SUBSET17)
        assert result.speedup_at(granule) == _percent(runs)
        assert result.per_benchmark[granule] == {
            r.name: r.speedup_percent for r in runs
        }


def test_assoc_matches_per_configuration_sweep():
    result = registry.run_experiment("assoc", only=SUBSET17).result
    assert [p.label for p in result.points] == [c[0] for c in CONFIGURATIONS]
    for label, assoc, victim in CONFIGURATIONS:
        runs = run_suite("spec2017", machine_with_assoc(assoc, victim),
                         only=SUBSET17)
        assert result.geomean(label) == _percent(runs)
        assert result.benchmark(label, "imagick") == runs[0].speedup_percent


def test_threadlets_matches_per_context_sweep():
    result = registry.run_experiment("threadlets", only=SUBSET17).result
    for contexts in (2, 4, 8):
        runs = run_suite("spec2017", machine_with_threadlets(contexts),
                         only=SUBSET17)
        assert result.speedup_at(contexts) == _percent(runs)


def test_bloom_matches_exact_vs_bloom_runs():
    result = registry.run_experiment("bloom", only=SUBSET17).result
    assert result.exact_percent == _percent(
        run_suite("spec2017", only=SUBSET17)
    )
    assert result.bloom_percent == _percent(
        run_suite("spec2017", machine_with_bloom(), only=SUBSET17)
    )


def test_packing_matches_with_without_comparison():
    result = registry.run_experiment("packing", only=SUBSET17).result
    runs_with = run_suite("spec2017", default_machine(), only=SUBSET17)
    runs_without = run_suite("spec2017", machine_without_packing(),
                             only=SUBSET17)
    assert result.geomean_with_percent == _percent(runs_with)
    assert result.geomean_without_percent == _percent(runs_without)
    expected_affected = [
        w.name for w, wo in zip(runs_with, runs_without)
        if abs(w.speedup_percent - wo.speedup_percent) > 0.5
    ]
    assert result.affected == expected_affected
    assert result.per_benchmark == {
        w.name: {"with": w.speedup_percent, "without": wo.speedup_percent}
        for w, wo in zip(runs_with, runs_without)
    }


# ---------------------------------------------------------------------------
# Tables and reports
# ---------------------------------------------------------------------------

def test_table2_matches_direct_categorization():
    result = registry.run_experiment("table2", only=BOTH).result
    runs = []
    for name in ("spec2017", "spec2006"):
        runs.extend(run_suite(name, only=BOTH))
    profitable = [r for r in runs if r.speedup_percent > 1.0]
    assert result.shares == categorize_runs(profitable)
    assert result.classified == phase_classifications(profitable)
    expected = {}
    for run in profitable:
        for workload, _ in run.benchmark.phases:
            if workload.category in ALL_CATEGORIES:
                expected[workload.name] = workload.category
    assert result.expected == expected


def test_table3_matches_direct_tls_simulation():
    result = registry.run_experiment("table3", only=SUBSET17).result
    frog_runs = run_suite("spec2017", only=SUBSET17)
    assert result.row("LoopFrog").speedup == suite_geomean(frog_runs)

    multiscalar, stampede, task_sizes = [], [], []
    for benchmark in suite("spec2017"):
        if benchmark.name not in SUBSET17:
            continue
        for workload, _ in benchmark.phases:
            memory, regs = workload.fresh_input()
            trace = extract_tasks(workload.program, memory, regs)
            if trace.mean_parallel_task_size():
                task_sizes.append(trace.mean_parallel_task_size())
            multiscalar.append(simulate_multiscalar(trace).speedup)
            stampede.append(simulate_stampede(trace).speedup)
    assert result.row("STAMPede").speedup == geometric_mean(stampede)
    assert result.row("MultiScalar").speedup == geometric_mean(multiscalar)
    assert result.mean_task_size == sum(task_sizes) / len(task_sizes)


def test_area_matches_direct_overhead_sums():
    result = registry.run_experiment("area", only=SUBSET17).result
    runs = run_suite("spec2017", dynamic_deselection=False, only=SUBSET17)
    base_issued = sum(p.baseline.issued_instructions
                      for r in runs for p in r.phases)
    frog_issued = sum(p.loopfrog.issued_instructions
                      for r in runs for p in r.phases)
    base_l2 = sum(p.baseline.l2_accesses for r in runs for p in r.phases)
    frog_l2 = sum(p.loopfrog.l2_accesses for r in runs for p in r.phases)
    assert result.issued_increase_percent == 100.0 * (
        frog_issued / base_issued - 1.0
    )
    assert result.l2_access_increase_percent == 100.0 * (
        frog_l2 / base_l2 - 1.0
    )


def test_loops_matches_direct_region_speedups():
    result = registry.run_experiment("loops", only=BOTH).result
    speedups = {}
    for name in ("spec2017", "spec2006"):
        for run in run_suite(name, dynamic_deselection=False, only=BOTH):
            speedups.update(run.region_speedups())
    assert result.loop_speedups == speedups


# ---------------------------------------------------------------------------
# Single-config (unpaired) mode
# ---------------------------------------------------------------------------

def test_fig1_matches_direct_width_sweep():
    result = registry.run_experiment("fig1", only=SUBSET17).result
    for point in result.points:
        machine = scaled_core(point.width)
        ipcs, utils = [], []
        for benchmark in suite("spec2017"):
            if benchmark.name not in SUBSET17:
                continue
            per_phase, util_phase = [], []
            for workload, weight in benchmark.phases:
                stats = run_workload(workload, machine)
                per_phase.append((stats.ipc, weight))
                util_phase.append(
                    (stats.commit_utilization(machine.core.commit_width),
                     weight)
                )
            ipcs.append(sum(v * w for v, w in per_phase))
            utils.append(sum(v * w for v, w in util_phase))
        assert point.geomean_ipc == geometric_mean(ipcs)
        assert point.commit_utilization == sum(utils) / len(utils)

