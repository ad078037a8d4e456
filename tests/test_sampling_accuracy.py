"""End-to-end accuracy contract of sampled simulation.

The headline claim of docs/sampling.md, asserted mechanically:

* every spec2017 and spec2006 suite workload's sampled CPI is within 2%
  of the full detailed run (the suite phases sit below the full-detail
  threshold,
  where the runner degenerates to an exact engine run — so the error is
  not merely small, it is zero and the cycle counts are bit-identical);
* a genuinely sampled long-run workload (detailed windows covering a
  fraction of the program) stays within 5%, with a non-trivial reported
  error bound; and
* sampled estimates live in their own digest dimension and round-trip
  through the persistent store with their sampling metadata intact.
"""

import pytest

from repro.experiments import runner
from repro.results.digest import run_digest, sampled_run_digest
from repro.results.store import (
    ResultStore,
    get_default_store,
    set_default_store,
)
from repro.sampling import runner as sampling_runner
from repro.sampling.runner import SamplingConfig, run_workload_sampled
from repro.uarch.config import default_machine
from repro.uarch.core import Engine
from repro.workloads import get_workload, suite


def _exact_stats(workload, machine):
    memory, regs = workload.fresh_input()
    engine = Engine(machine, workload.program, memory, regs)
    return engine.run(max_cycles=workload.max_cycles)


def _suite_workloads():
    return [
        (workload, benchmark.name)
        for suite_name in ("spec2017", "spec2006")
        for benchmark in suite(suite_name)
        for workload, _weight in benchmark.phases
    ]


def test_every_suite_workload_sampled_cpi_within_two_percent():
    machine = default_machine()
    config = SamplingConfig()
    report = []
    for workload, bench_name in _suite_workloads():
        exact = _exact_stats(workload, machine)
        memory, regs = workload.fresh_input()
        plan = sampling_runner.plan_program_sampled(
            workload.program, memory, regs, config
        )
        sampled = sampling_runner.run_program_sampled(
            plan, machine, max_cycles=workload.max_cycles
        )
        exact_cpi = exact.cycles / exact.arch_instructions
        error = (sampled.estimated_cpi - exact_cpi) / exact_cpi
        report.append(
            f"{bench_name}/{workload.name}: "
            f"cpi {exact_cpi:.4f} -> {sampled.estimated_cpi:.4f} "
            f"({error:+.4%}, bound {sampled.error_bound:.2%})"
        )
        assert abs(error) <= 0.02, (
            f"{workload.name}: sampled CPI off by {error:+.2%} "
            f"(> 2%); reported bound {sampled.error_bound:.2%}\n"
            + "\n".join(report)
        )
        # Below the full-detail threshold the estimate must be *exact*.
        assert sampled.stats.cycles == exact.cycles
        assert sampled.error_bound == 0.0
    print("\n".join(report))


def test_longrun_genuinely_sampled_within_five_percent():
    workload = get_workload("longrun_hash")
    machine = default_machine()

    exact = _exact_stats(workload, machine)
    memory, regs = workload.fresh_input()
    plan = sampling_runner.plan_program_sampled(
        workload.program, memory, regs, SamplingConfig()
    )
    sampled = sampling_runner.run_program_sampled(
        plan, machine, max_cycles=workload.max_cycles
    )

    # Genuine sampling, not the short-program guard: windows must cover
    # only a fraction of the program and carry a real error bound.
    assert sampled.detailed_fraction < 0.5
    assert sampled.num_clusters > 1
    assert sampled.error_bound > 0.0
    assert sampled.ff_instructions_per_second > 0.0

    exact_cpi = exact.cycles / exact.arch_instructions
    error = (sampled.estimated_cpi - exact_cpi) / exact_cpi
    print(
        f"longrun_hash: cpi {exact_cpi:.4f} -> {sampled.estimated_cpi:.4f} "
        f"({error:+.4%}, bound {sampled.error_bound:.2%}, "
        f"detailed fraction {sampled.detailed_fraction:.1%})"
    )
    assert abs(error) <= 0.05, (
        f"sampled CPI off by {error:+.2%} (bound {sampled.error_bound:.2%})"
    )


def test_sampled_digest_is_a_distinct_dimension():
    workload = get_workload("imagick_conv")
    machine = default_machine()
    config = SamplingConfig()

    exact_digest = run_digest(workload, machine)
    sampled_digest = sampled_run_digest(workload, machine, config)
    assert sampled_digest != exact_digest

    # Every config field is part of the key.
    assert sampled_run_digest(
        workload, machine, SamplingConfig(interval_length=4000)
    ) != sampled_digest
    assert sampled_run_digest(
        workload, machine, SamplingConfig(seed=43)
    ) != sampled_digest
    # Same config, same key (cross-run cache stability).
    assert sampled_run_digest(workload, machine, SamplingConfig()) == (
        sampled_digest
    )


def test_sampled_store_roundtrip(tmp_path):
    workload = get_workload("imagick_conv")
    machine = default_machine()
    config = SamplingConfig()
    saved = get_default_store()
    store = ResultStore(tmp_path / "store")
    set_default_store(store)
    try:
        runner.clear_cache()
        first = run_workload_sampled(workload, machine, config)
        assert not first.cached

        runner.clear_cache()  # force the persistent-store path
        second = run_workload_sampled(workload, machine, config)
        assert second.cached
        assert second.stats.cycles == first.stats.cycles
        assert second.estimated_cpi == pytest.approx(first.estimated_cpi)
        assert second.error_bound == first.error_bound
        assert second.total_instructions == first.total_instructions
        assert second.num_intervals == first.num_intervals
        assert second.num_clusters == first.num_clusters
        assert second.detailed_instructions == first.detailed_instructions
    finally:
        set_default_store(saved)
        runner.clear_cache()


def test_sampled_and_exact_store_records_never_collide(tmp_path):
    """Saving a sampled estimate must not shadow the exact record."""
    workload = get_workload("imagick_conv")
    machine = default_machine()
    saved = get_default_store()
    store = ResultStore(tmp_path / "store")
    set_default_store(store)
    try:
        runner.clear_cache()
        sampled = run_workload_sampled(workload, machine, SamplingConfig())
        exact = runner.run_workload(workload, machine)
        assert store.stats().records == 2
        # Reload both; each comes back from its own record.
        runner.clear_cache()
        assert run_workload_sampled(
            workload, machine, SamplingConfig()
        ).stats.cycles == sampled.stats.cycles
        assert runner.run_workload(
            workload, machine
        ).cycles == exact.cycles
    finally:
        set_default_store(saved)
        runner.clear_cache()
