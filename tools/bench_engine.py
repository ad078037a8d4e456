#!/usr/bin/env python3
"""Engine throughput smoke: cold-simulate a fixed workload subset and
record wall time + simulated instructions/sec in BENCH_engine.json.

Run:  PYTHONPATH=src python tools/bench_engine.py [--output FILE]

The subset is pinned (first three spec2017 benchmarks, both configs, all
phases) so numbers are comparable across commits.  Runs are cold: the
in-process cache and the persistent store are both bypassed, so this
measures raw engine speed, never cache hits.

The headline ``instructions_per_second`` measures the *default* engine
mode (episode).  Besides the aggregate, the record carries a
``per_benchmark`` breakdown (so bench_compare.py can name the worst
regressor on a throughput failure), the reference mode's throughput
(``reference_instructions_per_second`` — the episode speedup is the
ratio; the parity matrix proves the modes bit-identical), a
per-phase ``phases`` breakdown from a profiled pass, and
``fast_forward_instructions_per_second`` — the steady-state throughput
of the functional fast-forward executor that sampled simulation
(docs/sampling.md) uses to skip between detailed windows.
"""

import argparse
import json
import sys
import time

from repro.experiments.runner import _simulate
from repro.uarch.config import baseline_machine, default_machine
from repro.uarch.core import ENGINE_SCHEMA_VERSION
from repro.workloads.suites import suite

BENCH_SUITE = "spec2017"
BENCH_COUNT = 3  # first N benchmarks of the suite


def measure_fast_forward(benchmarks):
    """Steady-state functional fast-forward throughput on the same subset.

    Each phase is executed once unmeasured to populate the per-program
    handler caches, then once timed — matching how the sampling runner
    uses the executor (one compile, many skipped instructions).
    """
    from repro.sampling.fastforward import FastForwardExecutor

    def run_all():
        executed = 0
        for benchmark in benchmarks:
            for workload, _weight in benchmark.phases:
                memory, regs = workload.fresh_input()
                ff = FastForwardExecutor(workload.program, memory, regs)
                executed += ff.run_to_halt()
        return executed

    run_all()  # warm the handler caches
    start = time.perf_counter()
    executed = run_all()
    elapsed = time.perf_counter() - start
    return round(executed / elapsed, 1) if elapsed else 0.0


def measure_lint(benchmarks):
    """Wall time of the static dependence analysis (``repro lint``) over
    the same subset: fresh compiles with ``static_analysis=True``, so a
    pathological slowdown in the depanal pass shows up here.
    """
    from repro.analysis.lint import lint_source

    def run_all():
        loops = 0
        for benchmark in benchmarks:
            for workload, _weight in benchmark.phases:
                lint = lint_source(workload.source, path=workload.name)
                loops += len(lint.loops)
        return loops

    run_all()  # warm module imports
    start = time.perf_counter()
    loops = run_all()
    elapsed = time.perf_counter() - start
    return {
        "lint_loops": loops,
        "lint_wall_seconds": round(elapsed, 3),
        "lint_loops_per_second": round(loops / elapsed, 1) if elapsed else 0.0,
    }


def measure_advise(benchmarks):
    """Wall time of the loop-profitability model (``repro advise``) over
    the same subset: fresh compiles with static analysis plus the
    advise scoring pass, so a slowdown in the abstract interpreter or
    the risk model shows up here.
    """
    from repro.analysis.advise import advise_source

    def run_all():
        loops = 0
        for benchmark in benchmarks:
            for workload, _weight in benchmark.phases:
                advice = advise_source(workload.source, path=workload.name)
                loops += len(advice.loops)
        return loops

    run_all()  # warm module imports
    start = time.perf_counter()
    loops = run_all()
    elapsed = time.perf_counter() - start
    return {
        "advise_loops": loops,
        "advise_wall_seconds": round(elapsed, 3),
        "advise_loops_per_second": round(loops / elapsed, 1) if elapsed else 0.0,
    }


def measure_exp_dispatch(benchmarks):
    """Warm-cache wall time of one registry experiment over the subset.

    A cold pass through ``repro.experiments.registry`` populates the
    in-process cell cache (store disabled, so nothing leaks to disk);
    the timed second pass then costs only spec dispatch, sweep
    bookkeeping, ``derive`` and rendering — the pure overhead the
    declarative experiment layer adds on top of the runner.  The
    fig9 spec is used because its four-variant sweep exercises the
    grid walk and it renders cleanly on a subset.
    """
    from repro.experiments import registry
    from repro.experiments.runner import clear_cache
    from repro.results import get_default_store, set_default_store

    names = [b.name for b in benchmarks]
    saved_store = get_default_store()
    set_default_store(None)
    clear_cache()
    try:
        registry.run_experiment("fig9", only=names, jobs=1)  # warm the cache
        start = time.perf_counter()
        run = registry.run_experiment("fig9", only=names, jobs=1)
        run.to_json()
        elapsed = time.perf_counter() - start
    finally:
        clear_cache()
        set_default_store(saved_store)
    return {
        "exp_dispatch_seconds": round(elapsed, 4),
        "exp_dispatch_cells": run.counters.cells_total,
    }


def measure_fuzz():
    """Fuzzing throughput: generated-and-executed programs per second.

    One short pinned session (seed/budget fixed, so the work is identical
    across commits).  Programs/s counts every execution the session pays
    for — generation, oracle evaluation and minimization re-runs — which
    is what bounds how much coverage a CI fuzz-smoke budget buys.
    """
    from repro.fuzz import FuzzConfig, run_fuzz

    config = FuzzConfig(seed=3, budget=8, max_mutations=2, minimize_steps=40)
    run_fuzz(FuzzConfig(seed=3, budget=1))  # warm compiler/engine imports
    report = run_fuzz(config)
    return {
        "fuzz_programs": report.executions,
        "fuzz_wall_seconds": round(report.wall_seconds, 3),
        "fuzz_programs_per_second": round(report.programs_per_second, 1),
    }


def measure_mode(benchmarks, machines, mode):
    """Throughput of one pinned engine mode on the same subset.

    Together with the headline ``instructions_per_second`` (the default
    mode, episode) this makes the mode speedup visible directly in
    BENCH_engine.json; the parity matrix (tests/test_engine_parity.py)
    proves the modes bit-identical.
    """
    from repro.uarch.core import set_engine_mode

    set_engine_mode(mode)
    try:
        instructions = 0
        start = time.perf_counter()
        for benchmark in benchmarks:
            for workload, _weight in benchmark.phases:
                for _label, machine in machines:
                    stats = _simulate(workload, machine)
                    instructions += stats.arch_instructions
        elapsed = time.perf_counter() - start
    finally:
        set_engine_mode(None)
    return round(instructions / elapsed, 1) if elapsed else 0.0


def measure_phases(benchmarks, machines):
    """Per-phase wall breakdown of the default mode (profiled pass).

    Runs the subset once more under cProfile and folds the phase-method
    cumtimes with the same logic as tools/profile_engine.py, so the bench
    record shows where engine time goes without re-deriving it by hand.
    The profiled pass is separate from the timed pass — profiling
    overhead never contaminates ``instructions_per_second``.
    """
    import cProfile
    import pstats

    try:
        from profile_engine import _phase_breakdown
    except ImportError:  # imported as a package module rather than a script
        from tools.profile_engine import _phase_breakdown

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    for benchmark in benchmarks:
        for workload, _weight in benchmark.phases:
            for _label, machine in machines:
                _simulate(workload, machine)
    profiler.disable()
    wall = time.perf_counter() - start
    return _phase_breakdown(pstats.Stats(profiler), wall)


def run_bench():
    benchmarks = suite(BENCH_SUITE)[:BENCH_COUNT]
    machines = [("baseline", baseline_machine()), ("loopfrog", default_machine())]
    instructions = 0
    cycles = 0
    sims = 0
    per_benchmark = {}
    start = time.perf_counter()
    for benchmark in benchmarks:
        b_instructions = 0
        b_cycles = 0
        b_start = time.perf_counter()
        for workload, _weight in benchmark.phases:
            for _label, machine in machines:
                stats = _simulate(workload, machine)
                b_instructions += stats.arch_instructions
                b_cycles += stats.cycles
                sims += 1
        b_elapsed = time.perf_counter() - b_start
        instructions += b_instructions
        cycles += b_cycles
        per_benchmark[benchmark.name] = {
            "instructions": b_instructions,
            "cycles": b_cycles,
            "wall_seconds": round(b_elapsed, 3),
            "instructions_per_second": round(
                b_instructions / b_elapsed, 1
            ) if b_elapsed else 0.0,
        }
    elapsed = time.perf_counter() - start
    return {
        "suite": BENCH_SUITE,
        # Cycle/instruction totals are only comparable between runs of the
        # same timing semantics; bench_compare.py keys its exactness gate
        # on this matching.
        "engine_schema": ENGINE_SCHEMA_VERSION,
        "benchmarks": [b.name for b in benchmarks],
        "simulations": sims,
        "instructions": instructions,
        "cycles": cycles,
        "wall_seconds": round(elapsed, 3),
        "instructions_per_second": round(instructions / elapsed, 1),
        "cycles_per_second": round(cycles / elapsed, 1),
        "per_benchmark": per_benchmark,
        "reference_instructions_per_second": measure_mode(
            benchmarks, machines, "reference"
        ),
        "phases": measure_phases(benchmarks, machines),
        "fast_forward_instructions_per_second": measure_fast_forward(
            benchmarks
        ),
        **measure_lint(benchmarks),
        **measure_advise(benchmarks),
        **measure_exp_dispatch(benchmarks),
        **measure_fuzz(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_engine.json")
    args = parser.parse_args(argv)
    result = run_bench()
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(
        f"{result['simulations']} simulations, "
        f"{result['instructions']} instructions in "
        f"{result['wall_seconds']}s -> "
        f"{result['instructions_per_second']:.0f} instr/s"
    )
    ref = result["reference_instructions_per_second"]
    if ref:
        speedup = result["instructions_per_second"] / ref
        print(f"reference path: {ref:.0f} instr/s "
              f"(default mode is {speedup:.2f}x)")
    ff = result["fast_forward_instructions_per_second"]
    ratio = ff / result["instructions_per_second"]
    print(f"fast-forward: {ff:.0f} instr/s ({ratio:.1f}x detailed)")
    print(
        f"lint: {result['lint_loops']} loops in "
        f"{result['lint_wall_seconds']}s -> "
        f"{result['lint_loops_per_second']:.0f} loops/s"
    )
    print(
        f"advise: {result['advise_loops']} loops in "
        f"{result['advise_wall_seconds']}s -> "
        f"{result['advise_loops_per_second']:.0f} loops/s"
    )
    print(
        f"exp dispatch: {result['exp_dispatch_cells']} warm cells in "
        f"{result['exp_dispatch_seconds']}s"
    )
    print(
        f"fuzz: {result['fuzz_programs']} programs in "
        f"{result['fuzz_wall_seconds']}s -> "
        f"{result['fuzz_programs_per_second']:.0f} programs/s"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
