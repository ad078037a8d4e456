"""Differential parity: the episode engine vs the reference engine.

The engine has two execution modes (``repro.uarch.core.ENGINE_MODES``):
the per-phase ``reference`` pipeline and ``episode`` (cross-cycle
monolithic loops over runs of cycles with a stable threadlet population,
with batched hazard and statistics bookkeeping).  The episode mode
claims to be *bit-identical* to the reference pipeline.  This suite is
that claim, mechanised as a two-way parity matrix:

* the 50 seeded fuzz programs from :mod:`tests.test_differential`, and
* every workload of every registered suite (spec2017, spec2006, longrun),

each run through both engine modes on both machine configurations,
with the full :class:`~repro.uarch.statistics.SimStats` record — cycles,
every counter, per-region breakdowns — plus the observability metric
snapshot asserted equal field-for-field.  A separate case proves
:meth:`Engine.run_window` (the sampled-simulation entry point, where
episodes stop on sequential-progress targets) agrees on warmup/measured
boundaries too.

Every leg pins its mode explicitly with ``set_engine_mode``, so the
suite still compares both modes when CI runs the whole test tier under
``REPRO_ENGINE_MODE=reference``.
"""

import dataclasses
import functools
import itertools

import pytest

from repro.compiler import compile_frog
from repro.obs.metrics import load_all
from repro.sampling.fastforward import collect_checkpoints
from repro.uarch.config import baseline_machine, default_machine
from repro.uarch.core import ENGINE_MODES, Engine, set_engine_mode
from repro.workloads.suites import SUITE_NAMES, suite

from tests.test_differential import (
    NUM_PROGRAMS,
    _fresh_memory,
    _initial_regs,
    generate_program,
)

MACHINES = {
    "baseline": baseline_machine,
    "loopfrog": default_machine,
}

# The optimized modes, each compared field-for-field to "reference".
OPTIMIZED_MODES = tuple(m for m in ENGINE_MODES if m != "reference")

# Sampled-window parity: windows start at program entry and mid-program
# (from a fast-forward checkpoint, as the sampled runner starts them),
# with a regular and a tiny-warmup (n_instructions, warmup) shape.
WINDOW_STARTS = (0, 100_000)
WINDOW_SHAPES = ((2_000, 500), (300, 7))

_METRICS = load_all()


@functools.lru_cache(maxsize=None)
def _fuzz_program(seed: int):
    return compile_frog(generate_program(seed)).program


def _run_stats(program, memory, regs, machine, *, mode, max_cycles=None):
    """Construct and run one engine with the mode pinned explicitly."""
    set_engine_mode(mode)
    try:
        engine = Engine(machine, program, memory, regs)
    finally:
        set_engine_mode(None)
    assert engine.engine_mode == mode
    if max_cycles is None:
        return engine.run()
    return engine.run(max_cycles=max_cycles)


def _assert_parity(ref_stats, mode_stats, mode, label):
    assert mode_stats.cycles == ref_stats.cycles, (
        f"{label}: cycles diverged "
        f"(reference {ref_stats.cycles}, {mode} {mode_stats.cycles})"
    )
    ref_record = dataclasses.asdict(ref_stats)
    mode_record = dataclasses.asdict(mode_stats)
    if mode_record != ref_record:
        diverged = sorted(
            key for key in ref_record
            if mode_record.get(key) != ref_record[key]
        )
        raise AssertionError(
            f"{label}: SimStats diverged from reference in mode {mode} "
            f"in fields {diverged}"
        )
    assert _METRICS.collect(mode_stats) == _METRICS.collect(ref_stats), (
        f"{label}: obs metric snapshot diverged in mode {mode}"
    )


def _assert_matrix(runs, label):
    """``runs`` maps mode name -> SimStats for one (program, machine)."""
    for mode in OPTIMIZED_MODES:
        _assert_parity(runs["reference"], runs[mode], mode, label)


# ---------------------------------------------------------------------------
# Fuzz corpus parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("seed", range(NUM_PROGRAMS))
def test_fuzz_program_parity(seed, machine_name):
    program = _fuzz_program(seed)
    machine = MACHINES[machine_name]
    runs = {
        mode: _run_stats(
            program, _fresh_memory(seed), _initial_regs(seed), machine(),
            mode=mode,
        )
        for mode in ENGINE_MODES
    }
    _assert_matrix(runs, f"fuzz seed {seed} on {machine_name}")


# ---------------------------------------------------------------------------
# Suite workload parity
# ---------------------------------------------------------------------------

def _suite_cases():
    for suite_name in SUITE_NAMES:
        for benchmark in suite(suite_name):
            yield pytest.param(
                suite_name, benchmark.name,
                id=f"{suite_name}-{benchmark.name}",
            )


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("suite_name,bench_name", list(_suite_cases()))
def test_suite_workload_parity(suite_name, bench_name, machine_name):
    benchmark = next(
        b for b in suite(suite_name) if b.name == bench_name
    )
    machine = MACHINES[machine_name]
    for workload, _weight in benchmark.phases:
        runs = {}
        for mode in ENGINE_MODES:
            memory, regs = workload.fresh_input()
            runs[mode] = _run_stats(
                workload.program, memory, regs, machine(),
                mode=mode, max_cycles=workload.max_cycles,
            )
        _assert_matrix(
            runs, f"{suite_name}:{workload.name} on {machine_name}"
        )


# ---------------------------------------------------------------------------
# Sampled-window entry point parity
# ---------------------------------------------------------------------------

def _run_window(machine, workload, checkpoint, shape, *, mode):
    set_engine_mode(mode)
    try:
        engine = Engine(
            machine, workload.program, checkpoint.engine_memory(),
            checkpoint.regs, warm_caches=False, initial_pc=checkpoint.pc,
        )
    finally:
        set_engine_mode(None)
    engine.apply_warmup(checkpoint.warmup)
    n_instructions, warmup = shape
    return engine, engine.run_window(
        n_instructions, warmup_instructions=warmup,
    )


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_run_window_parity(machine_name):
    machine = MACHINES[machine_name]
    width = machine().core.commit_width
    multi_episodes = 0
    overshoots = 0
    for benchmark in suite("longrun"):
        for workload, _weight in benchmark.phases:
            memory, regs = workload.fresh_input()
            checkpoints = collect_checkpoints(
                workload.program, memory, regs, WINDOW_STARTS,
            )
            for start, shape in itertools.product(
                WINDOW_STARTS, WINDOW_SHAPES,
            ):
                label = (
                    f"run_window {shape} at {start} of {workload.name} "
                    f"on {machine_name}"
                )
                engines, windows = {}, {}
                for mode in ENGINE_MODES:
                    engines[mode], windows[mode] = _run_window(
                        machine(), workload, checkpoints[start], shape,
                        mode=mode,
                    )
                multi_episodes += engines["episode"].ep_episodes_multi
                ref = windows["reference"]
                # A threadlet merge credits a whole speculated slice at
                # once, overshooting a boundary by more than one commit
                # group.
                if (ref.warmup_instructions > shape[1] + width
                        or ref.measured_instructions > shape[0] + width):
                    overshoots += 1
                for mode in OPTIMIZED_MODES:
                    cur = windows[mode]
                    for field in (
                        "warmup_instructions", "warmup_cycles",
                        "measured_instructions", "measured_cycles",
                        "finished",
                    ):
                        assert getattr(cur, field) == getattr(ref, field), (
                            f"{label}: {field} diverged in mode {mode}"
                        )
                    _assert_parity(ref.stats, cur.stats, mode, label)
    if machine_name == "loopfrog":
        # Not vacuous: some windows stop inside multi-threadlet episodes,
        # and merges overshoot window boundaries.
        assert multi_episodes > 0
        assert overshoots > 0
