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

The suite leg also checks each run's stats against the output pin,
``tests/engine_pin.json``: one :func:`~repro.results.serialize.stats_sha256`
fingerprint per run digest.  The run digest carries
``ENGINE_SCHEMA_VERSION``, so the rule is "same run digest, same
SimStats": a timing change must bump the schema, and then
``tools/pin_engine.py`` rewrites the pin.  The pin also holds the
default sampled estimate of every longrun phase on both machines, under
its sampled run digest, which carries ``SAMPLING_SCHEMA_VERSION`` too.
"""

import dataclasses
import functools
import gc
import itertools
import json
import weakref
from pathlib import Path

import pytest

from repro.compiler import compile_frog
from repro.experiments import runner
from repro.obs.metrics import load_all
from repro.results.digest import run_digest, sampled_run_digest
from repro.results.serialize import stats_sha256
from repro.sampling.fastforward import collect_checkpoints
from repro.sampling.runner import SAMPLING_SCHEMA_VERSION, SamplingConfig
from repro.uarch.config import baseline_machine, default_machine
from repro.uarch.core import (
    ENGINE_MODES,
    ENGINE_SCHEMA_VERSION,
    Engine,
    set_engine_mode,
)
from repro.workloads import get_workload
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

_PIN = json.loads((Path(__file__).parent / "engine_pin.json").read_text())


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
        _assert_pinned(workload, machine_name, runs["episode"])


def _assert_pinned(workload, machine_name, stats):
    pinned = _PIN["runs"].get(run_digest(workload, MACHINES[machine_name]()))
    assert pinned is not None, (
        f"no pin for {workload.name} on {machine_name}: "
        f"regenerate with tools/pin_engine.py"
    )
    assert stats_sha256(stats) == pinned["stats_sha256"], (
        "SimStats moved under an unchanged run digest: bump "
        "ENGINE_SCHEMA_VERSION, then regenerate "
        f"({workload.name} on {machine_name}: cycles "
        f"{pinned['cycles']} -> {stats.cycles})"
    )


def test_engine_pin_holds_exactly_the_current_run_digests():
    """Digests only, no simulation: every suite run (48 workload-phases x
    2 machines) has a pin, no stale pin survives, and the pin was written
    under the current schema."""
    digests = [
        run_digest(workload, make_machine())
        for suite_name in SUITE_NAMES
        for benchmark in suite(suite_name)
        for workload, _weight in benchmark.phases
        for make_machine in MACHINES.values()
    ]
    assert _PIN["engine_schema"] == ENGINE_SCHEMA_VERSION
    assert sorted(_PIN["runs"]) == sorted(digests)


def test_sampled_longrun_matches_pin(no_default_store):
    """A sampled ``run_suite("longrun")`` gives, for every phase on both
    machines, the pinned estimate under the pinned sampled run digest:
    CPI, error bound, counts and the extrapolated SimStats."""
    runner.run_suite("longrun", sampling=True, jobs=1)
    assert _PIN["sampling_schema"] == SAMPLING_SCHEMA_VERSION
    config = SamplingConfig()
    digests = []
    for benchmark in suite("longrun"):
        for workload, _weight in benchmark.phases:
            for machine_name, make_machine in MACHINES.items():
                digest = sampled_run_digest(workload, make_machine(), config)
                digests.append(digest)
                result = runner._CACHE[digest]
                estimate = {
                    "workload": workload.name,
                    "machine": machine_name,
                    "estimated_cpi": result.estimated_cpi,
                    "error_bound": result.error_bound,
                    "cycles": result.stats.cycles,
                    "total_instructions": result.total_instructions,
                    "detailed_instructions": result.detailed_instructions,
                    "num_intervals": result.num_intervals,
                    "num_clusters": result.num_clusters,
                    "stats_sha256": stats_sha256(result.stats),
                }
                assert estimate == _PIN["sampled"].get(digest), (
                    f"sampled {workload.name} on {machine_name} moved under "
                    f"an unchanged sampled run digest: bump "
                    f"SAMPLING_SCHEMA_VERSION, then regenerate"
                )
    assert sorted(_PIN["sampled"]) == sorted(digests)


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


# ---------------------------------------------------------------------------
# Engine lifetime
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entry", ["run", "run_window"])
@pytest.mark.parametrize("mode", ENGINE_MODES)
def test_finished_engine_is_freed_without_the_cyclic_collector(mode, entry):
    """An engine is no reference cycle: once ``run`` or ``run_window``
    returns and the caller lets go of it, reference counting alone frees
    it, with its memory copy, SSB and caches."""
    workload = get_workload("imagick_conv")
    memory, regs = workload.fresh_input()
    set_engine_mode(mode)
    try:
        engine = Engine(default_machine(), workload.program, memory, regs)
    finally:
        set_engine_mode(None)
    freed = weakref.ref(engine)
    gc.disable()
    try:
        if entry == "run":
            stats = engine.run(max_cycles=workload.max_cycles)
        else:
            stats = engine.run_window(3_000).stats
        assert stats.threadlets_spawned > 0
        del engine
        assert freed() is None
    finally:
        gc.enable()
