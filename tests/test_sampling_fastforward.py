"""Differential tests of the sampled-simulation fast-forward path.

The fast-forward executor is the functional model sampled simulation
(docs/sampling.md) uses to skip between detailed windows, and its
checkpoints are where mid-program windows start.  Both must be
*architecturally invisible*:

* fast-forwarding a program to completion must reproduce the reference
  :class:`~repro.uarch.executor.Executor`'s final state exactly, and
* resuming the detailed engine from a mid-program checkpoint must land
  in exactly the architectural state a detailed run from instruction
  zero reaches.

Faults must carry the executor's text, and each checkpoint's warm-up
record must equal one rebuilt from the executor's per-instruction trace.

Exercised over the same seed-pinned random Frog corpus as
``test_differential`` — cross-iteration memory dependencies,
data-dependent branches and speculation pressure included.
"""

import json
import os
import subprocess
import sys
from collections import deque

import pytest

from repro.compiler import compile_frog
from repro.errors import ExecutionError
from repro.isa import assemble
from repro.isa.instructions import Opcode
from repro.sampling.fastforward import (
    FastForwardExecutor,
    WarmupState,
    collect_checkpoints,
)
from repro.uarch.config import default_machine
from repro.uarch.core import Engine
from repro.uarch.executor import Executor

from tests.test_differential import (
    _fresh_memory,
    _initial_regs,
    generate_program,
)

NUM_SEEDS = 12


def _compiled(seed):
    return compile_frog(generate_program(seed)).program


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_fast_forward_matches_functional_executor(seed):
    program = _compiled(seed)

    ex = Executor(program, _fresh_memory(seed))
    ex.regs.update(_initial_regs(seed))
    ex.run()

    ff = FastForwardExecutor(program, _fresh_memory(seed), _initial_regs(seed))
    executed = ff.run_to_halt()

    assert ff.halted, f"seed {seed}: fast-forward did not reach halt"
    assert executed > 0
    assert ff.memory.image() == ex.memory.image(), (
        f"seed {seed}: fast-forward memory state diverged from the "
        f"functional executor"
    )
    assert ff.regs == ex.regs, (
        f"seed {seed}: fast-forward registers diverged from the "
        f"functional executor"
    )


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_detail_from_checkpoint_matches_detail_from_zero(seed):
    """FF to a mid-program boundary + detailed engine from the checkpoint
    must finish in the same architectural state as a detailed run from
    instruction zero (with full speculation enabled)."""
    program = _compiled(seed)
    machine = default_machine()

    reference = Engine(
        machine, program, _fresh_memory(seed), _initial_regs(seed)
    )
    reference.run()
    ref_memory = reference.memory.image()
    ref_regs = dict(reference.order[0].regs)

    total = FastForwardExecutor(
        program, _fresh_memory(seed), _initial_regs(seed)
    ).run_to_halt()
    assert total > 3
    boundaries = sorted({total // 3, (2 * total) // 3})
    checkpoints = collect_checkpoints(
        program, _fresh_memory(seed), _initial_regs(seed), boundaries
    )

    for boundary, cp in checkpoints.items():
        assert cp.icount == boundary
        resumed = Engine(
            machine, program, cp.engine_memory(), dict(cp.regs),
            warm_caches=False, initial_pc=cp.pc,
        )
        resumed.run()
        assert resumed.memory.image() == ref_memory, (
            f"seed {seed}, boundary {boundary}: resumed memory state "
            f"diverged from the detailed run from zero"
        )
        assert dict(resumed.order[0].regs) == ref_regs, (
            f"seed {seed}, boundary {boundary}: resumed registers "
            f"diverged from the detailed run from zero"
        )


def test_checkpoint_memory_is_isolated_per_window():
    """Engines started from the same checkpoint must not see each other's
    stores — ``engine_memory`` hands out independent copies."""
    program = _compiled(0)
    total = FastForwardExecutor(
        program, _fresh_memory(0), _initial_regs(0)
    ).run_to_halt()
    cp = collect_checkpoints(
        program, _fresh_memory(0), _initial_regs(0), [total // 2]
    )[total // 2]

    snapshot = cp.memory.image()
    first = Engine(default_machine(), program, cp.engine_memory(),
                   dict(cp.regs), warm_caches=False, initial_pc=cp.pc)
    first.run()
    assert cp.memory.image() == snapshot, (
        "running a window mutated the checkpoint's private snapshot"
    )


def test_fast_forward_run_to_is_exact():
    """``run_to`` must stop at exactly the requested icount so checkpoint
    boundaries line up with BBV interval boundaries."""
    program = _compiled(1)
    ff = FastForwardExecutor(program, _fresh_memory(1), _initial_regs(1))
    total = FastForwardExecutor(
        program, _fresh_memory(1), _initial_regs(1)
    ).run_to_halt()
    target = total // 2
    ff.run_to(target)
    assert ff.icount == target
    assert not ff.halted


FAULTING_PROGRAMS = {
    "div_by_zero_register": "li r1, 7\nli r2, 0\ndiv r3, r1, r2\nhalt\n",
    "rem_by_zero_immediate": "li r1, 7\nrem r3, r1, 0\nhalt\n",
    "fdiv_by_zero": "fli f1, 1.0\nfli f2, 0.0\nfdiv f3, f1, f2\nhalt\n",
    "fsqrt_of_negative": "fli f1, -4.0\nfsqrt f2, f1\nhalt\n",
    "ret_to_negative": "li ra, -3\nret\nhalt\n",
    "ret_past_end": "li ra, 10\nret\nhalt\n",
    "fall_off_end": "li r1, 1\nadd r1, r1, 1\n",
}


@pytest.mark.parametrize("name", sorted(FAULTING_PROGRAMS))
def test_fast_forward_faults_carry_executor_text(name):
    program = assemble(FAULTING_PROGRAMS[name], name=name)
    with pytest.raises(ExecutionError) as golden:
        Executor(program).run()
    with pytest.raises(ExecutionError) as fast:
        FastForwardExecutor(program).run_to_halt()
    assert str(fast.value) == str(golden.value)


def _golden_warmup(program, seed, icount, depth):
    """The warm-up record rebuilt from the golden executor's trace: the
    last-touch order of data addresses (seeded with the initial working
    set), ``(pc, taken)`` per conditional branch, and ``(pc, next_pc)``
    per jump, call and taken conditional branch."""
    memory = _fresh_memory(seed)
    touched = dict.fromkeys(memory.written_addresses())
    conds = deque(maxlen=depth)
    targets = deque(maxlen=depth)

    def hook(pc, instr, result):
        if result.mem_addr is not None:
            touched.pop(result.mem_addr, None)
            touched[result.mem_addr] = None
        if instr.opcode in (Opcode.BEQZ, Opcode.BNEZ):
            conds.append((pc, result.taken))
            if result.taken:
                targets.append((pc, result.next_pc))
        elif instr.opcode in (Opcode.JMP, Opcode.CALL):
            targets.append((pc, result.next_pc))

    ex = Executor(program, memory, trace_hook=hook)
    ex.regs.update(_initial_regs(seed))
    while ex.instruction_count < icount:
        ex.step()
    return WarmupState(tuple(touched), tuple(conds), tuple(targets))


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_checkpoint_warmup_matches_golden_trace(seed):
    program = _compiled(seed)
    total = FastForwardExecutor(
        program, _fresh_memory(seed), _initial_regs(seed)
    ).run_to_halt()
    boundaries = [total // 3, (2 * total) // 3]
    checkpoints = collect_checkpoints(
        program, _fresh_memory(seed), _initial_regs(seed), boundaries,
        record_warmup=64,
    )
    for boundary in boundaries:
        assert checkpoints[boundary].warmup == _golden_warmup(
            program, seed, boundary, 64
        ), f"seed {seed}: warm-up record diverged at icount {boundary}"


# ---------------------------------------------------------------------------
# Cache warm-up replay: one insert per line equals one per recorded address
# ---------------------------------------------------------------------------

def _replay_per_address(engine, warmup):
    """The reference cache replay: every recorded address, oldest first,
    into the L2 and the L1D, then the program text."""
    line = engine.machine.memory.line_size
    for addr in warmup.mem_addresses:
        engine.hierarchy.l2.insert(addr // line)
        engine.hierarchy.l1d.insert(addr // line)
    engine._warm_text()


def _lru_sets(level):
    """Each set's lines, least recently used first (None: never filled)."""
    return [
        None if lines is None else sorted(lines, key=lines.get)
        for lines in level.sets
    ]


def _assert_line_replay_matches(program, warmup, label):
    machine = default_machine()
    engines = [Engine(machine, program, warm_caches=False) for _ in range(2)]
    engines[0].apply_warmup(warmup)
    _replay_per_address(engines[1], warmup)
    for level in ("l1d", "l2"):
        line_sets, address_sets = (
            _lru_sets(getattr(e.hierarchy, level)) for e in engines
        )
        assert line_sets == address_sets, f"{label}: {level} sets differ"


def test_line_replay_matches_per_address_replay_on_longrun_records():
    from repro.sampling.runner import plan_program_sampled
    from repro.workloads.suites import suite

    records = 0
    for benchmark in suite("longrun"):
        for workload, _weight in benchmark.phases:
            memory, regs = workload.fresh_input()
            plan = plan_program_sampled(workload.program, memory, regs)
            for start, checkpoint in plan.checkpoints.items():
                _assert_line_replay_matches(
                    workload.program, checkpoint.warmup,
                    f"{workload.name} at {start}",
                )
                records += 1
    assert records > 0


def test_line_replay_matches_per_address_replay_on_retouched_lines():
    """A random stream whose lines are touched again and again, many of
    them aliasing into the same L1D and L2 sets, so both levels evict."""
    import random

    rng = random.Random(7)
    machine = default_machine()
    line = machine.memory.line_size
    l2_sets = machine.memory.l2_size // (machine.memory.l2_assoc * line)
    stream = []
    for _ in range(20_000):
        if rng.random() < 0.7:  # 16 sets, 24 aliasing lines each
            line_addr = rng.randrange(16) + l2_sets * rng.randrange(24)
        else:
            line_addr = rng.randrange(1 << 16)
        stream.append(line_addr * line + rng.randrange(line))
    program = assemble("halt\n", name="replay")
    _assert_line_replay_matches(
        program, WarmupState(mem_addresses=tuple(stream)), "random stream",
    )


def test_warmup_line_order_is_computed_once_per_line_size():
    record = WarmupState(mem_addresses=(0, 70, 8, 130, 64, 1))
    assert record.lines(64) == (2, 1, 0)
    assert record.lines(64) is record.lines(64)
    assert record.lines(128) == (1, 0)
    # The memo is no part of the record's value.
    assert record == WarmupState(mem_addresses=(0, 70, 8, 130, 64, 1))


# ---------------------------------------------------------------------------
# Breakpoints and the access observer
# ---------------------------------------------------------------------------


def _golden_trace(program, seed):
    """``(pc, next_pc, mem_addr, mem_size, is_store)`` per instruction the
    golden executor retires (``mem_addr`` None off memory instructions)."""
    seen = []
    ex = Executor(
        program, _fresh_memory(seed),
        trace_hook=lambda pc, i, res: seen.append(
            (pc, res.next_pc, res.mem_addr, res.mem_size, i.is_store)
        ),
    )
    ex.regs.update(_initial_regs(seed))
    ex.run()
    return seen, ex


@pytest.mark.parametrize("seed", range(4))
def test_breakpoints_stop_after_their_instruction(seed):
    # Break on every hint, branch and ``ret``: breakpoints wrap the other
    # patches (the checked ``ret``, block counting) and stop after them.
    program = _compiled(seed)
    trace, ex = _golden_trace(program, seed)
    breakpoints = {
        pc for pc, instr in enumerate(program.instructions)
        if instr.is_hint or instr.is_branch
    }
    expected = [
        (n + 1, pc, nxt)
        for n, (pc, nxt, _, _, _) in enumerate(trace) if pc in breakpoints
    ]
    assert expected, f"seed {seed}: no breakpoint reached"

    ff = FastForwardExecutor(
        program, _fresh_memory(seed), _initial_regs(seed),
        collect_bbv=True, breakpoints=breakpoints,
    )
    stops = []
    while not ff.halted:
        ff.run(1_000_000)
        if ff.stopped_at is not None:
            assert not ff.halted
            stops.append((ff.icount, ff.stopped_at, ff.pc))
    assert stops == expected
    assert ff.icount == ex.instruction_count
    assert ff.regs == ex.regs
    assert ff.memory.image() == ex.memory.image()
    plain = FastForwardExecutor(
        program, _fresh_memory(seed), _initial_regs(seed), collect_bbv=True
    )
    plain.run_to_halt()
    assert ff.take_block_counts() == plain.take_block_counts()


@pytest.mark.parametrize("seed", range(4))
def test_access_observer_sees_every_load_and_store(seed):
    program = _compiled(seed)
    trace, _ = _golden_trace(program, seed)
    expected = [(a, z, st) for _, _, a, z, st in trace if a is not None]
    seen = []
    ff = FastForwardExecutor(
        program, _fresh_memory(seed), _initial_regs(seed),
        observe=lambda addr, size, is_store: seen.append(
            (addr, size, is_store)
        ),
    )
    ff.run_to_halt()
    assert seen == expected


def test_one_access_observer_and_breakpoints_in_range():
    program = _compiled(0)
    with pytest.raises(ValueError, match="access observer"):
        FastForwardExecutor(program, record_warmup=8,
                            observe=lambda a, z, s: None)
    with pytest.raises(ValueError, match="breakpoint pc"):
        FastForwardExecutor(program, breakpoints=[len(program)])


@pytest.mark.parametrize("name", sorted(FAULTING_PROGRAMS))
@pytest.mark.parametrize("budget", [1, 2, 3])
def test_fast_forward_budget_precedes_the_next_fetch(name, budget):
    """As in the golden executor, the budget is checked before the next
    fetch: a bad pc left by the last budgeted instruction reports the
    budget, and every handler fault keeps its own text."""
    program = assemble(FAULTING_PROGRAMS[name], name=name)
    with pytest.raises(ExecutionError) as golden:
        Executor(program).run(max_instructions=budget)
    with pytest.raises(ExecutionError) as fast:
        FastForwardExecutor(program).run_to_halt(max_instructions=budget)
    assert str(fast.value) == str(golden.value)


# ---------------------------------------------------------------------------
# The package loads only the fast-forward module up front
# ---------------------------------------------------------------------------

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

_NAMES_SCRIPT = """
import importlib, json, sys
if sys.argv[1] == "runner-first":
    import repro.sampling.runner  # binds its submodules on the package
import repro.sampling as package
names = {}
exec("from repro.sampling import *", names)
import repro.sampling.runner
wrong = [
    name for name in package.__all__
    if names[name] is not getattr(importlib.import_module(
        "repro.sampling." + package._HOME.get(name, "fastforward")), name)
]
print(json.dumps(wrong))
"""


def _fresh_process(*args):
    out = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=_SRC), check=True,
    )
    return json.loads(out.stdout)


def test_importing_experiments_leaves_sampling_runner_unloaded():
    lazy = ["repro.sampling.runner", "repro.sampling.kmeans",
            "repro.sampling.extrapolate"]
    loaded = _fresh_process(
        "-c",
        "import json, sys; import repro.experiments; "
        f"print(json.dumps([m for m in {lazy!r} if m in sys.modules]))",
    )
    assert loaded == []


@pytest.mark.parametrize("order", ["names-first", "runner-first"])
def test_sampling_package_names_resolve_in_any_import_order(order):
    # kmeans and extrapolate name both a submodule and its function; the
    # package exports the functions, whichever is imported first.
    assert _fresh_process("-c", _NAMES_SCRIPT, order) == []
