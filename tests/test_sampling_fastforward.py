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

Exercised over the same seed-pinned random Frog corpus as
``test_differential`` — cross-iteration memory dependencies,
data-dependent branches and speculation pressure included.
"""

import pytest

from repro.compiler import compile_frog
from repro.sampling.fastforward import (
    FastForwardExecutor,
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
