"""Differential fuzzing of the timing cores: LoopFrog vs serial baseline.

Generates seed-pinned random Frog programs — annotated loops over arrays
with cross-iteration register and memory dependencies, data-dependent
branches, and scalar parameters — and asserts that the LoopFrog core's
final *architectural* state (registers + memory) is identical to the
serial baseline core's, and that both match the functional executor.

This is the paper's core guarantee (section 3: hints never change
sequential semantics) exercised mechanically: speculation may squash,
forward through the SSB, mispredict packing — but whatever happens
microarchitecturally, the committed state must be exactly the serial one.

The program generator deliberately produces loop bodies that stress the
speculation machinery: reads of ``a[i - 1]``/``a[i + 1]`` create true
cross-iteration memory dependencies (conflict squashes), scalar
accumulators create IV-misprediction pressure (packing squashes), and
``if``s on loaded data create divergent speculative paths.
"""

import random

import pytest

from repro.compiler import compile_frog
from repro.uarch import BaselineCore, LoopFrogCore, SparseMemory
from repro.uarch.executor import Executor

NUM_PROGRAMS = 50
A_BASE = 0x1_0000   # array a
B_BASE = 0x2_0000   # array b
OUT_BASE = 0x3_0000  # scalar results


# ---------------------------------------------------------------------------
# Random program generator (seeded, self-contained)
# ---------------------------------------------------------------------------

_BINOPS = ["+", "-", "*", "&", "|", "^"]


def _gen_expr(rng: random.Random, depth: int = 0) -> str:
    atoms = ["i", "acc", "s0", "s1", "a[i]", "b[i]",
             str(rng.randint(-50, 50))]
    if depth >= 2 or rng.random() < 0.4:
        return rng.choice(atoms)
    op = rng.choice(_BINOPS)
    return f"({_gen_expr(rng, depth + 1)} {op} {_gen_expr(rng, depth + 1)})"


def _gen_stmt(rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return f"a[i] = {_gen_expr(rng)};"
    if kind == 1:
        return f"b[i] = {_gen_expr(rng)};"
    if kind == 2:
        return f"acc = acc + {_gen_expr(rng)};"
    if kind == 3:
        # True cross-iteration memory dependency: iteration i reads what
        # iteration i-1 wrote (or i+1's future value — stale until the
        # conflict detector catches the overwrite).
        neighbour = rng.choice(["a[i - 1]", "a[i + 1]", "b[i - 1]"])
        target = rng.choice(["a[i]", "b[i]"])
        return f"{target} = {neighbour} + {_gen_expr(rng)};"
    if kind == 4:
        body = rng.choice([
            f"a[i] = {_gen_expr(rng)};",
            f"b[i] = {_gen_expr(rng)};",
            f"acc = acc ^ {_gen_expr(rng)};",
        ])
        return f"if ({_gen_expr(rng)} < {_gen_expr(rng)}) {{ {body} }}"
    return f"acc = {_gen_expr(rng)};"


def generate_program(seed: int) -> str:
    """One random Frog program; same seed, same source, forever."""
    rng = random.Random(seed)
    n = rng.choice([8, 12, 16, 24])
    stmts = "\n            ".join(
        _gen_stmt(rng) for _ in range(rng.randint(2, 5))
    )
    second_loop = ""
    if rng.random() < 0.5:
        pragma = "#pragma loopfrog\n        " if rng.random() < 0.7 else ""
        second_loop = f"""
        {pragma}for (var j: int = 0; j < {n}; j = j + 1) {{
            acc = acc + a[j] - b[j];
        }}"""
    return f"""
    fn main(a: ptr<int>, b: ptr<int>, out: ptr<int>, s0: int) {{
        var s1: int = {rng.randint(-100, 100)};
        var acc: int = {rng.randint(-20, 20)};
        #pragma loopfrog
        for (var i: int = 0; i < {n}; i = i + 1) {{
            {stmts}
        }}{second_loop}
        out[0] = acc;
    }}
    """


def _fresh_memory(seed: int) -> SparseMemory:
    rng = random.Random(seed + 1_000_003)
    mem = SparseMemory()
    mem.store_int_array(A_BASE, [rng.randint(-1000, 1000) for _ in range(32)])
    mem.store_int_array(B_BASE, [rng.randint(-1000, 1000) for _ in range(32)])
    return mem


def _initial_regs(seed: int):
    rng = random.Random(seed + 2_000_003)
    return {
        "r1": A_BASE, "r2": B_BASE, "r3": OUT_BASE,
        "r4": rng.randint(-100, 100),
    }


@pytest.mark.parametrize("seed", range(NUM_PROGRAMS))
def test_loopfrog_state_matches_serial_baseline(seed):
    source = generate_program(seed)
    program = compile_frog(source).program

    base = BaselineCore().run(
        program, _fresh_memory(seed), _initial_regs(seed)
    )
    frog = LoopFrogCore().run(
        program, _fresh_memory(seed), _initial_regs(seed)
    )

    assert frog.memory.image() == base.memory.image(), (
        f"seed {seed}: speculative memory state diverged\n{source}"
    )
    assert frog.registers == base.registers, (
        f"seed {seed}: architectural registers diverged\n{source}"
    )

    # Third oracle: the functional executor (golden reference model).
    ex = Executor(program, _fresh_memory(seed))
    ex.regs.update(_initial_regs(seed))
    ex.run()
    assert ex.memory.image() == base.memory.image(), (
        f"seed {seed}: baseline timing model diverged from the functional "
        f"executor\n{source}"
    )


def test_generator_is_deterministic():
    """Seed-pinning contract: the same seed must regenerate byte-identical
    sources across sessions, or failures would be unreproducible."""
    for seed in (0, 7, 49):
        assert generate_program(seed) == generate_program(seed)


def test_generated_programs_speculate():
    """The corpus must actually exercise the speculation machinery —
    a fuzzer whose programs never spawn threadlets proves nothing."""
    spawned = squashed = 0
    for seed in range(NUM_PROGRAMS):
        program = compile_frog(generate_program(seed)).program
        frog = LoopFrogCore().run(
            program, _fresh_memory(seed), _initial_regs(seed)
        )
        spawned += frog.stats.threadlets_spawned
        squashed += frog.stats.threadlets_squashed
    assert spawned > NUM_PROGRAMS  # well over one epoch per program
    assert squashed > 0            # and some real misspeculation
