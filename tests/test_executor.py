"""Unit tests for the functional executor (golden reference model)."""

import pytest

from repro.errors import ExecutionError
from repro.isa import assemble
from repro.isa.instructions import Opcode
from repro.uarch import Executor, SparseMemory, run_program


def run_asm(text, memory=None, max_instructions=1_000_000):
    return run_program(assemble(text), memory, max_instructions=max_instructions)


def test_sum_loop():
    result = run_asm(
        """
        li r1, 0
        li r2, 10
        loop:
        add r1, r1, r2
        sub r2, r2, 1
        bnez r2, loop
        halt
        """
    )
    assert result.registers["r1"] == 55
    assert result.halted


def test_arithmetic_ops():
    result = run_asm(
        """
        li r1, 7
        li r2, 3
        add r3, r1, r2
        sub r4, r1, r2
        mul r5, r1, r2
        div r6, r1, r2
        rem r7, r1, r2
        and r8, r1, r2
        or  r9, r1, r2
        xor r10, r1, r2
        shl r11, r1, 2
        shr r12, r1, 1
        halt
        """
    )
    r = result.registers
    assert (r["r3"], r["r4"], r["r5"], r["r6"], r["r7"]) == (10, 4, 21, 2, 1)
    assert (r["r8"], r["r9"], r["r10"], r["r11"], r["r12"]) == (3, 7, 4, 28, 3)


def test_division_truncates_toward_zero():
    result = run_asm(
        """
        li r1, -7
        li r2, 2
        div r3, r1, r2
        rem r4, r1, r2
        halt
        """
    )
    assert result.registers["r3"] == -3
    assert result.registers["r4"] == -1


def test_64bit_wraparound():
    result = run_asm(
        """
        li r1, 0x7fffffffffffffff
        add r2, r1, 1
        halt
        """
    )
    assert result.registers["r2"] == -(1 << 63)


def test_comparisons():
    result = run_asm(
        """
        li r1, 5
        li r2, 9
        slt r3, r1, r2
        sle r4, r2, r2
        seq r5, r1, r2
        sne r6, r1, r2
        min r7, r1, r2
        max r8, r1, r2
        halt
        """
    )
    r = result.registers
    assert (r["r3"], r["r4"], r["r5"], r["r6"]) == (1, 1, 0, 1)
    assert (r["r7"], r["r8"]) == (5, 9)


def test_float_ops():
    result = run_asm(
        """
        fli f1, 2.0
        fli f2, 8.0
        fadd f3, f1, f2
        fmul f4, f1, f2
        fdiv f5, f2, f1
        fsqrt f6, f2
        fsub f7, f1, f2
        fabs f8, f7
        halt
        """
    )
    r = result.registers
    assert r["f3"] == 10.0
    assert r["f4"] == 16.0
    assert r["f5"] == 4.0
    assert r["f6"] == pytest.approx(2.8284271247)
    assert r["f8"] == 6.0


def test_float_int_conversion():
    result = run_asm(
        """
        li r1, 3
        fcvt f1, r1
        fli f2, 2.7
        icvt r2, f2
        halt
        """
    )
    assert result.registers["f1"] == 3.0
    assert result.registers["r2"] == 2


def test_memory_roundtrip():
    result = run_asm(
        """
        li r1, 1000
        li r2, -42
        store r2, r1, 0
        load r3, r1, 0
        store4 r2, r1, 8
        load4 r4, r1, 8
        halt
        """
    )
    assert result.registers["r3"] == -42
    assert result.registers["r4"] == -42


def test_memory_little_endian_byte_access():
    result = run_asm(
        """
        li r1, 2000
        li r2, 0x0102030405060708
        store r2, r1, 0
        load1 r3, r1, 0
        load1 r4, r1, 7
        halt
        """
    )
    assert result.registers["r3"] == 0x08
    assert result.registers["r4"] == 0x01


def test_float_memory_roundtrip():
    mem = SparseMemory()
    mem.store_float(512, 3.25)
    result = run_asm(
        """
        li r1, 512
        fload f1, r1, 0
        fadd f1, f1, f1
        fstore f1, r1, 8
        halt
        """,
        memory=mem,
    )
    assert result.registers["f1"] == 6.5
    assert result.memory.load_float(520) == 6.5


def test_call_and_ret():
    result = run_asm(
        """
        li r1, 5
        call double
        add r2, r1, 0
        halt
        double:
        add r1, r1, r1
        ret
        """
    )
    assert result.registers["r2"] == 10


def test_hints_are_functional_nops():
    with_hints = run_asm(
        """
        li r2, 4
        li r1, 0
        loop:
        detach cont
        add r1, r1, r2
        reattach cont
        cont:
        sub r2, r2, 1
        bnez r2, loop
        sync cont
        halt
        """
    )
    assert with_hints.registers["r1"] == 10


def test_hints_vs_nohints_same_result():
    prog = assemble(
        """
        li r2, 6
        li r1, 0
        loop:
        detach cont
        mul r3, r2, r2
        add r1, r1, r3
        reattach cont
        cont:
        sub r2, r2, 1
        bnez r2, loop
        sync cont
        halt
        """
    )
    a = run_program(prog)
    b = run_program(prog.without_hints())
    assert a.registers["r1"] == b.registers["r1"]
    assert a.instructions == b.instructions


def test_division_by_zero_raises():
    with pytest.raises(ExecutionError):
        run_asm("li r1, 1\nli r2, 0\ndiv r3, r1, r2\nhalt\n")


def test_runaway_program_hits_budget():
    with pytest.raises(ExecutionError):
        run_asm("spin: jmp spin\n", max_instructions=1000)


def test_step_interface_and_counts():
    ex = Executor(assemble("li r1, 1\nadd r1, r1, 1\nhalt\n"))
    assert ex.step().opcode.value == "li"
    assert ex.step().opcode.value == "add"
    assert ex.step().opcode.value == "halt"
    assert ex.step() is None
    assert ex.instruction_count == 3


def test_trace_hook_sees_memory_addresses():
    seen = []
    prog = assemble("li r1, 64\nstore r1, r1, 8\nload r2, r1, 8\nhalt\n")
    ex = Executor(prog, trace_hook=lambda pc, i, res: seen.append(res.mem_addr))
    ex.run()
    assert seen[1] == 72 and seen[2] == 72


def test_sparse_memory_array_helpers():
    mem = SparseMemory()
    end = mem.store_int_array(0, [1, -2, 3], size=4)
    assert end == 12
    assert mem.load_int_array(0, 3, size=4) == [1, -2, 3]
    mem.store_float_array(100, [0.5, -1.5])
    assert mem.load_float_array(100, 2) == [0.5, -1.5]


# run() and step() share one interpreter loop; these pin that the two
# entry points leave identical state, including after an exception.

_DIV_BY_ZERO_AFTER_28 = """
li r1, 5
li r2, 64
loop:
store r1, r2, 0
load r3, r2, 0
add r2, r2, 8
sub r1, r1, 1
bnez r1, loop
li r4, 0
div r5, r3, r4
halt
"""


def _state(ex):
    return (ex.pc, ex.instruction_count, list(ex.dynamic_counts.items()),
            dict(ex.regs), ex.memory.image())


def _traced(prog):
    seen = []
    ex = Executor(
        prog,
        trace_hook=lambda pc, i, res: seen.append((pc, i.opcode, res.mem_addr)),
    )
    return ex, seen


def test_run_and_step_loop_leave_identical_state_on_exception():
    prog = assemble(_DIV_BY_ZERO_AFTER_28)
    by_run, run_seen = _traced(prog)
    with pytest.raises(ExecutionError) as run_error:
        by_run.run()
    by_step, step_seen = _traced(prog)
    with pytest.raises(ExecutionError) as step_error:
        while by_step.step() is not None:
            pass
    assert str(run_error.value) == str(step_error.value)
    assert str(run_error.value).startswith("division by zero at pc=8:")
    assert _state(by_run) == _state(by_step)
    assert (by_run.pc, by_run.instruction_count) == (8, 28)
    assert list(by_run.dynamic_counts.items()) == [
        (Opcode.LI, 3), (Opcode.STORE, 5), (Opcode.LOAD, 5),
        (Opcode.ADD, 5), (Opcode.SUB, 5), (Opcode.BNEZ, 5),
    ]
    assert run_seen == step_seen and len(run_seen) == 28
    assert run_seen[2] == (2, Opcode.STORE, 64)


def test_failing_trace_hook_leaves_the_instruction_counted():
    def hook(pc, instr, result):
        if pc == 3:
            raise RuntimeError("hook")

    ex = Executor(assemble(_DIV_BY_ZERO_AFTER_28), trace_hook=hook)
    with pytest.raises(RuntimeError):
        ex.run()
    assert (ex.pc, ex.instruction_count) == (3, 4)
    assert list(ex.dynamic_counts.items()) == [
        (Opcode.LI, 2), (Opcode.STORE, 1), (Opcode.LOAD, 1),
    ]


def test_budget_exhaustion_message_and_state():
    prog = assemble("spin: jmp spin\n")
    ex = Executor(prog)
    with pytest.raises(ExecutionError, match=r"^<asm> exceeded 7 instructions$"):
        ex.run(max_instructions=7)
    assert (ex.pc, ex.instruction_count) == (0, 7)
    assert ex.dynamic_counts == {Opcode.JMP: 7}
    # Steps before a run count against its budget.
    ex = Executor(prog)
    ex.step()
    with pytest.raises(ExecutionError, match="exceeded 3 instructions"):
        ex.run(max_instructions=3)
    assert ex.instruction_count == 3


def test_run_after_steps_keeps_first_seen_count_order():
    ex = Executor(assemble("li r1, 1\nadd r1, r1, 1\nli r2, 2\nmul r2, r2, 3\nhalt\n"))
    ex.step()
    ex.step()
    result = ex.run()
    assert list(result.dynamic_counts) == [Opcode.LI, Opcode.ADD, Opcode.MUL]
    assert result.dynamic_counts[Opcode.LI] == 2
    assert result.instructions == 5 and result.halted
    assert ex.run().instructions == 5  # a halted executor runs nothing
