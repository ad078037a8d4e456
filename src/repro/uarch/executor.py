"""Functional (architectural) executor for the reproduction ISA.

This is the golden reference model: the timing simulators and the TLS
baselines all execute instructions through :func:`execute_one`, differing
only in *when* instructions execute and *which memory view* they see.
Speculative threadlets pass an SSB-backed memory view; the architectural
path passes :class:`~repro.uarch.memory_state.SparseMemory` directly.

The executor treats LoopFrog hints as nops, matching the paper's guarantee
that hint instructions never change sequential semantics (section 3).
:meth:`Executor.run` and :meth:`Executor.step` share one interpreter loop
(``Executor._execute``); a step is that loop stopped after one instruction.

Two closure-compiled siblings trade this module's generality for speed —
:mod:`repro.sampling.fastforward` (architectural-only fast-forwarding)
and :mod:`repro.uarch.fastpath` (the detailed engine's fast path).  Both
are differentially tested against the dispatch-table semantics here,
which stays the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Protocol

from ..errors import ExecutionError
from ..isa.instructions import OPCODE_ORDER, Instruction, Opcode
from ..obs import metrics as _metrics
from ..isa.program import Program
from ..isa.registers import initial_register_file
from .memory_state import (
    MASK64,
    SparseMemory,
    bits_to_float,
    float_to_bits,
    to_signed,
    to_unsigned,
)


class MemoryView(Protocol):
    """Interface the executor needs from memory.

    ``SparseMemory`` satisfies it directly; the LoopFrog model substitutes a
    threadlet-specific view that routes accesses through the SSB.
    """

    def load(self, addr: int, size: int) -> int: ...

    def store(self, addr: int, size: int, value: int) -> None: ...


@dataclass(slots=True)
class ExecResult:
    """Outcome of executing a single instruction."""

    next_pc: int
    taken: bool = False  # branch taken (branches only)
    mem_addr: Optional[int] = None  # effective address (memory ops only)
    mem_size: int = 0


def _as_int(value: float) -> int:
    return to_signed(int(value) & MASK64)


# ---------------------------------------------------------------------------
# Per-opcode handlers.  execute_one used to be a long if/elif chain over the
# opcode; the timing model executes every dynamic instruction through it, so
# the linear scan (plus enum identity tests) was one of the hottest paths in
# whole-suite runs.  Handlers are looked up by the precomputed
# ``Instruction.opcode_index`` via list indexing, and every opcode gets its
# own handler — no residual per-call enum identity tests inside shared
# multi-opcode bodies.
# ---------------------------------------------------------------------------


def _exec_add(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = to_signed((regs[srcs[0]] + b) & MASK64)
    return ExecResult(pc + 1)


def _exec_sub(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = to_signed((regs[srcs[0]] - b) & MASK64)
    return ExecResult(pc + 1)


def _exec_mul(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = to_signed((regs[srcs[0]] * b) & MASK64)
    return ExecResult(pc + 1)


def _exec_div(instr, regs, memory, pc):
    srcs = instr.srcs
    a = int(regs[srcs[0]])
    b = int(regs[srcs[1]] if len(srcs) > 1 else instr.imm)
    if b == 0:
        raise ExecutionError(f"division by zero at pc={pc}: {instr}")
    q = abs(a) // abs(b)  # truncate toward zero
    if (a < 0) != (b < 0):
        q = -q
    regs[instr.dest] = to_signed(q & MASK64)
    return ExecResult(pc + 1)


def _exec_rem(instr, regs, memory, pc):
    srcs = instr.srcs
    a = int(regs[srcs[0]])
    b = int(regs[srcs[1]] if len(srcs) > 1 else instr.imm)
    if b == 0:
        raise ExecutionError(f"division by zero at pc={pc}: {instr}")
    q = abs(a) // abs(b)  # truncate toward zero
    if (a < 0) != (b < 0):
        q = -q
    regs[instr.dest] = to_signed((a - q * b) & MASK64)
    return ExecResult(pc + 1)


def _exec_and(instr, regs, memory, pc):
    srcs = instr.srcs
    a = to_unsigned(int(regs[srcs[0]]))
    b = int(regs[srcs[1]] if len(srcs) > 1 else instr.imm)
    regs[instr.dest] = to_signed(a & to_unsigned(b))
    return ExecResult(pc + 1)


def _exec_or(instr, regs, memory, pc):
    srcs = instr.srcs
    a = to_unsigned(int(regs[srcs[0]]))
    b = int(regs[srcs[1]] if len(srcs) > 1 else instr.imm)
    regs[instr.dest] = to_signed(a | to_unsigned(b))
    return ExecResult(pc + 1)


def _exec_xor(instr, regs, memory, pc):
    srcs = instr.srcs
    a = to_unsigned(int(regs[srcs[0]]))
    b = int(regs[srcs[1]] if len(srcs) > 1 else instr.imm)
    regs[instr.dest] = to_signed(a ^ to_unsigned(b))
    return ExecResult(pc + 1)


def _exec_shl(instr, regs, memory, pc):
    srcs = instr.srcs
    a = to_unsigned(int(regs[srcs[0]]))
    b = int(regs[srcs[1]] if len(srcs) > 1 else instr.imm)
    regs[instr.dest] = to_signed((a << (b & 63)) & MASK64)
    return ExecResult(pc + 1)


def _exec_shr(instr, regs, memory, pc):
    # Logical right shift.
    srcs = instr.srcs
    a = to_unsigned(int(regs[srcs[0]]))
    b = int(regs[srcs[1]] if len(srcs) > 1 else instr.imm)
    regs[instr.dest] = to_signed(a >> (b & 63))
    return ExecResult(pc + 1)


def _exec_slt(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = int(regs[srcs[0]] < b)
    return ExecResult(pc + 1)


def _exec_sle(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = int(regs[srcs[0]] <= b)
    return ExecResult(pc + 1)


def _exec_seq(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = int(regs[srcs[0]] == b)
    return ExecResult(pc + 1)


def _exec_sne(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = int(regs[srcs[0]] != b)
    return ExecResult(pc + 1)


def _exec_min(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = min(regs[srcs[0]], b)
    return ExecResult(pc + 1)


def _exec_max(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = max(regs[srcs[0]], b)
    return ExecResult(pc + 1)


def _exec_mov(instr, regs, memory, pc):
    regs[instr.dest] = regs[instr.srcs[0]]
    return ExecResult(pc + 1)


def _exec_li(instr, regs, memory, pc):
    regs[instr.dest] = _as_int(instr.imm)
    return ExecResult(pc + 1)


def _exec_fadd(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = regs[srcs[0]] + b
    return ExecResult(pc + 1)


def _exec_fsub(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = regs[srcs[0]] - b
    return ExecResult(pc + 1)


def _exec_fmul(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = regs[srcs[0]] * b
    return ExecResult(pc + 1)


def _exec_fdiv(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    if b == 0.0:
        raise ExecutionError(f"float division by zero at pc={pc}: {instr}")
    regs[instr.dest] = regs[srcs[0]] / b
    return ExecResult(pc + 1)


def _exec_fsqrt(instr, regs, memory, pc):
    a = regs[instr.srcs[0]]
    if a < 0.0:
        raise ExecutionError(f"sqrt of negative at pc={pc}: {instr}")
    regs[instr.dest] = math.sqrt(a)
    return ExecResult(pc + 1)


def _exec_fmin(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = min(regs[srcs[0]], b)
    return ExecResult(pc + 1)


def _exec_fmax(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = max(regs[srcs[0]], b)
    return ExecResult(pc + 1)


def _exec_fabs(instr, regs, memory, pc):
    regs[instr.dest] = abs(regs[instr.srcs[0]])
    return ExecResult(pc + 1)


def _exec_fli(instr, regs, memory, pc):
    regs[instr.dest] = float(instr.imm)
    return ExecResult(pc + 1)


def _exec_fcvt(instr, regs, memory, pc):
    regs[instr.dest] = float(regs[instr.srcs[0]])
    return ExecResult(pc + 1)


def _exec_icvt(instr, regs, memory, pc):
    regs[instr.dest] = _as_int(regs[instr.srcs[0]])
    return ExecResult(pc + 1)


def _exec_fslt(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = int(regs[srcs[0]] < b)
    return ExecResult(pc + 1)


def _exec_fsle(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = int(regs[srcs[0]] <= b)
    return ExecResult(pc + 1)


def _exec_fseq(instr, regs, memory, pc):
    srcs = instr.srcs
    b = regs[srcs[1]] if len(srcs) > 1 else instr.imm
    regs[instr.dest] = int(regs[srcs[0]] == b)
    return ExecResult(pc + 1)


def _exec_load(instr, regs, memory, pc):
    addr = int(regs[instr.srcs[0]]) + int(instr.imm or 0)
    size = instr.size
    raw = memory.load(addr, size)
    regs[instr.dest] = to_signed(raw, 8 * size)
    return ExecResult(pc + 1, mem_addr=addr, mem_size=size)


def _exec_store(instr, regs, memory, pc):
    srcs = instr.srcs
    addr = int(regs[srcs[1]]) + int(instr.imm or 0)
    size = instr.size
    memory.store(addr, size, to_unsigned(int(regs[srcs[0]]), 8 * size))
    return ExecResult(pc + 1, mem_addr=addr, mem_size=size)


def _exec_fload(instr, regs, memory, pc):
    addr = int(regs[instr.srcs[0]]) + int(instr.imm or 0)
    size = instr.size
    regs[instr.dest] = bits_to_float(memory.load(addr, size), size)
    return ExecResult(pc + 1, mem_addr=addr, mem_size=size)


def _exec_fstore(instr, regs, memory, pc):
    srcs = instr.srcs
    addr = int(regs[srcs[1]]) + int(instr.imm or 0)
    size = instr.size
    memory.store(addr, size, float_to_bits(regs[srcs[0]], size))
    return ExecResult(pc + 1, mem_addr=addr, mem_size=size)


def _exec_jmp(instr, regs, memory, pc):
    return ExecResult(instr.target_index, taken=True)


def _exec_beqz(instr, regs, memory, pc):
    if regs[instr.srcs[0]] == 0:
        return ExecResult(instr.target_index, taken=True)
    return ExecResult(pc + 1, taken=False)


def _exec_bnez(instr, regs, memory, pc):
    if regs[instr.srcs[0]] != 0:
        return ExecResult(instr.target_index, taken=True)
    return ExecResult(pc + 1, taken=False)


def _exec_call(instr, regs, memory, pc):
    regs["ra"] = pc + 1
    return ExecResult(instr.target_index, taken=True)


def _exec_ret(instr, regs, memory, pc):
    return ExecResult(int(regs["ra"]), taken=True)


def _exec_nop(instr, regs, memory, pc):
    # Hints and system ops are functional nops; HALT is handled by callers.
    return ExecResult(pc + 1)


_HANDLERS = {
    Opcode.ADD: _exec_add,
    Opcode.SUB: _exec_sub,
    Opcode.MUL: _exec_mul,
    Opcode.DIV: _exec_div,
    Opcode.REM: _exec_rem,
    Opcode.AND: _exec_and,
    Opcode.OR: _exec_or,
    Opcode.XOR: _exec_xor,
    Opcode.SHL: _exec_shl,
    Opcode.SHR: _exec_shr,
    Opcode.SLT: _exec_slt,
    Opcode.SLE: _exec_sle,
    Opcode.SEQ: _exec_seq,
    Opcode.SNE: _exec_sne,
    Opcode.MIN: _exec_min,
    Opcode.MAX: _exec_max,
    Opcode.MOV: _exec_mov,
    Opcode.LI: _exec_li,
    Opcode.FADD: _exec_fadd,
    Opcode.FSUB: _exec_fsub,
    Opcode.FMUL: _exec_fmul,
    Opcode.FDIV: _exec_fdiv,
    Opcode.FSQRT: _exec_fsqrt,
    Opcode.FMIN: _exec_fmin,
    Opcode.FMAX: _exec_fmax,
    Opcode.FABS: _exec_fabs,
    Opcode.FMOV: _exec_mov,
    Opcode.FLI: _exec_fli,
    Opcode.FCVT: _exec_fcvt,
    Opcode.ICVT: _exec_icvt,
    Opcode.FSLT: _exec_fslt,
    Opcode.FSLE: _exec_fsle,
    Opcode.FSEQ: _exec_fseq,
    Opcode.LOAD: _exec_load,
    Opcode.STORE: _exec_store,
    Opcode.FLOAD: _exec_fload,
    Opcode.FSTORE: _exec_fstore,
    Opcode.JMP: _exec_jmp,
    Opcode.BEQZ: _exec_beqz,
    Opcode.BNEZ: _exec_bnez,
    Opcode.CALL: _exec_call,
    Opcode.RET: _exec_ret,
    Opcode.DETACH: _exec_nop,
    Opcode.REATTACH: _exec_nop,
    Opcode.SYNC: _exec_nop,
    Opcode.NOP: _exec_nop,
    Opcode.HALT: _exec_nop,
}


def _exec_unimplemented_factory(op):
    def _handler(instr, regs, memory, pc):
        raise ExecutionError(f"unimplemented opcode {op!r} at pc={pc}")
    return _handler


# Handler table indexed by ``Instruction.opcode_index`` (see OPCODE_ORDER).
DISPATCH = [
    _HANDLERS.get(op) or _exec_unimplemented_factory(op) for op in OPCODE_ORDER
]
_HALT_INDEX = OPCODE_ORDER.index(Opcode.HALT)


def execute_one(
    instr: Instruction,
    regs: Dict[str, float],
    memory: MemoryView,
    pc: int,
) -> ExecResult:
    """Execute ``instr`` against ``regs``/``memory``; return control outcome.

    Integer registers hold signed 64-bit Python ints (wrapped on overflow);
    FP registers hold Python floats.  Raises :class:`ExecutionError` on
    division by zero or malformed instructions.
    """
    return DISPATCH[instr.opcode_index](instr, regs, memory, pc)


@dataclass
class RunResult:
    """Summary of a whole-program functional run."""

    instructions: int
    registers: Dict[str, float]
    memory: SparseMemory
    halted: bool
    dynamic_counts: Dict[Opcode, int] = field(default_factory=dict)


class Executor:
    """Convenience wrapper: run a whole :class:`Program` to completion.

    Args:
        program: the program to run.
        memory: optional pre-initialised memory (workload inputs).
        trace_hook: optional callable invoked per retired instruction with
            ``(pc, instr, result)``; used by profiling and by tests.
    """

    def __init__(
        self,
        program: Program,
        memory: Optional[SparseMemory] = None,
        trace_hook: Optional[Callable[[int, Instruction, ExecResult], None]] = None,
    ):
        self.program = program
        self.memory = memory if memory is not None else SparseMemory()
        self.regs = initial_register_file()
        self.pc = 0
        self.halted = False
        self.instruction_count = 0
        self.dynamic_counts: Dict[Opcode, int] = {}
        self._trace_hook = trace_hook

    def step(self) -> Optional[Instruction]:
        """Execute one instruction; returns it, or ``None`` once halted."""
        if self.halted:
            return None
        return self._execute(self.instruction_count + 1, is_budget=False)

    def run(self, max_instructions: int = 50_000_000) -> RunResult:
        """Run until ``halt`` or the instruction budget is exhausted."""
        if not self.halted:
            self._execute(max_instructions, is_budget=True)
        return RunResult(
            instructions=self.instruction_count,
            registers=dict(self.regs),
            memory=self.memory,
            halted=self.halted,
            dynamic_counts=dict(self.dynamic_counts),
        )

    def _execute(self, stop: int, is_budget: bool) -> Optional[Instruction]:
        """The interpreter loop behind :meth:`step` and :meth:`run`.

        Executes until ``halt`` or until ``instruction_count`` reaches
        ``stop``; reaching it is an error when ``is_budget``.  Returns
        the last instruction executed.  The pc, the instruction count and
        the per-opcode counts (keyed by ``opcode_index``) live in locals
        and are written back when the loop exits, by exception too, so a
        trace hook must not read them off the executor mid-run.
        """
        name = self.program.name
        instructions = self.program.instructions
        n = len(instructions)
        dispatch = DISPATCH
        regs = self.regs
        memory = self.memory
        hook = self._trace_hook
        pc = self.pc
        count = self.instruction_count
        counts: Dict[int, int] = {}
        instr = None
        try:
            while True:
                if count >= stop:
                    if is_budget:
                        raise ExecutionError(
                            f"{name} exceeded {stop} instructions"
                        )
                    break
                if not 0 <= pc < n:
                    raise ExecutionError(f"pc {pc} out of range in {name}")
                instr = instructions[pc]
                op = instr.opcode_index
                if op == _HALT_INDEX:
                    self.halted = True
                    count += 1
                    break
                result = dispatch[op](instr, regs, memory, pc)
                count += 1
                counts[op] = counts.get(op, 0) + 1
                if hook is not None:
                    hook(pc, instr, result)
                pc = result.next_pc
        finally:
            self.pc = pc
            self.instruction_count = count
            dynamic = self.dynamic_counts
            for op, k in counts.items():
                opcode = OPCODE_ORDER[op]
                dynamic[opcode] = dynamic.get(opcode, 0) + k
        return instr


def run_program(
    program: Program,
    memory: Optional[SparseMemory] = None,
    max_instructions: int = 50_000_000,
) -> RunResult:
    """Run ``program`` functionally and return its :class:`RunResult`."""
    return Executor(program, memory).run(max_instructions=max_instructions)


# ---------------------------------------------------------------------------
# Metrics catalog for the functional executor (collected from RunResult).
# ---------------------------------------------------------------------------

_metrics.register(
    _metrics.MetricSpec("uarch.executor.instructions", _metrics.COUNTER,
                        "uarch.executor",
                        "Dynamic instructions retired by a functional run",
                        unit="instructions", source="instructions"),
    _metrics.MetricSpec("uarch.executor.opcode_counts", _metrics.HISTOGRAM,
                        "uarch.executor",
                        "Dynamic instruction count per opcode",
                        unit="instructions",
                        derive=lambda r: {
                            op.value: n for op, n in r.dynamic_counts.items()
                        }),
)
