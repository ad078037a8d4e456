"""Compiled per-instruction fetch path for the detailed timing engine.

This is :class:`repro.uarch.core.Engine`'s fetch/decode/execute stage,
and :mod:`repro.sampling.fastforward` runs the same handlers without a
timing model.  The reference fetch path re-interprets every
dynamic instruction through :data:`repro.uarch.executor.DISPATCH`: an
indexed handler call that re-reads ``instr.srcs``/``instr.imm``, allocates
an :class:`~repro.uarch.executor.ExecResult`, and re-derives signedness
masks per call.  Here each *static* instruction is compiled once per
program into a closure with its operands, immediates, wrap constants and
fall-through pc bound as locals, so steady-state fetch does no decode work
at all.

Handler contract (one closure per pc)::

    next_pc = handler(regs, view, out)

* ``regs`` is the threadlet's register dict, mutated in place.
* ``view`` is the threadlet's memory view (``load``/``store`` bound to the
  SSB or architectural memory by the engine).
* ``out`` is a two-slot scratch list owned by the engine:
  ``out[0]`` receives the effective address (memory ops only) and
  ``out[1]`` the taken flag (branches only).  The engine reads each slot
  only when the per-pc :data:`FLAG_MEM`/:data:`FLAG_BRANCH` bit is set,
  so stale values from earlier instructions are never observed.

Semantics must stay *bit-identical* to ``executor.py`` — including the
text of :class:`~repro.errors.ExecutionError` messages, which the engine
stores in ``Threadlet.faulted`` and later surfaces in the architectural
fault exception the parity suite compares.  Any behaviour change here is
an engine-semantics change and belongs in ``executor.py`` first.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, List

from ..errors import ExecutionError
from ..isa.instructions import Instruction, Opcode
from ..isa.program import Program
from .memory_state import MASK64, bits_to_float, float_to_bits

# Per-pc classification bits (FastProgram.flags).
FLAG_HALT = 1
FLAG_LOAD = 2
FLAG_STORE = 4
FLAG_BRANCH = 8
FLAG_HINT = 16
FLAG_MEM = FLAG_LOAD | FLAG_STORE

_SIGN64 = 1 << 63
_WRAP64 = 1 << 64

Handler = Callable[[dict, object, list], int]


def _compile_instruction(instr: Instruction, pc: int) -> Handler:
    """One closure for one static instruction; mirrors executor.py exactly."""
    op = instr.opcode
    srcs = instr.srcs
    d = instr.dest
    imm = instr.imm
    nxt = pc + 1
    two = len(srcs) > 1

    # -- integer ALU (wrapped signed 64-bit) -------------------------------
    if op is Opcode.ADD:
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                v = (regs[_a] + regs[_b]) & MASK64
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                v = (regs[_a] + _i) & MASK64
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        return h
    if op is Opcode.SUB:
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                v = (regs[_a] - regs[_b]) & MASK64
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                v = (regs[_a] - _i) & MASK64
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        return h
    if op is Opcode.MUL:
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                v = (regs[_a] * regs[_b]) & MASK64
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                v = (regs[_a] * _i) & MASK64
                regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
                return _n
        return h
    if op is Opcode.DIV or op is Opcode.REM:
        msg = f"division by zero at pc={pc}: {instr}"
        is_rem = op is Opcode.REM

        def h(regs, view, out, _a=srcs[0], _b=(srcs[1] if two else None),
              _i=imm, _d=d, _n=nxt, _msg=msg, _rem=is_rem):
            a = int(regs[_a])
            b = int(regs[_b]) if _b is not None else int(_i)
            if b == 0:
                raise ExecutionError(_msg)
            q = abs(a) // abs(b)  # truncate toward zero
            if (a < 0) != (b < 0):
                q = -q
            v = ((a - q * b) if _rem else q) & MASK64
            regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
            return _n
        return h

    # -- bitwise / shifts (operands read as unsigned via int-and-mask) -----
    if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
        kind = op

        def h(regs, view, out, _a=srcs[0], _b=(srcs[1] if two else None),
              _i=imm, _d=d, _n=nxt, _k=kind):
            a = int(regs[_a]) & MASK64
            b = (int(regs[_b]) if _b is not None else int(_i)) & MASK64
            if _k is Opcode.AND:
                v = a & b
            elif _k is Opcode.OR:
                v = a | b
            else:
                v = a ^ b
            regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
            return _n
        return h
    if op is Opcode.SHL or op is Opcode.SHR:
        left = op is Opcode.SHL

        def h(regs, view, out, _a=srcs[0], _b=(srcs[1] if two else None),
              _i=imm, _d=d, _n=nxt, _l=left):
            a = int(regs[_a]) & MASK64
            b = int(regs[_b]) if _b is not None else int(_i)
            v = ((a << (b & 63)) & MASK64) if _l else (a >> (b & 63))
            regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
            return _n
        return h

    # -- comparisons (int and float share executor bodies) -----------------
    if op in (Opcode.SLT, Opcode.FSLT):
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                regs[_d] = int(regs[_a] < regs[_b])
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                regs[_d] = int(regs[_a] < _i)
                return _n
        return h
    if op in (Opcode.SLE, Opcode.FSLE):
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                regs[_d] = int(regs[_a] <= regs[_b])
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                regs[_d] = int(regs[_a] <= _i)
                return _n
        return h
    if op in (Opcode.SEQ, Opcode.FSEQ):
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                regs[_d] = int(regs[_a] == regs[_b])
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                regs[_d] = int(regs[_a] == _i)
                return _n
        return h
    if op is Opcode.SNE:
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                regs[_d] = int(regs[_a] != regs[_b])
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                regs[_d] = int(regs[_a] != _i)
                return _n
        return h
    if op in (Opcode.MIN, Opcode.FMIN):
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                regs[_d] = min(regs[_a], regs[_b])
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                regs[_d] = min(regs[_a], _i)
                return _n
        return h
    if op in (Opcode.MAX, Opcode.FMAX):
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                regs[_d] = max(regs[_a], regs[_b])
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                regs[_d] = max(regs[_a], _i)
                return _n
        return h

    # -- moves / immediates / conversions ----------------------------------
    if op is Opcode.MOV or op is Opcode.FMOV:
        def h(regs, view, out, _a=srcs[0], _d=d, _n=nxt):
            regs[_d] = regs[_a]
            return _n
        return h
    if op is Opcode.LI:
        v = int(imm) & MASK64
        const = v - _WRAP64 if v >= _SIGN64 else v

        def h(regs, view, out, _c=const, _d=d, _n=nxt):
            regs[_d] = _c
            return _n
        return h
    if op is Opcode.FLI:
        const = float(imm)

        def h(regs, view, out, _c=const, _d=d, _n=nxt):
            regs[_d] = _c
            return _n
        return h
    if op is Opcode.FCVT:
        def h(regs, view, out, _a=srcs[0], _d=d, _n=nxt):
            regs[_d] = float(regs[_a])
            return _n
        return h
    if op is Opcode.ICVT:
        def h(regs, view, out, _a=srcs[0], _d=d, _n=nxt):
            v = int(regs[_a]) & MASK64
            regs[_d] = v - _WRAP64 if v >= _SIGN64 else v
            return _n
        return h

    # -- float arithmetic ---------------------------------------------------
    if op is Opcode.FADD:
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                regs[_d] = regs[_a] + regs[_b]
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                regs[_d] = regs[_a] + _i
                return _n
        return h
    if op is Opcode.FSUB:
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                regs[_d] = regs[_a] - regs[_b]
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                regs[_d] = regs[_a] - _i
                return _n
        return h
    if op is Opcode.FMUL:
        if two:
            def h(regs, view, out, _a=srcs[0], _b=srcs[1], _d=d, _n=nxt):
                regs[_d] = regs[_a] * regs[_b]
                return _n
        else:
            def h(regs, view, out, _a=srcs[0], _i=imm, _d=d, _n=nxt):
                regs[_d] = regs[_a] * _i
                return _n
        return h
    if op is Opcode.FDIV:
        msg = f"float division by zero at pc={pc}: {instr}"

        def h(regs, view, out, _a=srcs[0], _b=(srcs[1] if two else None),
              _i=imm, _d=d, _n=nxt, _msg=msg):
            b = regs[_b] if _b is not None else _i
            if b == 0.0:
                raise ExecutionError(_msg)
            regs[_d] = regs[_a] / b
            return _n
        return h
    if op is Opcode.FSQRT:
        msg = f"sqrt of negative at pc={pc}: {instr}"

        def h(regs, view, out, _a=srcs[0], _d=d, _n=nxt, _msg=msg,
              _sqrt=math.sqrt):
            a = regs[_a]
            if a < 0.0:
                raise ExecutionError(_msg)
            regs[_d] = _sqrt(a)
            return _n
        return h
    if op is Opcode.FABS:
        def h(regs, view, out, _a=srcs[0], _d=d, _n=nxt):
            regs[_d] = abs(regs[_a])
            return _n
        return h

    # -- memory -------------------------------------------------------------
    if op is Opcode.LOAD:
        size = instr.size
        off = int(imm or 0)
        sign = 1 << (8 * size - 1)
        wrap = 1 << (8 * size)

        def h(regs, view, out, _a=srcs[0], _o=off, _z=size, _s=sign,
              _w=wrap, _d=d, _n=nxt):
            addr = int(regs[_a]) + _o
            out[0] = addr
            raw = view.load(addr, _z)
            regs[_d] = raw - _w if raw >= _s else raw
            return _n
        return h
    if op is Opcode.STORE:
        size = instr.size
        off = int(imm or 0)
        mask = (1 << (8 * size)) - 1

        def h(regs, view, out, _v=srcs[0], _a=srcs[1], _o=off, _z=size,
              _m=mask, _n=nxt):
            addr = int(regs[_a]) + _o
            out[0] = addr
            view.store(addr, _z, int(regs[_v]) & _m)
            return _n
        return h
    if op is Opcode.FLOAD:
        size = instr.size
        off = int(imm or 0)

        def h(regs, view, out, _a=srcs[0], _o=off, _z=size, _d=d, _n=nxt,
              _btf=bits_to_float):
            addr = int(regs[_a]) + _o
            out[0] = addr
            regs[_d] = _btf(view.load(addr, _z), _z)
            return _n
        return h
    if op is Opcode.FSTORE:
        size = instr.size
        off = int(imm or 0)

        def h(regs, view, out, _v=srcs[0], _a=srcs[1], _o=off, _z=size,
              _n=nxt, _ftb=float_to_bits):
            addr = int(regs[_a]) + _o
            out[0] = addr
            view.store(addr, _z, _ftb(regs[_v], _z))
            return _n
        return h

    # -- control flow --------------------------------------------------------
    if op is Opcode.JMP:
        def h(regs, view, out, _t=instr.target_index):
            out[1] = True
            return _t
        return h
    if op is Opcode.BEQZ:
        def h(regs, view, out, _a=srcs[0], _t=instr.target_index, _n=nxt):
            if regs[_a] == 0:
                out[1] = True
                return _t
            out[1] = False
            return _n
        return h
    if op is Opcode.BNEZ:
        def h(regs, view, out, _a=srcs[0], _t=instr.target_index, _n=nxt):
            if regs[_a] != 0:
                out[1] = True
                return _t
            out[1] = False
            return _n
        return h
    if op is Opcode.CALL:
        def h(regs, view, out, _t=instr.target_index, _r=pc + 1):
            regs["ra"] = _r
            out[1] = True
            return _t
        return h
    if op is Opcode.RET:
        # No range check here: the engine validates the next fetch's pc,
        # exactly like the reference path (executor _exec_ret).
        def h(regs, view, out):
            out[1] = True
            return int(regs["ra"])
        return h

    # -- hints / system (functional nops; HALT never executes) -------------
    if op in (Opcode.DETACH, Opcode.REATTACH, Opcode.SYNC, Opcode.NOP,
              Opcode.HALT):
        def h(regs, view, out, _n=nxt):
            return _n
        return h

    msg = f"unimplemented opcode {op!r} at pc={pc}"

    def h(regs, view, out, _msg=msg):
        raise ExecutionError(_msg)
    return h


class FastProgram:
    """Per-pc compiled handlers and classification flags for one program."""

    __slots__ = ("handlers", "flags", "sizes")

    def __init__(self, program: Program):
        instructions = program.instructions
        self.handlers: List[Handler] = [
            _compile_instruction(instr, pc)
            for pc, instr in enumerate(instructions)
        ]
        flags: List[int] = []
        sizes: List[int] = []
        for instr in instructions:
            f = 0
            if instr.opcode is Opcode.HALT:
                f |= FLAG_HALT
            if instr.is_load:
                f |= FLAG_LOAD
            if instr.is_store:
                f |= FLAG_STORE
            if instr.is_branch:
                f |= FLAG_BRANCH
            if instr.is_hint:
                f |= FLAG_HINT
            flags.append(f)
            sizes.append(instr.size)
        self.flags = flags
        self.sizes = sizes


_PROGRAM_CACHE: "weakref.WeakKeyDictionary[Program, FastProgram]" = (
    weakref.WeakKeyDictionary()
)


def fast_program(program: Program) -> FastProgram:
    """Memoized compilation: one FastProgram per live Program object."""
    fp = _PROGRAM_CACHE.get(program)
    if fp is None:
        fp = FastProgram(program)
        _PROGRAM_CACHE[program] = fp
    return fp
