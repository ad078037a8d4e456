"""Fast-forward functional executor: the architectural semantics at speed.

Reaching interesting program regions of long workloads needs orders of
magnitude more throughput than detailed simulation (``bench/`` measures
both: ``engine.ns_per_instr`` and ``sampling.ff_instr_per_s``).  This
module runs the detailed engine's own compiled instruction handlers
(:mod:`repro.uarch.fastpath`, one closure per static instruction, bit-exact
with :func:`repro.uarch.executor.execute_one`) without any timing model:
the hot loop is just ``pc = handlers[pc](regs, view, out)``.

A few per-pc patches adapt those handlers to whole-program execution:
``halt`` raises :class:`_Halt` (the engine stops before executing it),
``ret`` faults on a negative target (a list index would wrap), and
block-end handlers count basic-block executions when profiling.

On top of the raw interpreter this module provides the sampling
infrastructure: basic-block-vector (BBV) interval profiling,
architectural checkpoints, and bounded functional-warmup recording
(recent data addresses + branch outcomes) for replay into the detailed
engine's caches and branch predictor.

A differential test (``tests/test_sampling_fastforward.py``) pins the
executor against the golden :class:`~repro.uarch.executor.Executor` on
seeded random programs: same final registers, memory, instruction count
and fault text.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..isa.instructions import Opcode
from ..isa.program import Program
from ..isa.registers import initial_register_file
from ..uarch.fastpath import fast_program
from ..uarch.memory_state import SparseMemory


class _Halt(Exception):
    """Raised by the HALT closure; carries the halting pc."""

    def __init__(self, pc: int):
        self.pc = pc


# ---------------------------------------------------------------------------
# Basic blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicBlocks:
    """Static basic-block structure of a program."""

    leaders: Tuple[int, ...]           # block start pcs, ascending
    block_of_pc: Tuple[int, ...]       # pc -> block index
    block_lengths: Tuple[int, ...]     # block index -> instruction count
    block_ends: Tuple[int, ...]        # block index -> last pc of the block


def basic_blocks(program: Program) -> BasicBlocks:
    """Compute basic blocks: leaders are the entry pc, branch targets, and
    fall-through successors of branches and ``halt``.

    Control only leaves a block at its last instruction (branches create a
    leader right after themselves), so counting executions at block *ends*
    counts whole-block executions.
    """
    instrs = program.instructions
    n = len(instrs)
    leaders = {0}
    for i, instr in enumerate(instrs):
        if instr.is_branch:
            if instr.target_index is not None:
                leaders.add(instr.target_index)
            if i + 1 < n:
                leaders.add(i + 1)
        elif instr.opcode is Opcode.HALT and i + 1 < n:
            leaders.add(i + 1)
    ordered = sorted(leaders)
    block_of_pc = [0] * n
    block = -1
    leader_set = leaders
    for pc in range(n):
        if pc in leader_set:
            block += 1
        block_of_pc[pc] = block
    lengths = []
    ends = []
    for bi, start in enumerate(ordered):
        end = (ordered[bi + 1] - 1) if bi + 1 < len(ordered) else n - 1
        lengths.append(end - start + 1)
        ends.append(end)
    return BasicBlocks(
        leaders=tuple(ordered),
        block_of_pc=tuple(block_of_pc),
        block_lengths=tuple(lengths),
        block_ends=tuple(ends),
    )


# ---------------------------------------------------------------------------
# Warmup recording and checkpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarmupState:
    """Functional history recorded at a checkpoint, for timing warmup.

    ``mem_addresses`` is the *last-touch order* of every data address the
    program has accessed so far (the memory-timestamp-record idea of the
    SMARTS line of work), seeded with the initial working set at time
    zero.  Replaying it oldest-first through LRU caches reconstructs the
    cache contents a continuous run would hold at the checkpoint — the
    most recent lines of each set survive, older ones are evicted — which
    is what makes mid-program windows start from realistic cache state
    instead of stone-cold (CPI overestimate) or fully-warmed (CPI
    underestimate) extremes.  Branch history stays a bounded recent
    window: predictor state has a much shorter memory than caches.
    """

    mem_addresses: Tuple[int, ...] = ()           # last-touch order, oldest 1st
    cond_branches: Tuple[Tuple[int, bool], ...] = ()   # (pc, taken)
    branch_targets: Tuple[Tuple[int, int], ...] = ()   # (pc, actual target)


@dataclass
class Checkpoint:
    """Architectural state at an instruction-count boundary.

    ``memory`` is a private snapshot: starting an engine from a checkpoint
    must not be able to corrupt it, so consumers copy it per window.
    """

    icount: int
    pc: int
    regs: Dict[str, float]
    memory: SparseMemory
    warmup: WarmupState

    def engine_memory(self) -> SparseMemory:
        """A fresh mutable copy of the snapshot for one engine run."""
        return self.memory.copy()


# ---------------------------------------------------------------------------
# Handler patches
# ---------------------------------------------------------------------------


class _View:
    """The memory view fastpath handlers call."""

    __slots__ = ("load", "store")

    def __init__(self, load, store):
        self.load = load
        self.store = store


def _halt(pc: int):
    # A fresh exception per halt: one kept in the handler would keep its
    # traceback, and with it the caller's frames and their locals, alive.
    def h(regs, view, out, _p=pc):
        raise _Halt(_p)
    return h


def _checked_ret(inner, name: str):
    # Guard against negative return addresses explicitly: Python list
    # indexing would silently wrap them instead of faulting.
    def h(regs, view, out, _i=inner, _name=name):
        target = _i(regs, view, out)
        if target < 0:
            raise ExecutionError(f"pc {target} out of range in {_name}")
        return target
    return h


def _recorded_cond(inner, pc: int, conds, targets):
    def h(regs, view, out, _i=inner, _p=pc, _c=conds, _t=targets):
        nxt = _i(regs, view, out)
        taken = out[1]
        _c((_p, taken))
        if taken:
            _t((_p, nxt))
        return nxt
    return h


def _recorded_jump(inner, pc: int, targets):
    def h(regs, view, out, _i=inner, _p=pc, _t=targets):
        nxt = _i(regs, view, out)
        _t((_p, nxt))
        return nxt
    return h


class _WarmupRecorder:
    """History buffers the recording handlers append into.

    Memory is a recency-ordered last-touch map (a plain dict: re-touching
    an address moves it to the end), seeded with the initial working set;
    branch history is a bounded recent window.
    """

    def __init__(self, depth: int, initial_addresses=()):
        self.mem: Dict[int, None] = dict.fromkeys(initial_addresses)
        self.conds: deque = deque(maxlen=depth)
        self.targets: deque = deque(maxlen=depth)

    def touch(self, addr: int) -> None:
        mem = self.mem
        if addr in mem:
            del mem[addr]
        mem[addr] = None

    def snapshot(self) -> WarmupState:
        return WarmupState(
            mem_addresses=tuple(self.mem),
            cond_branches=tuple(self.conds),
            branch_targets=tuple(self.targets),
        )


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class FastForwardExecutor:
    """Batched architectural interpreter over compiled closures.

    Args:
        program: the program to interpret.
        memory: initial memory (mutated in place, like ``Executor``).
        initial_regs: initial register overrides.
        collect_bbv: wrap block-end closures with basic-block counting
            (adds one indirection per *block*, not per instruction).
        record_warmup: keep bounded recent data addresses and branch
            outcomes for checkpoint warmup (0 disables recording).
    """

    def __init__(
        self,
        program: Program,
        memory: Optional[SparseMemory] = None,
        initial_regs: Optional[Dict[str, float]] = None,
        collect_bbv: bool = False,
        record_warmup: int = 0,
    ):
        self.program = program
        self.memory = memory if memory is not None else SparseMemory()
        self.regs = initial_register_file()
        if initial_regs:
            self.regs.update(initial_regs)
        self.pc = 0
        self.icount = 0
        self.halted = False
        self.blocks = basic_blocks(program) if collect_bbv else None
        self._block_counts: List[int] = (
            [0] * len(self.blocks.leaders) if self.blocks else []
        )
        self._recorder = (
            _WarmupRecorder(record_warmup, self.memory.written_addresses())
            if record_warmup > 0 else None
        )
        if self._recorder is not None:
            base_load = self.memory.load
            base_store = self.memory.store
            rec = self._recorder.touch

            def load(addr, size, _r=rec, _l=base_load):
                _r(addr)
                return _l(addr, size)

            def store(addr, size, value, _r=rec, _s=base_store):
                _r(addr)
                _s(addr, size, value)

            self._view = _View(load, store)
        else:
            self._view = _View(self.memory.load, self.memory.store)
        self._out = [None, None]
        self._handlers = self._compile(collect_bbv)

    def _compile(self, collect_bbv: bool):
        handlers = list(fast_program(self.program).handlers)
        name = self.program.name
        recorder = self._recorder
        for pc, instr in enumerate(self.program.instructions):
            op = instr.opcode
            if op is Opcode.HALT:
                handlers[pc] = _halt(pc)
            elif op is Opcode.RET:
                handlers[pc] = _checked_ret(handlers[pc], name)
            elif recorder is None:
                continue
            elif op is Opcode.BEQZ or op is Opcode.BNEZ:
                handlers[pc] = _recorded_cond(
                    handlers[pc], pc, recorder.conds.append,
                    recorder.targets.append,
                )
            elif op is Opcode.JMP or op is Opcode.CALL:
                handlers[pc] = _recorded_jump(
                    handlers[pc], pc, recorder.targets.append
                )
        if collect_bbv:
            counts = self._block_counts
            block_of_pc = self.blocks.block_of_pc
            for end in self.blocks.block_ends:
                inner = handlers[end]
                bid = block_of_pc[end]

                def counted(regs, view, out, _i=inner, _b=bid, _c=counts):
                    _c[_b] += 1
                    return _i(regs, view, out)

                handlers[end] = counted
        return handlers

    # -- execution ----------------------------------------------------------

    def run(self, max_instructions: int) -> int:
        """Execute up to ``max_instructions``; returns the number executed.

        Stops early on ``halt`` (which counts as one executed instruction,
        matching :class:`~repro.uarch.executor.Executor`).
        """
        if self.halted or max_instructions <= 0:
            return 0
        handlers = self._handlers
        regs = self.regs
        view = self._view
        out = self._out
        pc = self.pc
        executed = 0
        try:
            while executed < max_instructions:
                pc = handlers[pc](regs, view, out)
                executed += 1
        except _Halt as halt:
            pc = halt.pc
            executed += 1
            self.halted = True
        except IndexError:
            raise ExecutionError(
                f"pc {pc} out of range in {self.program.name}"
            ) from None
        if not self.halted and not 0 <= pc < len(self._handlers):
            # A ``ret`` past the end lands here at the window edge.
            raise ExecutionError(f"pc {pc} out of range in {self.program.name}")
        self.pc = pc
        self.icount += executed
        return executed

    def run_to(self, target_icount: int) -> int:
        """Fast-forward until ``icount == target_icount`` (exact)."""
        executed = self.run(target_icount - self.icount)
        if self.icount < target_icount and self.halted:
            raise ExecutionError(
                f"{self.program.name} halted at {self.icount} instructions, "
                f"before the requested boundary {target_icount}"
            )
        return executed

    def run_to_halt(self, max_instructions: int = 50_000_000) -> int:
        """Run to completion; returns the total dynamic instruction count."""
        while not self.halted:
            if self.icount >= max_instructions:
                raise ExecutionError(
                    f"{self.program.name} exceeded {max_instructions} "
                    f"instructions"
                )
            self.run(max_instructions - self.icount)
        return self.icount

    # -- sampling hooks ------------------------------------------------------

    def take_block_counts(self) -> List[int]:
        """Return and reset the per-block execution counts."""
        if self.blocks is None:
            raise ExecutionError("executor built without collect_bbv")
        counts = list(self._block_counts)
        self._block_counts[:] = [0] * len(counts)
        return counts

    def checkpoint(self) -> Checkpoint:
        """Snapshot the architectural state (plus warmup history) here."""
        warmup = (
            self._recorder.snapshot() if self._recorder is not None
            else WarmupState()
        )
        return Checkpoint(
            icount=self.icount,
            pc=self.pc,
            regs=dict(self.regs),
            memory=self.memory.copy(),
            warmup=warmup,
        )


# ---------------------------------------------------------------------------
# Interval profiling (sampling pass 1) and checkpoint collection (pass 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """One profiled instruction interval (fixed length; last may be short)."""

    index: int
    start_icount: int
    length: int                   # executed instructions (last may be short)
    bbv: Tuple[int, ...]          # per-block executions * block length


def profile_intervals(
    program: Program,
    memory: SparseMemory,
    initial_regs: Dict[str, float],
    interval_length: int,
    max_instructions: int = 500_000_000,
) -> Tuple[List[Interval], int]:
    """Fast-forward the whole program, one BBV per interval.

    Returns ``(intervals, total_instructions)``.  BBV entries are block
    execution counts weighted by block size, so each vector's L1 mass
    approximates the instructions the interval spent per block — the
    standard SimPoint frequency-vector construction.
    """
    ff = FastForwardExecutor(
        program, memory, initial_regs, collect_bbv=True
    )
    lengths = ff.blocks.block_lengths
    intervals: List[Interval] = []
    while not ff.halted:
        if ff.icount >= max_instructions:
            raise ExecutionError(
                f"{program.name} exceeded {max_instructions} instructions "
                f"during interval profiling"
            )
        start = ff.icount
        executed = ff.run(interval_length)
        if executed == 0:
            break
        counts = ff.take_block_counts()
        bbv = tuple(c * l for c, l in zip(counts, lengths))
        intervals.append(
            Interval(
                index=len(intervals),
                start_icount=start,
                length=executed,
                bbv=bbv,
            )
        )
    return intervals, ff.icount


def collect_checkpoints(
    program: Program,
    memory: SparseMemory,
    initial_regs: Dict[str, float],
    boundaries: Sequence[int],
    record_warmup: int = 4096,
) -> Dict[int, Checkpoint]:
    """Re-run fast-forward, snapshotting state at each boundary icount.

    ``boundaries`` are absolute instruction counts (ascending order not
    required; they are sorted).  A boundary of 0 yields the pristine
    program-entry state without executing anything.
    """
    ff = FastForwardExecutor(
        program, memory, initial_regs, record_warmup=record_warmup
    )
    checkpoints: Dict[int, Checkpoint] = {}
    for target in sorted(set(boundaries)):
        ff.run_to(target)
        checkpoints[target] = ff.checkpoint()
    return checkpoints
