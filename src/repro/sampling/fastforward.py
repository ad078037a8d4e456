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
``ret`` to a negative target ends the run so that the next fetch faults
(a list index would wrap), and block-end handlers count basic-block
executions when profiling.  Two more serve callers that follow a run
instruction by instruction without a per-instruction hook:

* **breakpoints**, a set of pcs after which :meth:`FastForwardExecutor.run`
  returns (the instruction is executed and counted; the run does not
  halt, and ``stopped_at`` names the pc), and
* an **access observer**, called with ``(addr, size, is_store)`` before
  each load and store, wired into the memory view the handlers see.

On top of the raw interpreter this module provides the sampling
infrastructure: basic-block-vector (BBV) interval profiling,
architectural checkpoints, and bounded functional-warmup recording
(recent data addresses + branch outcomes, the recorder being one access
observer) for replay into the detailed engine's caches and branch
predictor.  Table 3's TLS task traces (:mod:`repro.tls.common`) use the
breakpoints and the observer.

A differential test (``tests/test_sampling_fastforward.py``) pins the
executor against the golden :class:`~repro.uarch.executor.Executor` on
seeded random programs: same final registers, memory, instruction count
and fault text.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable, Collection, Dict, List, Optional, Sequence, Tuple,
)

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


class _Stop(Exception):
    """Raised after a patched handler's instruction executed: ends the run.

    ``pc`` is the next pc.  ``at`` is the breakpoint that stopped the run,
    or ``None`` for a ``ret`` to a negative address: that fault belongs to
    the next fetch, which (as in the golden executor) comes after the
    budget check.
    """

    def __init__(self, pc: int, at: Optional[int]):
        self.pc = pc
        self.at = at


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
    # line size -> lines(line size); both machines of a sampling plan
    # replay the same record, so the second one reads the first's order.
    _lines: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def lines(self, line_size: int) -> Tuple[int, ...]:
        """Distinct data lines in last-touch order, oldest first.

        An LRU set's contents and order depend only on each line's last
        touch, and every later stamp exceeds every earlier one, so
        inserting each line once, at its last touch, leaves the same sets
        as replaying every address: at a cost per line.  Memoized per
        line size on the record itself.
        """
        order = self._lines.get(line_size)
        if order is None:
            newest_first = dict.fromkeys(
                addr // line_size for addr in reversed(self.mem_addresses)
            )
            order = tuple(reversed(newest_first))
            self._lines[line_size] = order
        return order


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


# Called before each load and store with ``(addr, size, is_store)``.
AccessObserver = Callable[[int, int, bool], None]


class _View:
    """The memory view fastpath handlers call."""

    __slots__ = ("load", "store")

    def __init__(self, load, store):
        self.load = load
        self.store = store


def _observed_view(memory: SparseMemory, observe: AccessObserver) -> _View:
    def load(addr, size, _o=observe, _l=memory.load):
        _o(addr, size, False)
        return _l(addr, size)

    def store(addr, size, value, _o=observe, _s=memory.store):
        _o(addr, size, True)
        _s(addr, size, value)

    return _View(load, store)


def _halt(pc: int):
    # A fresh exception per halt: one kept in the handler would keep its
    # traceback, and with it the caller's frames and their locals, alive.
    def h(regs, view, out, _p=pc):
        raise _Halt(_p)
    return h


def _checked_ret(inner):
    # Python list indexing would silently wrap a negative return address,
    # so the run ends here and the next fetch faults on the pc.
    def h(regs, view, out, _i=inner):
        target = _i(regs, view, out)
        if target < 0:
            raise _Stop(target, None)
        return target
    return h


def _breakpoint(inner, pc: int):
    def h(regs, view, out, _i=inner, _p=pc):
        raise _Stop(_i(regs, view, out), _p)
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

    def touch(self, addr: int, size: int, is_store: bool) -> None:
        """The access observer: records ``addr`` as the newest touch."""
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
            outcomes for checkpoint warmup (0 disables recording).  The
            recorder is the run's access observer.
        breakpoints: pcs after which :meth:`run` returns, their
            instruction executed and counted; ``stopped_at`` then names
            the pc.  A breakpoint does not halt the program.
        observe: the access observer, called before each load and store
            with ``(addr, size, is_store)``.
    """

    def __init__(
        self,
        program: Program,
        memory: Optional[SparseMemory] = None,
        initial_regs: Optional[Dict[str, float]] = None,
        collect_bbv: bool = False,
        record_warmup: int = 0,
        breakpoints: Collection[int] = (),
        observe: Optional[AccessObserver] = None,
    ):
        self.program = program
        self.memory = memory if memory is not None else SparseMemory()
        self.regs = initial_register_file()
        if initial_regs:
            self.regs.update(initial_regs)
        self.pc = 0
        self.icount = 0
        self.halted = False
        self.stopped_at: Optional[int] = None
        self.blocks = basic_blocks(program) if collect_bbv else None
        self._block_counts: List[int] = (
            [0] * len(self.blocks.leaders) if self.blocks else []
        )
        self._recorder = None
        if record_warmup > 0:
            if observe is not None:
                raise ValueError("warm-up recording is the access observer")
            self._recorder = _WarmupRecorder(
                record_warmup, self.memory.written_addresses()
            )
            observe = self._recorder.touch
        self._view = (
            _View(self.memory.load, self.memory.store) if observe is None
            else _observed_view(self.memory, observe)
        )
        self._out = [None, None]
        self._handlers = self._compile(collect_bbv, breakpoints)

    def _compile(self, collect_bbv: bool, breakpoints: Collection[int]):
        handlers = list(fast_program(self.program).handlers)
        recorder = self._recorder
        for pc, instr in enumerate(self.program.instructions):
            op = instr.opcode
            if op is Opcode.HALT:
                handlers[pc] = _halt(pc)
            elif op is Opcode.RET:
                handlers[pc] = _checked_ret(handlers[pc])
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
        for pc in breakpoints:
            if not 0 <= pc < len(handlers):
                raise ValueError(f"breakpoint pc {pc} out of range")
            handlers[pc] = _breakpoint(handlers[pc], pc)
        return handlers

    # -- execution ----------------------------------------------------------

    def run(self, max_instructions: int) -> int:
        """Execute up to ``max_instructions``; returns the number executed.

        Stops early on ``halt`` (which counts as one executed instruction,
        matching :class:`~repro.uarch.executor.Executor`) and after a
        breakpoint.  As in that executor, a pc out of range faults when
        it is fetched, so a run that leaves one behind returns normally
        and the next run raises.
        """
        self.stopped_at = None
        if self.halted or max_instructions <= 0:
            return 0
        handlers = self._handlers
        regs = self.regs
        view = self._view
        out = self._out
        pc = self.pc
        if not 0 <= pc < len(handlers):
            raise ExecutionError(f"pc {pc} out of range in {self.program.name}")
        executed = 0
        try:
            while executed < max_instructions:
                pc = handlers[pc](regs, view, out)
                executed += 1
        except _Stop as stop:
            pc = stop.pc
            executed += 1
            self.stopped_at = stop.at
        except _Halt as halt:
            pc = halt.pc
            executed += 1
            self.halted = True
        except IndexError:
            raise ExecutionError(
                f"pc {pc} out of range in {self.program.name}"
            ) from None
        self.pc = pc
        self.icount += executed
        return executed

    def run_to(self, target_icount: int) -> int:
        """Fast-forward until ``icount == target_icount`` (exact)."""
        start = self.icount
        while self.icount < target_icount and not self.halted:
            self.run(target_icount - self.icount)
        executed = self.icount - start
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
