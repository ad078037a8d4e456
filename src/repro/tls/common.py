"""Common infrastructure for the classic-TLS comparison models (table 3).

The Multiscalar-like and STAMPede-like models operate at *task* (epoch)
granularity: the program is executed functionally once and its dynamic
instruction stream is segmented at the LoopFrog hint boundaries into
ordered tasks, each carrying its instruction count and read/write sets.
The scheme models then schedule those tasks onto their processing units
with the scheme's own overheads and conflict rules.

The functional run is the fast-forward executor
(:class:`~repro.sampling.fastforward.FastForwardExecutor`), i.e. the
detailed engine's compiled handlers: it stops after every hint and
reports each load and store to an access observer, so no hook runs per
instruction.  The golden functional executor (``Executor``) stays the
oracle: ``tests/test_tls.py`` checks every spec2017 and spec2006 phase's
trace against one cut from that executor's per-instruction trace hook.

This granularity is exactly what table 3 compares (speedup, core count,
area, task sizes); pipeline-level detail of 1995/2005-era cores is out of
scope and would not change the comparison axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..errors import ExecutionError
from ..isa.instructions import Opcode
from ..isa.program import Program
from ..sampling.fastforward import FastForwardExecutor
from ..uarch.memory_state import SparseMemory


@dataclass
class Task:
    """One ordered unit of speculative work."""

    index: int
    instructions: int
    reads: Set[int] = field(default_factory=set)    # granule IDs
    writes: Set[int] = field(default_factory=set)
    parallel: bool = False  # inside an annotated loop?


@dataclass
class TaskTrace:
    tasks: List[Task]

    @property
    def total_instructions(self) -> int:
        return sum(t.instructions for t in self.tasks)

    @property
    def parallel_tasks(self) -> List[Task]:
        return [t for t in self.tasks if t.parallel]

    def mean_parallel_task_size(self) -> float:
        tasks = self.parallel_tasks
        if not tasks:
            return 0.0
        return sum(t.instructions for t in tasks) / len(tasks)


def extract_tasks(
    program: Program,
    memory: Optional[SparseMemory] = None,
    initial_regs: Optional[dict] = None,
    granule_bytes: int = 8,
    max_instructions: int = 5_000_000,
) -> TaskTrace:
    """Segment one functional run of ``program`` into ordered tasks.

    Task boundaries follow the LoopFrog region semantics: inside an
    annotated loop each iteration (ending at its ``reattach``) is one
    parallel task; code outside annotated loops accumulates into serial
    tasks.  A hint belongs to the task it closes, and the final ``halt``
    to none.  ``memory`` is mutated in place.  Faults and an exhausted
    budget raise the golden executor's :class:`ExecutionError` text.
    """
    hints = {
        pc: (instr.opcode, instr.region_index)
        for pc, instr in enumerate(program.instructions)
        if instr.is_hint
    }
    tasks: List[Task] = []
    current = Task(0, 0)
    start = 0  # icount at which ``current`` began

    def observe(addr: int, size: int, is_store: bool) -> None:
        target = current.writes if is_store else current.reads
        target.update(range(
            addr // granule_bytes, (addr + size - 1) // granule_bytes + 1
        ))

    ff = FastForwardExecutor(
        program, memory, initial_regs, breakpoints=hints, observe=observe
    )

    def close(end: int, parallel_next: bool) -> None:
        nonlocal current, start
        current.instructions = end - start
        if current.instructions:
            tasks.append(current)
        current = Task(len(tasks), 0, parallel=parallel_next)
        start = end

    region: Optional[int] = None
    while not ff.halted:
        if ff.icount >= max_instructions:
            raise ExecutionError(
                f"{program.name} exceeded {max_instructions} instructions"
            )
        ff.run(max_instructions - ff.icount)
        if ff.stopped_at is None:
            continue
        op, index = hints[ff.stopped_at]
        if op is Opcode.DETACH and region is None:
            region = index
            close(ff.icount, parallel_next=True)
        elif op is Opcode.REATTACH and region == index:
            close(ff.icount, parallel_next=True)
        elif op is Opcode.SYNC and region == index:
            region = None
            close(ff.icount, parallel_next=False)
    close(ff.icount - 1, parallel_next=False)
    return TaskTrace(tasks)


def conflicts_with(task: Task, older: Task) -> bool:
    """True RAW dependence: ``task`` reads a granule ``older`` writes."""
    return not task.reads.isdisjoint(older.writes)


def coarsen(trace: TaskTrace, target_size: int) -> TaskTrace:
    """Merge consecutive parallel tasks into coarser epochs of roughly
    ``target_size`` instructions.

    Classic multicore TLS (STAMPede) compiles for much coarser epochs than
    LoopFrog's iteration granularity to amortise cross-core communication
    (table 3: ~1,400-instruction tasks); this models that compiler choice
    on the same dynamic work.
    """
    merged: List[Task] = []
    current: Optional[Task] = None
    for task in trace.tasks:
        if not task.parallel:
            if current is not None:
                merged.append(current)
                current = None
            merged.append(
                Task(len(merged), task.instructions, set(task.reads),
                     set(task.writes), parallel=False)
            )
            continue
        if current is None:
            current = Task(len(merged), 0, set(), set(), parallel=True)
        current.instructions += task.instructions
        current.reads |= task.reads
        current.writes |= task.writes
        if current.instructions >= target_size:
            merged.append(current)
            current = None
    if current is not None:
        merged.append(current)
    for i, task in enumerate(merged):
        task.index = i
    return TaskTrace(merged)
