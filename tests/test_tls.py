"""Tests for the classic-TLS models used in the table-3 comparison."""

from typing import List, Optional

import pytest

from repro.compiler import compile_frog
from repro.errors import ExecutionError
from repro.isa import assemble
from repro.isa.instructions import Opcode
from repro.tls import (
    MultiscalarConfig,
    StampedeConfig,
    Task,
    TaskTrace,
    conflicts_with,
    extract_tasks,
    simulate_multiscalar,
    simulate_stampede,
)
from repro.uarch import SparseMemory
from repro.uarch.executor import Executor
from repro.workloads.suites import suite


PARALLEL = """
fn main(dst: ptr<int>, src: ptr<int>, n: int) {
    #pragma loopfrog
    for (var i: int = 0; i < n; i = i + 1) {
        dst[i] = src[i] * 2;
    }
}
"""


def parallel_trace(n=32):
    program = compile_frog(PARALLEL).program
    mem = SparseMemory()
    mem.store_int_array(2000, list(range(n)))
    return extract_tasks(program, mem, {"r1": 1000, "r2": 2000, "r3": n})


def test_extract_tasks_segments_iterations():
    trace = parallel_trace(32)
    parallel = trace.parallel_tasks
    # One task per iteration (roughly), plus serial head/tail.
    assert 30 <= len(parallel) <= 34
    assert trace.total_instructions > 0
    assert trace.mean_parallel_task_size() > 3


def test_tasks_carry_read_write_sets():
    trace = parallel_trace(8)
    body_tasks = [t for t in trace.parallel_tasks if t.writes]
    assert body_tasks
    for task in body_tasks:
        assert task.reads  # reads src and possibly the induction spill


def test_conflicts_with():
    a = Task(0, 5, reads={1, 2}, writes={3})
    b = Task(1, 5, reads={3}, writes={9})
    assert conflicts_with(b, a)       # b reads what a writes
    assert not conflicts_with(a, b)   # a does not read 9


def test_conflicts_with_is_raw_only():
    # WAW and WAR never conflict in this model: speculative buffering
    # renames writes, so only true (read-after-write) dependences count.
    older = Task(0, 5, reads={7}, writes={3})
    waw = Task(1, 5, reads=set(), writes={3})
    war = Task(2, 5, reads=set(), writes={7})
    assert not conflicts_with(waw, older)
    assert not conflicts_with(war, older)


def test_granule_aliasing_same_base_different_stride():
    # Writer touches even elements, reader touches element 6: distinct
    # addresses but byte ranges fall into the same 8-byte granules.
    g = 8
    writes = set()
    for i in range(0, 16, 2):
        addr = 1000 + 8 * i
        writes.update(range(addr // g, (addr + 7) // g + 1))
    older = Task(0, 16, writes=writes)
    addr = 1000 + 8 * 6
    reader = Task(1, 4, reads=set(range(addr // g, (addr + 7) // g + 1)))
    assert conflicts_with(reader, older)
    # An odd element is written by nobody: no granule overlap.
    addr = 1000 + 8 * 7
    clean = Task(2, 4, reads=set(range(addr // g, (addr + 7) // g + 1)))
    assert not conflicts_with(clean, older)


def test_multibyte_access_crossing_granule_boundary():
    # An 8-byte store at offset 4 straddles two 8-byte granules; a read
    # of either neighbouring granule must be seen as a conflict.
    g = 8
    addr, size = 1004, 8
    touched = set(range(addr // g, (addr + size - 1) // g + 1))
    assert touched == {125, 126}  # crosses the 1008 boundary
    older = Task(0, 1, writes=touched)
    low = Task(1, 1, reads={125})
    high = Task(2, 1, reads={126})
    far = Task(3, 1, reads={127})
    assert conflicts_with(low, older)
    assert conflicts_with(high, older)
    assert not conflicts_with(far, older)


def test_extracted_tasks_alias_through_granules():
    # End-to-end: a kernel whose iterations read the previous iteration's
    # element produces real RAW conflicts between extracted tasks.
    source = """
    fn main(a: ptr<int>, n: int) {
        #pragma loopfrog
        for (var i: int = 1; i < n; i = i + 1) {
            a[i] = a[i - 1] + 1;
        }
    }
    """
    program = compile_frog(source).program
    mem = SparseMemory()
    mem.store_int_array(1000, list(range(16)))
    trace = extract_tasks(program, mem, {"r1": 1000, "r2": 16})
    body = [t for t in trace.parallel_tasks if t.writes]
    assert len(body) >= 2
    raw_pairs = [
        (y.index, o.index)
        for i, o in enumerate(body)
        for y in body[i + 1:]
        if conflicts_with(y, o)
    ]
    assert raw_pairs  # neighbouring iterations alias through memory


def test_multiscalar_speeds_up_parallel_tasks():
    trace = parallel_trace(64)
    result = simulate_multiscalar(trace)
    assert result.speedup > 1.5
    assert result.tasks == len(trace.tasks)


def test_stampede_coarsens_tasks():
    # With coarsening, STAMPede forms few large epochs out of our small
    # iterations; the speedup is modest but not a collapse.
    trace = parallel_trace(64)
    result = simulate_stampede(trace)
    assert result.speedup > 0.8


def test_stampede_wins_on_coarse_work():
    config = StampedeConfig(target_task_size=200)
    trace = parallel_trace(256)
    result = simulate_stampede(trace, config)
    assert result.speedup > 1.1


def test_multiscalar_outpaces_stampede_on_small_tasks():
    # Small tasks suffer under STAMPede's cross-core spawn latency; the
    # ring's cheap forwarding wins (the granularity contrast of table 3).
    trace = parallel_trace(64)
    assert simulate_multiscalar(trace).speedup > simulate_stampede(trace).speedup


def test_serial_trace_gets_no_speedup():
    source = """
    fn main(a: ptr<int>, n: int) -> int {
        var s: int = 0;
        for (var i: int = 0; i < n; i = i + 1) { s = s + a[i]; }
        return s;
    }
    """
    program = compile_frog(source).program
    mem = SparseMemory()
    mem.store_int_array(1000, list(range(50)))
    trace = extract_tasks(program, mem, {"r1": 1000, "r2": 50})
    assert not trace.parallel_tasks
    assert simulate_multiscalar(trace).speedup <= 1.01
    assert simulate_stampede(trace).speedup <= 1.01


def test_dependent_tasks_squash_and_serialise():
    source = """
    fn main(data: ptr<int>, n: int) {
        #pragma loopfrog
        for (var i: int = 0; i < n; i = i + 1) {
            var v: int = data[0];
            data[0] = v + 1;
        }
    }
    """
    program = compile_frog(source).program
    mem = SparseMemory()
    trace = extract_tasks(program, mem, {"r1": 1000, "r2": 40})
    ms = simulate_multiscalar(trace)
    assert ms.squashes > 0
    assert ms.speedup < 1.2


def test_scheme_configs_match_table3_rows():
    assert MultiscalarConfig().num_units == 8
    assert MultiscalarConfig().area_factor == 8.0
    assert StampedeConfig().num_cores == 4
    assert StampedeConfig().area_factor > 4.0


# ---------------------------------------------------------------------------
# Parity with the golden executor
# ---------------------------------------------------------------------------


def golden_tasks(
    program,
    memory=None,
    initial_regs=None,
    granule_bytes=8,
    max_instructions=5_000_000,
) -> TaskTrace:
    """The task trace cut from the golden executor's per-instruction trace
    hook: every retired instruction joins the current task, its memory
    granules join the task's read or write set, and a hint of the open
    region closes the task after joining it.  ``halt`` is never hooked."""
    executor = Executor(program, memory)
    if initial_regs:
        executor.regs.update(initial_regs)
    tasks: List[Task] = []
    current = Task(0, 0)
    region: Optional[int] = None

    def close(parallel_next):
        nonlocal current
        if current.instructions:
            tasks.append(current)
        current = Task(len(tasks), 0, parallel=parallel_next)

    def hook(pc, instr, result):
        nonlocal region
        current.instructions += 1
        if result.mem_addr is not None:
            g0 = result.mem_addr // granule_bytes
            g1 = (result.mem_addr + result.mem_size - 1) // granule_bytes
            target = current.writes if instr.is_store else current.reads
            target.update(range(g0, g1 + 1))
        op = instr.opcode
        if op is Opcode.DETACH and region is None:
            region = instr.region_index
            close(parallel_next=True)
        elif op is Opcode.REATTACH and region == instr.region_index:
            close(parallel_next=True)
        elif op is Opcode.SYNC and region == instr.region_index:
            region = None
            close(parallel_next=False)

    executor._trace_hook = hook
    executor.run(max_instructions=max_instructions)
    close(parallel_next=False)
    return TaskTrace(tasks)


def _suite_phases():
    for suite_name in ("spec2017", "spec2006"):
        for benchmark in suite(suite_name):
            for workload, _ in benchmark.phases:
                yield workload


def test_task_traces_match_golden_executor_on_every_suite_phase():
    phases = 0
    for workload in _suite_phases():
        memory, regs = workload.fresh_input()
        trace = extract_tasks(workload.program, memory, regs)
        golden_memory, golden_regs = workload.fresh_input()
        golden = golden_tasks(workload.program, golden_memory, golden_regs)
        assert trace.tasks == golden.tasks, workload.name
        assert trace.parallel_tasks, workload.name
        # The run mutates the caller's memory in place, as it always did.
        assert memory.image() == golden_memory.image(), workload.name
        phases += 1
    assert phases == 44


def _assert_same_outcome(program, **kwargs):
    """Both cuts give the same tasks, or raise the same error text."""
    try:
        golden = golden_tasks(program, SparseMemory(), **kwargs)
    except ExecutionError as exc:
        with pytest.raises(ExecutionError) as raised:
            extract_tasks(program, SparseMemory(), **kwargs)
        assert str(raised.value) == str(exc)
        return None
    trace = extract_tasks(program, SparseMemory(), **kwargs)
    assert trace.tasks == golden.tasks
    return trace


FAULT_IN_LOOP = """
fn main(dst: ptr<int>, n: int, d: int) {
    #pragma loopfrog
    for (var i: int = 0; i < n; i = i + 1) {
        dst[i] = 100 / (d - i);
    }
}
"""


def test_fault_inside_annotated_loop_keeps_executor_text():
    program = compile_frog(FAULT_IN_LOOP).program
    regs = {"r1": 1000, "r2": 8, "r3": 5}
    with pytest.raises(ExecutionError, match="division by zero at pc="):
        extract_tasks(program, SparseMemory(), regs)
    assert _assert_same_outcome(program, initial_regs=regs) is None


def test_exhausted_budget_keeps_executor_text():
    program = compile_frog(PARALLEL).program
    regs = {"r1": 1000, "r2": 2000, "r3": 32}
    total = sum(t.instructions for t in golden_tasks(
        program, SparseMemory(), regs).tasks) + 1  # + the halt
    for budget in (1, 57, total - 1):
        with pytest.raises(
            ExecutionError, match=f"exceeded {budget} instructions"
        ):
            extract_tasks(program, SparseMemory(), regs,
                          max_instructions=budget)
        _assert_same_outcome(program, initial_regs=regs,
                             max_instructions=budget)
    # The halt is the last budgeted instruction: no error.
    _assert_same_outcome(program, initial_regs=regs, max_instructions=total)


@pytest.mark.parametrize("source, budget", [
    ("li ra, -3\nret\nhalt\n", 2),
    ("li ra, -3\nret\nhalt\n", 3),
    ("li ra, 10\nret\nhalt\n", 2),
    ("li ra, 10\nret\nhalt\n", 3),
    ("li r1, 1\nadd r1, r1, 1\n", 2),
    ("li r1, 1\nadd r1, r1, 1\n", 3),
])
def test_bad_pc_and_budget_keep_executor_precedence(source, budget):
    # The golden executor checks the budget before it fetches, so a pc
    # left out of range by the last budgeted instruction reports the
    # budget; with budget to spare it reports the pc.
    _assert_same_outcome(assemble(source, name="edge"),
                         max_instructions=budget)


def test_final_task_ends_at_halt_without_it():
    source = """
    fn main(dst: ptr<int>, n: int) -> int {
        var s: int = 0;
        #pragma loopfrog
        for (var i: int = 0; i < n; i = i + 1) {
            dst[i] = i;
        }
        for (var j: int = 0; j < n; j = j + 1) {
            s = s + dst[j];
        }
        return s;
    }
    """
    program = compile_frog(source).program
    trace = _assert_same_outcome(program, initial_regs={"r1": 1000, "r2": 8})
    last = trace.tasks[-1]
    assert not last.parallel and last.reads
    executor = Executor(program, SparseMemory())
    executor.regs.update({"r1": 1000, "r2": 8})
    ran = executor.run().instructions
    assert trace.total_instructions == ran - 1  # the halt joins no task


OTHER_REGION = """
    li r2, 3
    li r1, 1000
loop:
    detach cont
    store r2, r1, 0
    detach other        ; nested: the open region stays cont
    reattach other      ; another region's reattach closes nothing
    load r3, r1, 8
    reattach cont
cont:
    sub r2, r2, 1
    add r1, r1, 16
    bnez r2, loop
    sync other          ; another region's sync closes nothing
    sync cont
other:
    add r4, r4, 1
    halt
"""


def test_hints_of_another_region_do_not_cut_tasks():
    trace = _assert_same_outcome(assemble(OTHER_REGION, name="regions"))
    parallel = trace.parallel_tasks
    # One task per iteration, each holding its store, both foreign hints
    # and its load.  The continuation and the next iteration's detach
    # (the region is already open) join the next task.
    assert [t.instructions for t in parallel[:3]] == [5, 9, 9]
    assert all(len(t.writes) == 1 and len(t.reads) == 1
               for t in parallel[:3])
    assert not trace.tasks[-1].parallel
