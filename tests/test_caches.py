"""Unit tests for the cache hierarchy timing model."""

import random
from itertools import groupby

from repro.fuzz import FuzzConfig
from repro.fuzz.engine import session_case
from repro.isa import assemble
from repro.uarch.caches import MemoryHierarchy, _CacheLevel, _StridePrefetcher
from repro.uarch.config import MachineConfig, MemoryConfig, default_machine
from repro.uarch.core import Engine
from repro.uarch.memory_state import SparseMemory
from repro.uarch.statistics import SimStats
from repro.workloads.suites import SUITE_NAMES, suite


def hierarchy(**kwargs):
    stats = SimStats()
    return MemoryHierarchy(MemoryConfig(**kwargs), stats), stats


def test_cold_miss_pays_dram_latency():
    h, stats = hierarchy()
    ready = h.access_data(0x100000, cycle=0, is_write=False)
    assert ready >= MemoryConfig().dram_latency
    assert stats.l1d_misses == 1
    assert stats.l2_misses == 1


def test_second_access_hits_l1():
    h, stats = hierarchy()
    first = h.access_data(0x2000, 0, False)
    second = h.access_data(0x2000, first, False)
    assert second == first + MemoryConfig().l1d_latency
    assert stats.l1d_misses == 1


def test_same_line_misses_merge_in_flight():
    h, _ = hierarchy()
    a = h.access_data(0x4000, 0, False)
    b = h.access_data(0x4008, 1, False)  # same 64B line, still in flight
    assert b <= a


def test_lru_eviction():
    config = MemoryConfig()
    level = _CacheLevel("t", size=4 * 64, assoc=2, line=64, latency=1, mshrs=4)
    # Two sets of two ways each; fill one set then overflow it.
    level.insert(0)
    level.insert(2)  # same set as 0 (line_addr % 2)
    level.insert(4)  # evicts line 0 (LRU)
    assert not level.lookup(0)
    assert level.lookup(2)
    assert level.lookup(4)


def test_mshr_limit_delays_misses():
    h, _ = hierarchy(l1d_mshrs=2)
    lines = [i * 0x10000 for i in range(4)]
    times = [h.access_data(a, 0, False) for a in lines]
    # With only 2 MSHRs the 3rd/4th miss must wait for a slot.
    assert times[2] > times[0]
    assert times[3] > times[1]


def test_stride_prefetcher_detects_stride():
    p = _StridePrefetcher(degree=2)
    addrs = [1000 + 64 * i for i in range(5)]
    out = []
    for a in addrs:
        out = p.observe(7, a)
    assert out == [addrs[-1] + 64, addrs[-1] + 128]


def test_stride_prefetcher_resets_on_noise():
    p = _StridePrefetcher(degree=2)
    for a in (0, 64, 128, 192):
        p.observe(7, a)
    assert p.observe(7, 5000) == []


def test_prefetch_hides_latency_for_streaming():
    h, stats = hierarchy()
    # Stream through many lines; later accesses should increasingly hit.
    latencies = []
    cycle = 0
    for i in range(64):
        ready = h.access_data(0x80000 + 64 * i, cycle, False, pc=3)
        latencies.append(ready - cycle)
        cycle = ready
    assert min(latencies[10:]) < latencies[0]


def test_instruction_side_hits_after_fill():
    h, stats = hierarchy()
    first = h.access_instruction(100, 0)
    second = h.access_instruction(101, first)  # same 64B line (pc*4)
    assert second == first + MemoryConfig().l1i_latency
    assert stats.l1i_misses == 1


def test_writes_allocate_lines():
    h, stats = hierarchy()
    h.access_data(0x6000, 0, is_write=True)
    ready = h.access_data(0x6000, 500, is_write=False)
    assert ready == 500 + MemoryConfig().l1d_latency


def test_lookup_on_untouched_set_misses_without_allocating():
    level = _CacheLevel("t", size=4 * 64, assoc=2, line=64, latency=1, mshrs=4)
    level.insert(0)
    assert not level.lookup(1)
    assert level.sets == [{0: 1}, None]
    assert level._stamp == 1


def _lru_orders(level):
    return [None if s is None else sorted(s, key=s.get) for s in level.sets]


def test_line_granular_warmup_matches_per_byte_insertion():
    # A 2-way, 4-set L2: the bytes below revisit lines non-consecutively
    # and spread over more lines than a set holds, so insertion order
    # decides which lines each set keeps.
    machine = MachineConfig(memory=MemoryConfig(l2_size=2 * 4 * 64, l2_assoc=2))
    program = assemble("halt\n")
    rng = random.Random(7)
    memory = SparseMemory()
    memory.store_int_array(0, [rng.randrange(1 << 16) for _ in range(40)])
    for _ in range(120):
        memory.store_byte(rng.randrange(64 * 24), rng.randrange(256))
    memory.store_int_array(64 * 3 + 32, [-1] * 12, size=4)
    lines = [addr // 64 for addr in memory.written_addresses()]
    runs = [line for line, _ in groupby(lines)]
    assert len(set(lines)) > 2 * 4          # some set overflows
    assert len(runs) > len(set(runs))       # some line is revisited later

    warmed = Engine(machine, program, memory.copy())
    reference = Engine(machine, program, memory.copy(), warm_caches=False)
    for line_addr in lines:
        reference.hierarchy.l2.insert(line_addr)
    reference._warm_text()
    assert _lru_orders(warmed.hierarchy.l2) == _lru_orders(reference.hierarchy.l2)
    assert _lru_orders(warmed.hierarchy.l1i) == _lru_orders(reference.hierarchy.l1i)


def _warmup_inputs():
    """``(name, memory)``: every suite phase's input, then the input of
    every case of the benchmark's fuzz session (seed 3, budget 16)."""
    for suite_name in SUITE_NAMES:
        for benchmark in suite(suite_name):
            for workload, _weight in benchmark.phases:
                yield workload.name, workload.fresh_input()[0]
    config = FuzzConfig(seed=3, budget=16)
    for index in range(config.budget):
        yield f"fuzz case {index}", session_case(config, index)[0].fresh_input()[0]


def test_l2_warmup_from_write_log_matches_per_byte_groupby():
    # The warm-up reads the first-write log one run at a time; the
    # reference walks every written byte and collapses repeats of the
    # line just inserted.  Lines and LRU stamps must agree exactly.
    machine = default_machine()
    line = machine.memory.line_size
    program = assemble("halt\n")
    inputs = list(_warmup_inputs())
    assert len(inputs) == 48 + 16
    for name, memory in inputs:
        warmed = Engine(machine, program, memory).hierarchy.l2
        reference = Engine(machine, program, memory, warm_caches=False)
        written = memory.written_addresses()
        for line_addr, _ in groupby(addr // line for addr in written):
            reference.hierarchy.l2.insert(line_addr)
        reference._warm_text()
        assert warmed.sets == reference.hierarchy.l2.sets, name
        assert warmed._stamp == reference.hierarchy.l2._stamp, name
