"""Cache hierarchy timing model: L1I, L1D, L2, DRAM.

Set-associative caches with LRU replacement, MSHR-limited miss concurrency,
a per-PC stride prefetcher at L1D (degree 2) and a stride + next-line
prefetcher at L2 (degree 8), following table 1.  Only *timing* lives here;
data always comes from the functional memory/SSB models.

Latency accounting is approximate-cycle: an access returns the cycle at
which its data is available, accounting for hit latency, miss latency to the
next level, and MSHR occupancy (a miss that cannot allocate an MSHR is
delayed until one frees up).  In-flight fills are merged: a second miss to a
line already being fetched completes when the first fill arrives.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs import metrics as _metrics
from .config import MemoryConfig
from .statistics import SimStats


class _CacheLevel:
    """One level of set-associative cache (timing only)."""

    __slots__ = ("name", "assoc", "line", "latency", "num_sets", "sets",
                 "mshrs", "inflight", "_stamp")

    def __init__(self, name: str, size: int, assoc: int, line: int,
                 latency: int, mshrs: int):
        self.name = name
        self.assoc = assoc
        self.line = line
        self.latency = latency
        self.num_sets = max(1, size // (assoc * line))
        # sets[i] maps line-address -> last-use stamp (LRU via min()), or
        # is None until the set is first filled: a run touches a few
        # hundred of the L2's thousands of sets.
        self.sets: List[Optional[Dict[int, int]]] = [None] * self.num_sets
        self.mshrs = mshrs
        self.inflight: Dict[int, int] = {}  # line-addr -> fill-complete cycle
        self._stamp = 0

    def lookup(self, line_addr: int) -> bool:
        # Inlined set selection: this runs once per fetched instruction and
        # once per data access, so the extra call was measurable.
        cache_set = self.sets[line_addr % self.num_sets]
        if cache_set is not None and line_addr in cache_set:
            self._stamp += 1
            cache_set[line_addr] = self._stamp
            return True
        return False

    def insert(self, line_addr: int) -> None:
        index = line_addr % self.num_sets
        cache_set = self.sets[index]
        if cache_set is None:
            cache_set = self.sets[index] = {}
        self._stamp += 1
        if line_addr in cache_set:
            cache_set[line_addr] = self._stamp
            return
        if len(cache_set) >= self.assoc:
            victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
        cache_set[line_addr] = self._stamp

    def mshr_ready_cycle(self, cycle: int) -> int:
        """Earliest cycle at which an MSHR is free (may be ``cycle``)."""
        self._expire(cycle)
        if len(self.inflight) < self.mshrs:
            return cycle
        return min(self.inflight.values())

    def _expire(self, cycle: int) -> None:
        if not self.inflight:
            return
        done = [a for a, c in self.inflight.items() if c <= cycle]
        for addr in done:
            del self.inflight[addr]

    def note_fill(self, line_addr: int, complete_cycle: int) -> None:
        self.inflight[line_addr] = complete_cycle
        self.insert(line_addr)


class _StridePrefetcher:
    """Per-PC stride detector issuing ``degree`` prefetches ahead."""

    __slots__ = ("degree", "table")

    def __init__(self, degree: int):
        self.degree = degree
        self.table: Dict[int, Tuple[int, int, int]] = {}  # pc -> (last, stride, conf)

    def observe(self, pc: int, addr: int) -> List[int]:
        last, stride, conf = self.table.get(pc, (addr, 0, 0))
        new_stride = addr - last
        if new_stride == stride and stride != 0:
            conf = min(3, conf + 1)
        else:
            conf = 0
            stride = new_stride
        self.table[pc] = (addr, stride, conf)
        if conf >= 2 and stride != 0:
            return [addr + stride * (i + 1) for i in range(self.degree)]
        return []


class MemoryHierarchy:
    """L1I + L1D + shared L2 + DRAM timing model."""

    def __init__(self, config: MemoryConfig, stats: Optional[SimStats] = None):
        self.config = config
        self.stats = stats if stats is not None else SimStats()
        line = config.line_size
        self.line = line
        self.l1i = _CacheLevel(
            "L1I", config.l1i_size, config.l1i_assoc, line,
            config.l1i_latency, mshrs=16,
        )
        self.l1d = _CacheLevel(
            "L1D", config.l1d_size, config.l1d_assoc, line,
            config.l1d_latency, config.l1d_mshrs,
        )
        self.l2 = _CacheLevel(
            "L2", config.l2_size, config.l2_assoc, line,
            config.l2_latency, config.l2_mshrs,
        )
        self.l1_prefetcher = _StridePrefetcher(config.l1_prefetch_degree)
        self.l2_prefetcher = _StridePrefetcher(config.l2_prefetch_degree)

    # -- data side ------------------------------------------------------------

    def access_data(self, addr: int, cycle: int, is_write: bool, pc: int = 0) -> int:
        """Access the data path; returns the data-ready cycle."""
        line_addr = addr // self.line
        self.stats.l1d_accesses += 1

        for target in self.l1_prefetcher.observe(pc, addr):
            self._prefetch(target // self.line, cycle)

        if self.l1d.lookup(line_addr):
            return cycle + self.l1d.latency
        # Merge with an in-flight fill if present.
        inflight = self.l1d.inflight.get(line_addr)
        if inflight is not None and inflight > cycle:
            return inflight

        self.stats.l1d_misses += 1
        start = self.l1d.mshr_ready_cycle(cycle)
        fill = self._access_l2(line_addr, start + self.l1d.latency)
        self.l1d.note_fill(line_addr, fill)
        return fill

    def _access_l2(self, line_addr: int, cycle: int) -> int:
        self.stats.l2_accesses += 1
        # L2 next-line ("neighbor") prefetch on every access.
        for target in self.l2_prefetcher.observe(0, line_addr):
            self._prefetch_l2(target, cycle)
        if self.l2.lookup(line_addr):
            return cycle + self.l2.latency
        inflight = self.l2.inflight.get(line_addr)
        if inflight is not None and inflight > cycle:
            return inflight
        self.stats.l2_misses += 1
        start = self.l2.mshr_ready_cycle(cycle)
        fill = start + self.l2.latency + self.config.dram_latency
        self.l2.note_fill(line_addr, fill)
        # Neighbor prefetch into L2 on a miss.
        self._prefetch_l2(line_addr + 1, cycle)
        return fill

    def _prefetch(self, line_addr: int, cycle: int) -> None:
        """Non-blocking prefetch into L1D (does not consume result)."""
        if self.l1d.lookup(line_addr) or line_addr in self.l1d.inflight:
            return
        if len(self.l1d.inflight) >= self.l1d.mshrs:
            return  # prefetches are dropped when MSHRs are saturated
        fill = self._access_l2(line_addr, cycle + self.l1d.latency)
        self.l1d.note_fill(line_addr, fill)

    def _prefetch_l2(self, line_addr: int, cycle: int) -> None:
        if self.l2.lookup(line_addr) or line_addr in self.l2.inflight:
            return
        if len(self.l2.inflight) >= self.l2.mshrs:
            return
        fill = cycle + self.l2.latency + self.config.dram_latency
        self.l2.note_fill(line_addr, fill)

    # -- instruction side -------------------------------------------------------

    def access_instruction(self, pc: int, cycle: int) -> int:
        """Fetch path: instruction addresses are pc * 4."""
        line_addr = (pc * 4) // self.line
        if self.l1i.lookup(line_addr):
            return cycle + self.l1i.latency
        inflight = self.l1i.inflight.get(line_addr)
        if inflight is not None and inflight > cycle:
            return inflight
        self.stats.l1i_misses += 1
        fill = self._access_l2(line_addr, cycle + self.l1i.latency)
        self.l1i.note_fill(line_addr, fill)
        return fill


# ---------------------------------------------------------------------------
# Metrics catalog for the cache hierarchy (collected from SimStats; see
# repro.obs.metrics for the registry contract).
# ---------------------------------------------------------------------------

_metrics.register(
    _metrics.MetricSpec("uarch.caches.l1d_accesses", _metrics.COUNTER,
                        "uarch.caches", "L1D lookups (loads and stores)",
                        unit="accesses", source="l1d_accesses"),
    _metrics.MetricSpec("uarch.caches.l1d_misses", _metrics.COUNTER,
                        "uarch.caches", "L1D misses escalated to the L2",
                        unit="accesses", source="l1d_misses"),
    _metrics.MetricSpec("uarch.caches.l1i_misses", _metrics.COUNTER,
                        "uarch.caches", "Instruction-fetch L1I misses",
                        unit="accesses", source="l1i_misses"),
    _metrics.MetricSpec("uarch.caches.l2_accesses", _metrics.COUNTER,
                        "uarch.caches", "Unified L2 lookups",
                        unit="accesses", source="l2_accesses"),
    _metrics.MetricSpec("uarch.caches.l2_misses", _metrics.COUNTER,
                        "uarch.caches", "L2 misses that pay DRAM latency",
                        unit="accesses", source="l2_misses"),
    _metrics.MetricSpec("uarch.caches.l1d_miss_rate", _metrics.GAUGE,
                        "uarch.caches", "L1D misses / L1D accesses",
                        derive=lambda s: s.l1d_miss_rate),
)
