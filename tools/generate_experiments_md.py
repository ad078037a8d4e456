#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md and check every paper claim it shows.

``SECTIONS`` below is the one home of the paper's numbers.  The tool
runs the experiment registry once, writes EXPERIMENTS.md (each section's
paper statement, its claim rows with their accepted band, and each
experiment's rendered block), then exits 1 naming every claim whose
measured value falls outside its band.

Run:  PYTHONPATH=src python tools/generate_experiments_md.py
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

from repro import experiments
from repro.experiments import in_region_geomean_speedup, registry
from repro.workloads import (
    ALL_CATEGORIES,
    CATEGORY_BRANCH_PREFETCH,
    CATEGORY_CONTROL,
    CATEGORY_DATA_PREFETCH,
    CATEGORY_DEPCHAIN,
    CATEGORY_MEMORY,
)

OUT = "EXPERIMENTS.md"


@dataclass(frozen=True)
class Claim:
    """One checked number: a paper-vs-measured row of EXPERIMENTS.md.

    ``measure`` reads the value from the ``experiment``'s result object.
    ``band`` is an open interval ``(lo, hi)`` in the units the row shows
    (``None`` leaves a side unbounded), one such interval per element of
    a tuple value, or a value the measure must equal.  A row that does
    not reproduce the paper names its ``divergence``: the DESIGN.md
    "Known divergences" bullet that explains it.  Its band holds today's
    value and excludes the paper's, so any change that moves it fails.
    """

    experiment: str
    label: str
    paper: str
    measure: Callable[[Any], Any]
    band: Any
    fmt: str = "{}"
    divergence: str = ""

    def value(self, results: Mapping[str, Any]) -> Any:
        return self.measure(results[self.experiment])

    def show(self, value: Any) -> str:
        if isinstance(value, tuple):
            return self.fmt.format(*value)
        return self.fmt.format(value)

    def holds(self, value: Any) -> bool:
        return _within(value, self.band)

    @property
    def accepted(self) -> str:
        if self.divergence:
            return f"divergence: {self.divergence}"
        return _show_band(self.band)


def _within(value: Any, band: Any) -> bool:
    if isinstance(value, tuple):
        return all(map(_within, value, band))
    if isinstance(band, tuple):
        lo, hi = band
        return (lo is None or lo < value) and (hi is None or value < hi)
    return value == band


def _show_band(band: Any) -> str:
    if not isinstance(band, tuple):
        return f"= {band}"
    if isinstance(band[0], tuple):
        return ", ".join(map(_show_band, band))
    lo, hi = band
    if hi is None:
        return f"> {lo:g}"
    if lo is None:
        return f"< {hi:g}"
    return f"({lo:g}, {hi:g})"


@dataclass(frozen=True)
class Section:
    """One EXPERIMENTS.md section: the paper's statement, the claim rows,
    prose, then the rendered blocks of ``renders`` (experiment names)."""

    heading: str
    renders: Tuple[str, ...]
    claims: Tuple[Claim, ...] = ()
    paper: str = ""
    prose: str = ""
    column: str = "metric"


# DESIGN.md "Known divergences" bullets the divergence rows name.
FAILED_SPECULATION = "Failed-speculation volume (fig 8)"
ARCH_SLOWDOWN = "Architectural-threadlet slowdown (fig 8)"
UTILISATION = "All-benchmark threadlet utilisation (fig 7)"
IN_REGION = "In-region speedup and loop tail (§6.3)"
PACKING = "Iteration packing (§6.5)"
ASSOCIATIVITY = "Associativity sensitivity (§6.6)"
OVERHEADS = "Issued instructions and L2 traffic (§6.8)"

TRUE_PARALLELISM = (CATEGORY_MEMORY, CATEGORY_CONTROL, CATEGORY_DEPCHAIN)
PREFETCHING = (CATEGORY_BRANCH_PREFETCH, CATEGORY_DATA_PREFETCH)


def _loops(result: Any, categories: Tuple[str, ...]) -> int:
    return sum(result.loops_in(c) for c in categories)


def _granule_drops(result: Any) -> Dict[str, float]:
    """Speedup each benchmark loses going from 4 B to 8 B granules (pp)."""
    return {
        name: result.benchmark_at(4, name) - result.benchmark_at(8, name)
        for name in result.per_benchmark[4]
    }


def _victim(result: Any, label: str) -> float:
    """The 4-way worst-hit benchmark's speedup under ``label``."""
    return result.benchmark(label, result.worst_hit("4-way"))


PCT, PP, RATIO = "{:+.1f}%", "{:+.1f} pp", "{:.2f}"

SECTIONS: Tuple[Section, ...] = (
    Section("Figure 1 — IPC and commit utilisation vs front-end width", ("fig1",), claims=(
        Claim("fig1", "IPC rises monotonically with width", "rises",
              lambda r: r.ipc_increases_with_width, True),
        Claim("fig1", "commit utilisation falls monotonically with width", "falls",
              lambda r: r.utilization_decreases_with_width, True),
    ), paper="""\
Paper: across four Intel generations, geomean IPC rises with front-end width
while the fraction of commit bandwidth actually used falls."""),
    Section("Figure 6 — whole-program speedups", ("fig6",), claims=(
        Claim("fig6", "SPEC CPU 2017 geomean", "+9.5%",
              lambda r: r.geomean_2017_percent, (7.0, 13.0), PCT),
        Claim("fig6", "SPEC CPU 2006 geomean", "+9.2%",
              lambda r: r.geomean_2006_percent, (7.0, 15.0), PCT),
        Claim("fig6", "imagick", "+87%", lambda r: r.speedup_of("imagick"), (60, None), PCT),
        Claim("fig6", "omnetpp", "+54%", lambda r: r.speedup_of("omnetpp"), (35, None), PCT),
        Claim("fig6", "nab", "+15%", lambda r: r.speedup_of("nab"), (8, None), PCT),
        Claim("fig6", "gcc", "+12%", lambda r: r.speedup_of("gcc"), (6, None), PCT),
        Claim("fig6", "xalancbmk", "+11%", lambda r: r.speedup_of("xalancbmk"), (6, None), PCT),
        Claim("fig6", "2017 benchmarks >1%", "13 of 20",
              lambda r: sum(x.speedup_percent > 1 for x in r.runs_2017), (10, 17), "{} of 20"),
        Claim("fig6", "2006 benchmarks >10%", "11",
              lambda r: sum(x.speedup_percent >= 10 for x in r.runs_2006), (7, 15)),
        Claim("fig6", "benchmarks >1%, both suites", "34 of 47",
              lambda r: len(r.profitable()), (23, None), "{} of 37"),
    )),
    Section("Figure 7 / §6.3 — threadlet utilisation and in-region speedup", ("fig7",), claims=(
        Claim("fig7", ">=2 threadlets active, profitable benchmarks", "42%",
              lambda r: 100 * r.profitable_at_least_2, (10, 75), "{:.0f}%"),
        Claim("fig7", ">=2 threadlets active, all benchmarks", "29%",
              lambda r: 100 * r.overall_at_least_2, (40, 44), "{:.0f}%", UTILISATION),
        Claim("fig7", "all 4 active, profitable", "23%",
              lambda r: 100 * r.profitable_all_4, (5, 60), "{:.0f}%"),
        Claim("fig7", "all 4 active, overall", "16%",
              lambda r: 100 * r.overall_all_4, (22, 26), "{:.0f}%", UTILISATION),
        # Figure 6's SPEC 2017 runs are the (deselecting) runs figure 7 sweeps.
        Claim("fig6", "geomean in-region (loop) speedup", "+43%",
              lambda r: 100 * (in_region_geomean_speedup(r.runs_2017) - 1),
              (23, 25), "{:+.0f}%", IN_REGION),
    ), prose="""\
Note: utilisation comes from the LoopFrog run even for the benchmarks dynamic
deselection falls back from (lbm, blender, leela, xz), so overall utilisation sits
above the profitable set instead of below it."""),
    Section("Figure 8 — committed-IPC decomposition", ("fig8",), claims=(
        Claim("fig8", "mean architectural ratio vs baseline", "~0.94",
              lambda r: r.mean_arch_ratio, (0.75, 0.8), RATIO, ARCH_SLOWDOWN),
        Claim("fig8", "mean useful (arch + successful spec)", ">1 (recoups + speedup)",
              lambda r: r.mean_useful_ratio, (1.0, None), RATIO),
        Claim("fig8", "mean failed-speculation overhead", "~0.31",
              lambda r: r.mean_failed_ratio, (0.0, 0.01), RATIO, FAILED_SPECULATION),
    ), prose="""\
Our failed-speculation overhead is lower than the paper's because the model only
executes speculative paths that are locally correct per threadlet (no wrong-path
fetch within a threadlet); squashes come from real cross-threadlet violations."""),
    Section("Table 2 — sources of performance gains", ("table2",), claims=(
        Claim("table2", "fewest loops in any of the five categories", "2 (dependency chains)",
              lambda r: min(r.loops_in(c) for c in ALL_CATEGORIES), (0, None)),
        Claim("table2", "true-parallelism minus prefetching loops", "+18 (28 vs 10)",
              lambda r: _loops(r, TRUE_PARALLELISM) - _loops(r, PREFETCHING), (0, None), "{:+d}"),
        Claim("table2", "classifier agrees with the engineered kernels", "(not in the paper)",
              lambda r: 100 * r.classification_agreement, (80, None), "{:.0f}%"),
    ), paper="""\
Paper: memory parallelism 17 loops/29%, control dependencies 9/23%, dependency
chains 2/12%, branch-condition prefetch 6/32%, data-value prefetch 4/3%.""", prose="""\
Divergence note: our branch-heavy true-parallelism loops realise their gains as
committed speculative work (cutting control dependencies) rather than as
failed-speculation prefetching, because per-threadlet fetch is locally oracle;
dedicated conflict-heavy loops reproduce the failed-speculation prefetch effect."""),
    Section("Figure 9 — sensitivity to SSB size", ("fig9",), column="SSB size", claims=(
        Claim("fig9", "512 B", "+6.2%", lambda r: r.speedup_at(512), (4, 9), PCT),
        Claim("fig9", "2 KiB", "-0.4pp vs 8 KiB", lambda r: r.speedup_at(2048), (7, 13), PCT),
        Claim("fig9", "8 KiB", "+9.5% (headline)", lambda r: r.speedup_at(8192), (7, 13), PCT),
        Claim("fig9", "32 KiB", "<+0.1pp vs 8 KiB", lambda r: r.speedup_at(32768), (7, 13), PCT),
        Claim("fig9", "512 B share of the 8 KiB speedup", "0.65",
              lambda r: r.speedup_at(512) / r.speedup_at(8192), (0.4, None), RATIO),
        Claim("fig9", "2 KiB minus 8 KiB", "-0.4 pp",
              lambda r: r.speedup_at(2048) - r.speedup_at(8192), (None, 0.5), PP),
        Claim("fig9", "32 KiB minus 8 KiB", "<+0.1 pp",
              lambda r: r.speedup_at(32768) - r.speedup_at(8192), (-2.0, 2.0), PP),
    ), prose="""\
Same binary behaviour as the paper: loops keep their speedup while their write
sets fit and lose it once the slice overflows (threadlets stall on full slices)."""),
    Section("Figure 10 — sensitivity to conflict granule size", ("fig10",), column="granule",
            claims=(
        Claim("fig10", "1 B", "equivalent to 4 B", lambda r: r.speedup_at(1), (7, 13), PCT),
        Claim("fig10", "2 B", "equivalent to 4 B", lambda r: r.speedup_at(2), (7, 13), PCT),
        Claim("fig10", "4 B", "+9.5% (headline)", lambda r: r.speedup_at(4), (7, 13), PCT),
        Claim("fig10", "8 B", "only x264 hurt (~5%)", lambda r: r.speedup_at(8), (7, 13), PCT),
        Claim("fig10", "16 B", "+6.5%", lambda r: r.speedup_at(16), (5, 10), PCT),
        Claim("fig10", "32 B", "~+6%", lambda r: r.speedup_at(32), (4, 9), PCT),
        Claim("fig10", "1 B minus 4 B", "0 pp",
              lambda r: r.speedup_at(1) - r.speedup_at(4), (-1.5, 1.5), PP),
        Claim("fig10", "2 B minus 4 B", "0 pp",
              lambda r: r.speedup_at(2) - r.speedup_at(4), (-1.5, 1.5), PP),
        Claim("fig10", "16 B minus 4 B", "-3.0 pp",
              lambda r: r.speedup_at(16) - r.speedup_at(4), (None, 0), PP),
        Claim("fig10", "32 B minus 4 B", "~-3.5 pp",
              lambda r: r.speedup_at(32) - r.speedup_at(4), (None, 0), PP),
        Claim("fig10", "x264 loss from 4 B to 8 B", "~5%",
              lambda r: _granule_drops(r)["x264"], (0.25, None), "{:+.2f} pp"),
        Claim("fig10", "worst casualty at 8 B", "x264",
              lambda r: max(_granule_drops(r), key=_granule_drops(r).get), "x264"),
    ), prose="""\
Larger granules cost speedup through read-modify-write false sharing
(section 4.1.1)."""),
    Section("§6.5 — iteration packing", ("packing",), claims=(
        Claim("packing", "geomean delta from packing", "+0.9 pp",
              lambda r: r.delta_pp, (-0.2, 0.4), PP, PACKING),
        Claim("packing", "mean packing factor", "2.1x",
              lambda r: r.mean_packing_factor, (12.0, 13.0), "{:.1f}x", PACKING),
        Claim("packing", "max packing factor", "25x",
              lambda r: r.max_packing_factor, (7, None), "{}x"),
        Claim("packing", "benchmarks affected", "5 of 13", lambda r: len(r.affected), (0, None)),
    )),
    Section("§6.6 — SSB associativity and victim buffer", ("assoc",), claims=(
        Claim("assoc", "worst hit at 4-way", "omnetpp, imagick",
              lambda r: r.worst_hit("4-way"), "imagick"),
        Claim("assoc", "its loss at 4-way", "-8.8 pp (imagick)",
              lambda r: _victim(r, "4-way") - _victim(r, "full (headline)"), (None, -3.0), PP),
        Claim("assoc", "its recovery with the victim buffer", "most of the loss",
              lambda r: _victim(r, "4-way + 8-entry victim") - _victim(r, "4-way"),
              (1.5, None), PP),
        Claim("assoc", "its 8-way gain over 4-way", "positive",
              lambda r: _victim(r, "8-way") - _victim(r, "4-way"), (0, None), PP),
        Claim("assoc", "suite geomean cost of 4-way", "-2.0 pp",
              lambda r: r.geomean("4-way") - r.geomean("full (headline)"),
              (-0.5, 0.0), PP, ASSOCIATIVITY),
    ), paper="""\
Paper: limiting to 4/8 ways costs 2.0/1.4 pp; an 8-entry shared victim buffer
recovers both to 1.2 pp."""),
    Section("Table 3 — comparison with classic TLS/SpMT schemes", ("table3",), claims=(
        Claim("table3", "LoopFrog speedup", "1.1x",
              lambda r: r.row("LoopFrog").speedup, (1.05, 1.2), "{:.2f}x"),
        Claim("table3", "STAMPede speedup", "1.16x",
              lambda r: r.row("STAMPede").speedup, (0.8, 2.0), "{:.2f}x"),
        Claim("table3", "Multiscalar speedup", "2.16x",
              lambda r: r.row("MultiScalar").speedup, (1.3, None), "{:.2f}x"),
        Claim("table3", "mean parallel task size (instructions)", "~100-10,000 (LoopFrog)",
              lambda r: r.mean_task_size, (5, 10_000), "{:.0f}"),
    ), paper="""\
Paper speedups (each over its own, very different baseline): LoopFrog 1.1x,
STAMPede 1.16x, Multiscalar 2.16x."""),
    Section("§6.8 — area and power overheads", ("area",), claims=(
        Claim("area", "SSB area (7 nm)", "0.02 mm^2",
              lambda r: r.area.ssb_mm2, (0.015, 0.025), "{:.3f} mm^2"),
        Claim("area", "conflict detector", "0.005 mm^2",
              lambda r: r.area.conflict_mm2, (0.004, 0.006), "{:.3f} mm^2"),
        Claim("area", "new structures vs N1 core", "~2%",
              lambda r: r.area.new_structures_percent, (1.0, 3.0), "{:.1f}%"),
        Claim("area", "total overhead (with SMT)", "12-17%",
              lambda r: (r.area.total_overhead_percent_low, r.area.total_overhead_percent_high),
              ((11.0, 13.0), (16.0, 18.0)), "{:.0f}-{:.0f}%"),
        Claim("area", "issued instructions", "+14%",
              lambda r: r.issued_increase_percent, (3.0, 3.6), PCT, OVERHEADS),
        Claim("area", "L2 accesses", "+1.7%",
              lambda r: r.l2_access_increase_percent, (-8.5, -7.7), PCT, OVERHEADS),
        Claim("area", "L2 misses", "-2.3%",
              lambda r: r.l2_miss_change_percent, (-15.6, -14.8), PCT, OVERHEADS),
        Claim("area", "Pollack expectation for that area", "6-8%",
              lambda r: (r.pollack_low, r.pollack_high), ((5.0, 7.0), (7.0, 9.0)),
              "{:.1f}-{:.1f}%"),
    )),
    Section("§6.3 — per-loop speedup distribution", ("loops",), claims=(
        Claim("loops", "max loop speedup", "2.9x", lambda r: r.max_speedup, (1.8, None), "{:.2f}x"),
        Claim("loops", "loops over 2x", "6", lambda r: r.loops_over(2.0), (0, 2), "{}", IN_REGION),
        Claim("loops", "loops at +20% or more", "44", lambda r: r.loops_over(1.2), (9, None)),
        Claim("loops", "loops measured", "38 analysed", lambda r: r.count, (29, None)),
        Claim("loops", "geomean loop speedup", "+43%",
              lambda r: 100 * (r.geomean - 1), (28, 32), "{:+.0f}%", IN_REGION),
    )),
    Section("Extension ablations (not in the paper)", ("threadlets", "bloom"), claims=(
        Claim("threadlets", "2 threadlet contexts", "(4 in the paper)",
              lambda r: r.speedup_at(2), (0, None), PCT),
        Claim("threadlets", "4 threadlet contexts", "+9.5% (headline)",
              lambda r: r.speedup_at(4), (5.0, None), PCT),
        Claim("threadlets", "2 minus 4 contexts", "(not in the paper)",
              lambda r: r.speedup_at(2) - r.speedup_at(4), (None, 1.0), PP),
        Claim("threadlets", "8 over 4 contexts", "(not in the paper)",
              lambda r: r.speedup_at(8) / r.speedup_at(4), (None, 1.8), "{:.2f}x"),
        Claim("bloom", "Bloom-filter share of the exact-set speedup", "second-order loss",
              lambda r: r.bloom_percent / r.exact_percent, (0.5, None), RATIO),
        Claim("bloom", "exact minus Bloom-filter speedup", "second-order loss",
              lambda r: r.delta_pp, (-5.0, 5.0), PP),
    ), prose="""\
Threadlet returns diminish beyond the paper's 4 contexts on a shared 8-wide back end;
real 4096-bit Bloom filters cost almost nothing vs exact sets, supporting the paper's
second-order-effect claim (§6.1)."""),
)

#: The claims table: every checked number, in document order.
CLAIMS: Tuple[Claim, ...] = tuple(c for s in SECTIONS for c in s.claims)

HEADER = """\
# EXPERIMENTS — paper vs. this reproduction

Regenerated and checked by `PYTHONPATH=src python tools/generate_experiments_md.py`,
which runs every registered experiment once (`repro exp run NAME` reruns
one).  Each row's `accepted` column is the open interval its measured
value must fall in, in the units the row shows (`= v`: must equal v).
A `divergence` row does not reproduce the paper: its band holds today's
value and excludes the paper's, and the named bullet under DESIGN.md's
"Known divergences" explains the gap.  The tool exits 1 and names every
claim outside its band.

Absolute numbers are not expected to match (the substrate is an approximate-cycle
Python model on synthetic SPEC stand-ins, not gem5 on SPEC reference runs); the
*shape* — who wins, by roughly what factor, where crossovers fall — is the
reproduction target. See DESIGN.md for the substitution table.

Every number below comes from full detailed simulation. Workloads too
long for that budget can be estimated with SimPoint-style sampled
simulation (`python -m repro sample`, `run_suite(..., sampling=True)`);
docs/sampling.md documents the methodology and its measured accuracy
against full runs."""


def render(results: Mapping[str, Any]) -> str:
    """EXPERIMENTS.md for ``results`` (experiment name -> result object)."""
    parts = [HEADER]
    for section in SECTIONS:
        parts.append(f"## {section.heading}")
        if section.paper:
            parts.append(section.paper)
        if section.claims:
            rows = [
                f"| {section.column} | paper | measured | accepted |",
                "|---|---|---|---|",
            ]
            for claim in section.claims:
                rows.append(
                    f"| {claim.label} | {claim.paper} | "
                    f"{claim.show(claim.value(results))} | {claim.accepted} |"
                )
            parts.append("\n".join(rows))
        if section.prose:
            parts.append(section.prose)
        for name in section.renders:
            parts.append(f"```\n{results[name].render()}\n```")
    return "\n\n".join(parts) + "\n"


def check(results: Mapping[str, Any], claims: Tuple[Claim, ...] = CLAIMS) -> int:
    """Print one line per claim whose measured value falls outside its
    band; 1 if there is one, else 0."""
    status = 0
    for claim in claims:
        value = claim.value(results)
        if not claim.holds(value):
            print(f"claim violated: {claim.experiment}: {claim.label}: "
                  f"measured {claim.show(value)}, accepted "
                  f"{_show_band(claim.band)}", file=sys.stderr)
            status = 1
    return status


def main() -> int:
    experiments.configure(jobs=os.cpu_count())
    results = {run.name: run.result for run in registry.run_all()}
    with open(OUT, "w") as fh:
        fh.write(render(results))
    print(f"wrote {OUT}: {len(CLAIMS)} claims", file=sys.stderr)
    return check(results)


if __name__ == "__main__":
    sys.exit(main())
