#!/usr/bin/env python3
"""Hot-function profile of the detailed engine over a workload suite.

Run:  PYTHONPATH=src python tools/profile_engine.py [options]

Simulates a pinned workload subset (by default the first three spec2017
benchmarks, all phases, on both machine configs) under cProfile and
reports two views:

* the top-N hottest functions by cumulative time, and
* a per-phase breakdown — how much wall time the engine spent in
  fetch, dispatch, issue, commit, completion processing, threadlet
  commit and per-cycle statistics, or in the episode monoliths —
  resolved from the profile of the ``Engine`` phase methods themselves.

The JSON output is the before/after evidence artifact for engine perf
work: run it on the parent commit and on your branch, and diff the
phase seconds.  ``--mode {reference,episode}`` pins the engine mode to
profile (default: the session default, episode); ``--reference`` is a
legacy alias for ``--mode reference``.  Under the episode mode the
breakdown attributes time to the two episode monoliths
(``episode_single``/``episode_multi``) and reports per-episode counts.
"""

import argparse
import cProfile
import json
import pstats
import sys
import time

# The reference step phases, in the order step() runs them; the
# threadlet-commit helper runs in both modes.
PHASE_METHODS = {
    "completions": "_process_completions",
    "commit": "_commit",
    "threadlet_commit": "_threadlet_commit",
    "issue": "_issue",
    "dispatch": "_dispatch",
    "fetch": "_fetch",
    "per_cycle_stats": "_per_cycle_stats",
    # The episode mode executes *episodes* — maximal runs of cycles with
    # a stable threadlet population — as cross-cycle monoliths.  Each
    # call is one episode, so the calls column is the episode count:
    # "episode_single" covers lone-threadlet epochs, "episode_multi" the
    # multi-threadlet (reconciliation) epochs.
    "episode_single": "_ep_run_single",
    "episode_multi": "_ep_run_multi",
}


def simulate_subset(suite_name, count):
    """Cold-simulate the subset on both machine configs; returns totals."""
    from repro.experiments.runner import run_workload
    from repro.uarch.config import baseline_machine, default_machine
    from repro.workloads.suites import suite

    instructions = 0
    cycles = 0
    sims = 0
    for benchmark in suite(suite_name)[:count]:
        for workload, _weight in benchmark.phases:
            for machine in (baseline_machine(), default_machine()):
                stats = run_workload(workload, machine, use_cache=False)
                instructions += stats.arch_instructions
                cycles += stats.cycles
                sims += 1
    return {"instructions": instructions, "cycles": cycles,
            "simulations": sims}


def _function_rows(stats, limit):
    """Top functions by cumulative time as JSON-friendly rows."""
    rows = []
    entries = sorted(
        stats.stats.items(), key=lambda kv: kv[1][3], reverse=True
    )
    for (filename, lineno, name), (cc, nc, tt, ct, _callers) in entries:
        rows.append({
            "function": name,
            "file": filename,
            "line": lineno,
            "calls": nc,
            "total_seconds": round(tt, 4),
            "cumulative_seconds": round(ct, 4),
        })
        if len(rows) >= limit:
            break
    return rows


def _phase_breakdown(stats, wall_seconds):
    """Cumulative seconds per engine step phase, from the phase methods.

    Methods are matched by (core.py, method-name); cumtime of each phase
    method is exactly the wall time spent inside that phase (phases never
    call each other, except the episode monoliths, which call
    ``_threadlet_commit``).
    """
    phases = {}
    for (filename, _lineno, name), (_cc, nc, _tt, ct, _callers) in (
        stats.stats.items()
    ):
        for phase, method in PHASE_METHODS.items():
            if name == method and filename.endswith("core.py"):
                entry = phases.setdefault(
                    phase, {"calls": 0, "seconds": 0.0}
                )
                entry["calls"] += nc
                entry["seconds"] = round(entry["seconds"] + ct, 4)
    accounted = sum(p["seconds"] for p in phases.values())
    phases["other"] = {
        "calls": 0,
        "seconds": round(max(0.0, wall_seconds - accounted), 4),
    }
    for phase, entry in phases.items():
        entry["share"] = round(
            entry["seconds"] / wall_seconds, 4
        ) if wall_seconds else 0.0
    return phases


def _episode_attribution(phases):
    """Per-episode view of the episode monoliths.

    Each ``_ep_run_*`` call is one episode, so calls/seconds of those
    phase rows convert directly into episode counts and mean per-episode
    cost — the reconciliation-overhead evidence for perf work.
    """
    episodes = {}
    for phase, kind in (("episode_single", "single"),
                        ("episode_multi", "multi")):
        entry = phases.get(phase)
        if not entry or not entry["calls"]:
            continue
        episodes[kind] = {
            "episodes": entry["calls"],
            "seconds": entry["seconds"],
            "mean_microseconds": round(
                entry["seconds"] / entry["calls"] * 1e6, 2
            ),
        }
    return episodes


def run_profile(suite_name, count, top, mode=None):
    from repro.uarch import core as _core

    if mode is not None:
        _core.set_engine_mode(mode)
    resolved_mode = _core.engine_mode()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    totals = simulate_subset(suite_name, count)
    profiler.disable()
    wall = time.perf_counter() - start
    stats = pstats.Stats(profiler)
    phases = _phase_breakdown(stats, wall)
    return {
        "suite": suite_name,
        "benchmark_count": count,
        "engine_mode": resolved_mode,
        "reference_path": resolved_mode == "reference",
        "wall_seconds": round(wall, 3),
        "instructions": totals["instructions"],
        "cycles": totals["cycles"],
        "simulations": totals["simulations"],
        "instructions_per_second": round(
            totals["instructions"] / wall, 1
        ) if wall else 0.0,
        "phases": phases,
        "episodes": _episode_attribution(phases),
        "top_functions": _function_rows(stats, top),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="spec2017")
    parser.add_argument("--count", type=int, default=3,
                        help="benchmarks of the suite to profile")
    parser.add_argument("--top", type=int, default=25,
                        help="hot functions to report")
    parser.add_argument("--mode", choices=("reference", "episode"),
                        help="engine mode to profile (default: the "
                             "session default, episode)")
    parser.add_argument("--reference", action="store_true",
                        help="legacy alias for --mode reference")
    parser.add_argument("--output", metavar="FILE",
                        help="write the JSON report here (default: stdout)")
    args = parser.parse_args(argv)
    mode = args.mode
    if args.reference:
        if mode and mode != "reference":
            parser.error("--reference conflicts with --mode " + mode)
        mode = "reference"

    report = run_profile(args.suite, args.count, args.top, mode=mode)
    payload = json.dumps(report, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(payload)
    phases = report["phases"]
    order = sorted(phases, key=lambda p: -phases[p]["seconds"])
    summary = ", ".join(
        f"{p} {phases[p]['share']:.0%}" for p in order if phases[p]["seconds"]
    )
    print(
        f"# {report['instructions']} instr in {report['wall_seconds']}s "
        f"-> {report['instructions_per_second']:.0f} instr/s "
        f"({report['engine_mode']} mode)",
        file=sys.stderr,
    )
    print(f"# phases: {summary}", file=sys.stderr)
    episodes = report.get("episodes") or {}
    for kind in sorted(episodes):
        e = episodes[kind]
        print(
            f"# episodes[{kind}]: {e['episodes']} x "
            f"{e['mean_microseconds']}us = {e['seconds']}s",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
