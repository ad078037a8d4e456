#!/usr/bin/env python3
"""Rewrite the engine output pin, ``tests/engine_pin.json``.

Run:  PYTHONPATH=src python tools/pin_engine.py

Simulates every suite workload-phase (spec2017, spec2006, longrun) on the
baseline and LoopFrog machines through the runner, bypassing its cache
and store (``run_workload(..., use_cache=False)``), and records each
run's :class:`SimStats` fingerprint under its run digest (``runs``).  It
also estimates every longrun phase on both machines with the default
sampled methodology (``run_workload_sampled(..., use_cache=False)``) and
records each estimate under its sampled run digest (``sampled``): the
CPI, error bound, instruction and cluster counts and the fingerprint of
the extrapolated :class:`SimStats`.  ``tests/test_engine_parity.py``
checks the same runs against the file.

The run digest carries ``ENGINE_SCHEMA_VERSION`` and the sampled run
digest also ``SAMPLING_SCHEMA_VERSION``, so a change of timing or of
sampling method must come with a schema bump: same digest, same output.
If an output moved while its digest did not, the tool writes nothing,
names those runs and exits 1.  Bump the schema it names, then run it
again.
"""

import json
import sys
from pathlib import Path

from repro.experiments.runner import run_workload
from repro.results.digest import run_digest, sampled_run_digest
from repro.results.serialize import stats_sha256
from repro.sampling.runner import (
    SAMPLING_SCHEMA_VERSION,
    SamplingConfig,
    run_workload_sampled,
)
from repro.uarch.config import baseline_machine, default_machine
from repro.uarch.core import ENGINE_SCHEMA_VERSION
from repro.workloads.suites import SUITE_NAMES, suite

PIN_FILE = Path(__file__).resolve().parents[1] / "tests" / "engine_pin.json"
MACHINES = {"baseline": baseline_machine, "loopfrog": default_machine}
SAMPLED_SUITE = "longrun"


def _cells(suite_names):
    for suite_name in suite_names:
        for benchmark in suite(suite_name):
            for workload, _weight in benchmark.phases:
                for machine_name, make_machine in MACHINES.items():
                    yield workload, machine_name, make_machine()


def _exact_entry(workload, machine_name, stats) -> dict:
    return {
        "workload": workload.name,
        "machine": machine_name,
        "cycles": stats.cycles,
        "arch_instructions": stats.arch_instructions,
        "stats_sha256": stats_sha256(stats),
    }


def _sampled_entry(workload, machine_name, result) -> dict:
    return {
        "workload": workload.name,
        "machine": machine_name,
        "estimated_cpi": result.estimated_cpi,
        "error_bound": result.error_bound,
        "cycles": result.stats.cycles,
        "total_instructions": result.total_instructions,
        "detailed_instructions": result.detailed_instructions,
        "num_intervals": result.num_intervals,
        "num_clusters": result.num_clusters,
        "stats_sha256": stats_sha256(result.stats),
    }


def main() -> int:
    pinned = json.loads(PIN_FILE.read_text()) if PIN_FILE.exists() else {}
    runs, sampled, moved = {}, {}, []
    for workload, machine_name, machine in _cells(SUITE_NAMES):
        stats = run_workload(workload, machine, use_cache=False)
        digest = run_digest(workload, machine)
        runs[digest] = _exact_entry(workload, machine_name, stats)
        old = pinned.get("runs", {}).get(digest)
        if old and old["stats_sha256"] != runs[digest]["stats_sha256"]:
            moved.append(
                f"{workload.name} on {machine_name} "
                f"(cycles {old['cycles']} -> {stats.cycles}): "
                f"bump ENGINE_SCHEMA_VERSION"
            )
    config = SamplingConfig()
    for workload, machine_name, machine in _cells([SAMPLED_SUITE]):
        result = run_workload_sampled(workload, machine, config,
                                      use_cache=False)
        digest = sampled_run_digest(workload, machine, config)
        sampled[digest] = _sampled_entry(workload, machine_name, result)
        old = pinned.get("sampled", {}).get(digest)
        if old and old != sampled[digest]:
            moved.append(
                f"sampled {workload.name} on {machine_name} (cpi "
                f"{old['estimated_cpi']} -> {result.estimated_cpi}): "
                f"bump SAMPLING_SCHEMA_VERSION"
            )
    if moved:
        print("output moved under an unchanged digest:", file=sys.stderr)
        for line in moved:
            print(f"  {line}", file=sys.stderr)
        print(f"bump the named schema, then run this again; {PIN_FILE.name} "
              f"is unchanged", file=sys.stderr)
        return 1
    payload = {
        "engine_schema": ENGINE_SCHEMA_VERSION,
        "sampling_schema": SAMPLING_SCHEMA_VERSION,
        "runs": runs,
        "sampled": sampled,
    }
    PIN_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"pinned {len(runs)} runs and {len(sampled)} sampled estimates "
          f"in {PIN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
