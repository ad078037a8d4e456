#!/usr/bin/env python3
"""Rewrite the engine output pin, ``tests/engine_pin.json``.

Run:  PYTHONPATH=src python tools/pin_engine.py

Simulates every suite workload-phase (spec2017, spec2006, longrun) on the
baseline and LoopFrog machines through the runner, bypassing its cache
and store (``run_workload(..., use_cache=False)``), and records each
run's :class:`SimStats` fingerprint under its run digest.
``tests/test_engine_parity.py`` checks the same runs against the file.

The run digest carries ``ENGINE_SCHEMA_VERSION``, so a timing change must
come with a schema bump: same run digest, same SimStats.  If a run's
fingerprint moved while its digest did not, the tool writes nothing,
names those runs and exits 1.  Bump ``ENGINE_SCHEMA_VERSION``, then run
it again.
"""

import json
import sys
from pathlib import Path

from repro.experiments.runner import run_workload
from repro.results.digest import run_digest
from repro.results.serialize import stats_sha256
from repro.uarch.config import baseline_machine, default_machine
from repro.uarch.core import ENGINE_SCHEMA_VERSION
from repro.workloads.suites import SUITE_NAMES, suite

PIN_FILE = Path(__file__).resolve().parents[1] / "tests" / "engine_pin.json"
MACHINES = {"baseline": baseline_machine, "loopfrog": default_machine}


def main() -> int:
    pinned = json.loads(PIN_FILE.read_text())["runs"] if PIN_FILE.exists() else {}
    runs = {}
    moved = []
    for suite_name in SUITE_NAMES:
        for benchmark in suite(suite_name):
            for workload, _weight in benchmark.phases:
                for machine_name, make_machine in MACHINES.items():
                    machine = make_machine()
                    stats = run_workload(workload, machine, use_cache=False)
                    digest = run_digest(workload, machine)
                    entry = {
                        "workload": workload.name,
                        "machine": machine_name,
                        "cycles": stats.cycles,
                        "arch_instructions": stats.arch_instructions,
                        "stats_sha256": stats_sha256(stats),
                    }
                    old = pinned.get(digest)
                    if old and old["stats_sha256"] != entry["stats_sha256"]:
                        moved.append(
                            f"{workload.name} on {machine_name} "
                            f"(cycles {old['cycles']} -> {stats.cycles})"
                        )
                    runs[digest] = entry
    if moved:
        print("SimStats moved under an unchanged run digest:", file=sys.stderr)
        for line in moved:
            print(f"  {line}", file=sys.stderr)
        print("bump ENGINE_SCHEMA_VERSION, then run this again; "
              f"{PIN_FILE.name} is unchanged", file=sys.stderr)
        return 1
    payload = {"engine_schema": ENGINE_SCHEMA_VERSION, "runs": runs}
    PIN_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"pinned {len(runs)} runs in {PIN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
