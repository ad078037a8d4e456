"""The four workloads as one child process runs them.

Each workload has a set-up (imports, suite and registry construction, and
turning the seed into inputs), one timed operation driven through public
``repro`` APIs, and an untimed summary of the operation's outputs that
feeds the correctness checks.  Nothing here imports ``repro`` at module
level: the child times those imports as set-up.

Seeds.  Every seed runs the same programs, so every seed measures the same
amount of work.  Seed 0 keeps each program's pinned input data; seed
S >= 1 replaces the ``seed`` field of every workload phase (the input-data
seed of the public ``Workload`` dataclass) with a value drawn from S, so
S >= 1 are held-out inputs.  The fuzz session is pinned for every seed:
sessions of other seeds differ in cost by more than the benchmark's
bound (measured 26-36 executions/s across eight 10 s samples).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional

#: The exp-* subset: three spec2017 and two spec2006 benchmarks.  Both
#: suites are always present: fig6 takes a geomean per suite and raises on
#: an empty one.
PINNED = (
    ("spec2017", ("imagick", "omnetpp", "x264")),
    ("spec2006", ("libquantum", "h264ref")),
)
SUBSET = [name for _, names in PINNED for name in names]

#: The fuzz-short session (the one BENCH_engine.json has always timed).
FUZZ_SEED = 3
FUZZ_BUDGET = 16


def data_seed(seed: int, phase: str) -> Optional[int]:
    """Input-data seed for one workload phase under benchmark seed ``seed``
    (None: keep the pinned one)."""
    if seed == 0:
        return None
    return random.Random(f"{seed}:{phase}").randrange(1 << 31)


def reseed(benchmarks, seed: int) -> None:
    for benchmark in benchmarks:
        for workload, _weight in benchmark.phases:
            value = data_seed(seed, workload.name)
            if value is not None:
                workload.seed = value


def file_digests(root: Path) -> Dict[str, str]:
    """sha256 of every file under ``root``, by relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def store_records(root: Path) -> List[dict]:
    """The records of a result store directory (its documented layout:
    one JSON file per record under two-hex-digit shard directories)."""
    return [json.loads(path.read_text()) for path in sorted(root.glob("*/*.json"))]


def _digest(value) -> str:
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class ExpAll:
    """exp-cold / exp-warm: every registered experiment over SUBSET (what
    ``registry.run_all`` runs), then the artifacts.  Cold passes start
    from an empty store; warm passes read the store a cold pass (the
    fixture) filled."""

    item = "simulated instructions"

    def __init__(self, warm: bool):
        self.warm = warm
        if warm:
            self.item = "cells"

    def setup(self, seed: int) -> None:
        from repro.experiments import global_counters, registry
        from repro.results import ResultStore, set_default_store
        from repro.workloads.suites import suite

        for suite_name, _ in PINNED:
            reseed(suite(suite_name), seed)
        self.registry = registry
        self.counters = global_counters
        self.store_type = ResultStore
        self.set_store = set_default_store
        self.attempted = len(registry.names())

    def prepare(self, workdir: Path, fixture: Optional[Path]) -> None:
        self.store_dir = (fixture if self.warm else workdir) / "store"
        self.out_dir = workdir / "artifacts"
        self.records_before = len(store_records(self.store_dir))
        self.set_store(self.store_type(self.store_dir))

    def op(self):
        # One experiment at a time, as ``repro exp all`` runs them, so an
        # experiment that raises fails alone and the pass goes on.
        runs, self.raised = [], []
        for name in self.registry.names():
            try:
                runs.append(self.registry.run_experiment(name, only=SUBSET, jobs=1))
            except Exception:
                traceback.print_exc()
                self.raised.append(f"{name} raised {sys.exc_info()[0].__name__}")
        self.registry.write_artifacts(runs, str(self.out_dir))

    def summarize(self, _output) -> dict:
        artifacts = file_digests(self.out_dir)
        counters = self.counters()
        cells = {
            "experiments.cells_total": counters.cells_total,
            "experiments.cells_cached": counters.cells_cached,
            "experiments.cells_simulated": counters.cells_simulated,
        }
        records = store_records(self.store_dir)
        instructions = sum(r["stats"]["arch_instructions"] for r in records)
        failures = list(self.raised)
        if self.warm and len(records) != self.records_before:
            failures.append("warm pass wrote to the result store")
        return {
            "work": counters.cells_total if self.warm else instructions,
            "failures": failures,
            "artifacts": artifacts,
            "counts": cells,
            "exact": {
                "artifacts": _digest(artifacts),
                "cells": cells,
                "store_cycles": sum(r["stats"]["cycles"] for r in records),
                "store_instructions": instructions,
            },
        }


class SampleLongrun:
    """sample-longrun: the sampled long-run suite, 4 benchmarks x 2
    machines, from an empty store."""

    item = "whole-program instructions"

    def setup(self, seed: int) -> None:
        from repro.experiments import runner
        from repro.results import ResultStore, set_default_store
        from repro.workloads.suites import suite

        self.benchmarks = suite("longrun")
        reseed(self.benchmarks, seed)
        self.runner = runner
        self.store_type = ResultStore
        self.set_store = set_default_store
        self.attempted = 2 * sum(len(b.phases) for b in self.benchmarks)

    def prepare(self, workdir: Path, fixture: Optional[Path]) -> None:
        self.store_dir = workdir / "store"
        self.set_store(self.store_type(self.store_dir))

    def op(self):
        return self.runner.run_suite("longrun", sampling=True, jobs=1)

    def summarize(self, _output) -> dict:
        estimates = {}
        for record in store_records(self.store_dir):
            extra = record.get("extra", {})
            estimates[f"{record['workload']}@{record['machine']}"] = {
                "cpi": extra["estimated_cpi"],
                "bound": extra["error_bound"],
                "instructions": extra["total_instructions"],
                "detailed": extra["detailed_instructions"],
                "cycles": record["stats"]["cycles"],
            }
        failures = []
        if len(estimates) != self.attempted:
            failures.append(
                f"{len(estimates)} sampled estimates stored, "
                f"expected {self.attempted}"
            )
        failures += [
            f"{key}: estimate not positive and finite"
            for key, e in estimates.items()
            if not (0 < e["cpi"] < float("inf") and 0 <= e["bound"] < float("inf"))
        ]
        return {
            "work": sum(e["instructions"] for e in estimates.values()),
            "failures": failures,
            "estimates": estimates,
            "counts": {},
            "exact": estimates,
        }

    def reference(self, keys: List[str]) -> Dict[str, dict]:
        """Full-detail CPI and sequential instruction count per
        ``workload@machine`` key, simulated without any cache."""
        from repro.experiments.runner import run_workload
        from repro.results.digest import machine_digest
        from repro.uarch.config import baseline_machine, default_machine

        out = {}
        for benchmark in self.benchmarks:
            for workload, _weight in benchmark.phases:
                for machine in (baseline_machine(), default_machine()):
                    key = f"{workload.name}@{machine_digest(machine)[:12]}"
                    if key not in keys:
                        continue
                    stats = run_workload(workload, machine, use_cache=False)
                    out[key] = {
                        "cpi": stats.cycles / stats.arch_instructions,
                        "instructions": (
                            stats.arch_instructions
                            + stats.spec_committed_instructions
                        ),
                    }
        return out


class FuzzShort:
    """fuzz-short: one pinned performance-fuzzing session."""

    item = "program executions"

    def setup(self, seed: int) -> None:
        from repro.fuzz import engine

        self.engine = engine
        self.config = engine.FuzzConfig(seed=FUZZ_SEED, budget=FUZZ_BUDGET)
        self.attempted = FUZZ_BUDGET

    def prepare(self, workdir: Path, fixture: Optional[Path]) -> None:
        pass

    def op(self):
        return self.engine.run_fuzz(self.config)

    def summarize(self, report) -> dict:
        # Oracle survivors are expected findings; crashes and divergence
        # from the functional executor are engine bugs.
        failures = [f"crash in case {i}" for i in range(report.crashes)]
        failures += [
            f"state_divergence hit {i}"
            for i in range(report.oracle_counts.get("state_divergence", 0))
        ]
        return {
            "work": report.executions,
            "failures": failures,
            "counts": {
                "fuzz.executions": report.executions,
                "fuzz.survivors": len(report.survivors),
            },
            "exact": _digest(report.to_dict()),
        }


WORKLOADS = {
    "exp-cold": lambda: ExpAll(warm=False),
    "exp-warm": lambda: ExpAll(warm=True),
    "sample-longrun": SampleLongrun,
    "fuzz-short": FuzzShort,
}
