"""Central experiment registry: every paper artefact behind one API.

Experiment modules register their :class:`~repro.experiments.spec.ExperimentSpec`
at import time; the CLI (``repro exp list|run|all``),
``tools/generate_experiments_md.py``, the benchmark harness and the
tests all resolve experiments here by name.  :func:`run_all` runs the
selected experiments as one cell set: it plans every spec's grid points,
counts their cells, has the runner simulate every missing cell at once
(one process pool under ``--jobs N``), then assembles and derives each
experiment from the warm cache.  Each distinct (workload, config)
simulation happens at most once per invocation — the per-run
:class:`CellCounters` deltas prove it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Union

from ..errors import ReproError
from ..obs.tracing import span as _span
from . import runner as _runner
from .spec import (
    CellCounters,
    ExperimentSpec,
    assemble_sweep,
    count_cells,
    global_counters,
    plan_spec,
)

_SPECS: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (module-import-time helper).

    Re-registering the identical spec object is a no-op (modules may be
    re-imported); registering a different spec under an existing name is
    an error — experiment names are a public CLI surface.
    """
    existing = _SPECS.get(spec.name)
    if existing is not None and existing is not spec:
        raise ValueError(f"experiment {spec.name!r} already registered")
    _SPECS[spec.name] = spec
    return spec


def names() -> List[str]:
    """Registered experiment names, in registration (paper) order."""
    return list(_SPECS)


def specs() -> List[ExperimentSpec]:
    return list(_SPECS.values())


def get(name: str) -> ExperimentSpec:
    spec = _SPECS.get(name)
    if spec is None:
        raise ReproError(
            f"unknown experiment {name!r}; choose from: {', '.join(_SPECS)}"
        )
    return spec


@dataclass
class ExperimentRun:
    """One executed experiment: spec, derived result, cell accounting."""

    spec: ExperimentSpec
    result: Any
    counters: CellCounters
    sampled: bool = False

    @property
    def name(self) -> str:
        return self.spec.name

    def render(self) -> str:
        return self.result.render()

    def to_json(self) -> Dict[str, Any]:
        return {
            "experiment": self.spec.name,
            "title": self.spec.title,
            "kind": self.spec.kind,
            "sampled": self.sampled,
            "suites": list(self.spec.suites),
            "variants": [v.label for v in self.spec.variants],
            "cells": self.counters.to_dict(),
            "data": (
                self.spec.to_json(self.result)
                if self.spec.to_json is not None else {}
            ),
            "render": self.render(),
        }


def run_experiment(
    name: Union[str, ExperimentSpec],
    only: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    sampling: Any = None,
) -> ExperimentRun:
    """Execute one experiment through the sweep engine.

    ``name`` is a registered name or a spec object; to sweep narrower
    axes, pass ``dataclasses.replace(registry.get(name), suites=...,
    variants=...)``.  ``only``/``jobs``/``sampling`` are as for
    :func:`run_all`.
    """
    return run_all([name], only=only, jobs=jobs, sampling=sampling)[0]


def run_all(
    names_to_run: Optional[Iterable[Union[str, ExperimentSpec]]] = None,
    only: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    sampling: Any = None,
) -> List[ExperimentRun]:
    """Run several (default: all) experiments as one cell set.

    Plans every spec and counts its cells in plan order, then simulates
    every missing cell in one :func:`~repro.experiments.runner._prefetch`
    call, then assembles and derives each experiment.  ``only`` restricts
    benchmarks by name; ``jobs``/``sampling`` go to the runner.
    """
    specs = [
        get(name) if isinstance(name, str) else name
        for name in (list(names_to_run) if names_to_run is not None
                     else names())
    ]
    plans = [(spec, plan_spec(spec, only), CellCounters()) for spec in specs]
    needed: Dict[str, Any] = {}
    for _spec, points, counters in plans:
        count_cells(points, sampling, needed, (global_counters(), counters))
    _runner._prefetch(needed.values(), _runner._resolve_jobs(jobs), sampling)
    runs = []
    for spec, points, counters in plans:
        with _span(
            "exp.run",
            experiment=spec.name,
            suites=",".join(spec.suites),
            variants=len(spec.variants),
            sampled=bool(sampling),
        ):
            result = spec.derive(assemble_sweep(spec, points, only, sampling))
        counters.experiments += 1
        global_counters().experiments += 1
        runs.append(ExperimentRun(
            spec=spec, result=result, counters=counters,
            sampled=bool(sampling),
        ))
    return runs


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def write_artifacts(runs: List[ExperimentRun], out_dir: str) -> str:
    """Write per-experiment ``.txt``/``.json`` artifacts plus a manifest.

    Artifacts are deterministic: JSON is key-sorted, benchmark listings
    are (suite, name)-ordered, and the manifest carries no timestamps —
    repeat invocations of the same experiments diff cleanly.  Returns
    the manifest path.
    """
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    totals = CellCounters()
    for run in runs:
        text_name = f"{run.name}.txt"
        json_name = f"{run.name}.json"
        with open(os.path.join(out_dir, text_name), "w") as fh:
            fh.write(run.render() + "\n")
        with open(os.path.join(out_dir, json_name), "w") as fh:
            json.dump(run.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        totals.merge(run.counters)
        entries.append({
            "experiment": run.name,
            "title": run.spec.title,
            "kind": run.spec.kind,
            "sampled": run.sampled,
            "artifacts": {"text": text_name, "json": json_name},
            "cells": run.counters.to_dict(),
        })
    manifest = {
        "tool": "repro exp",
        "experiments": entries,
        "cells": totals.to_dict(),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
