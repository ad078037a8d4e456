"""SimPoint-style sampled simulation (see docs/sampling.md).

Long workloads are made cheap by splitting simulation into:

1. a **fast-forward** pass (:mod:`.fastforward`), an architectural
   interpreter over the detailed engine's compiled per-instruction
   handlers, that profiles basic-block vectors per fixed-length
   instruction interval,
2. a deterministic **k-means** clustering of those vectors
   (:mod:`.kmeans`) that picks representative intervals and weights,
3. **detailed windows**: the cycle-level engine replayed from
   architectural checkpoints at the representatives' boundaries, and
4. a **weighted extrapolation** (:mod:`.extrapolate`) of the window
   statistics into a whole-program estimate with an error bound.

The public entry points live in :mod:`.runner`.

The package loads :mod:`.fastforward` only.  The other modules' names
resolve on first access (PEP 562), so a caller that only fast-forwards
(table 3's task traces, hence every ``repro.experiments`` import) does
not load the runner, k-means and extrapolation code.
"""

import importlib
import sys
import types

from .fastforward import (
    Checkpoint,
    FastForwardExecutor,
    Interval,
    WarmupState,
    basic_blocks,
    collect_checkpoints,
    profile_intervals,
)

# The module of each public name loaded on first access.
_HOME = {
    "ClusterResult": "kmeans",
    "cluster_intervals": "kmeans",
    "kmeans": "kmeans",
    "SampledRunResult": "extrapolate",
    "extrapolate": "extrapolate",
    "SAMPLING_SCHEMA_VERSION": "runner",
    "SamplingConfig": "runner",
    "SamplingPlan": "runner",
    "plan_program_sampled": "runner",
    "run_program_sampled": "runner",
    "run_workload_sampled": "runner",
}

__all__ = [
    "Checkpoint",
    "ClusterResult",
    "FastForwardExecutor",
    "Interval",
    "SAMPLING_SCHEMA_VERSION",
    "SampledRunResult",
    "SamplingConfig",
    "SamplingPlan",
    "WarmupState",
    "basic_blocks",
    "cluster_intervals",
    "collect_checkpoints",
    "extrapolate",
    "kmeans",
    "plan_program_sampled",
    "profile_intervals",
    "run_program_sampled",
    "run_workload_sampled",
]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Importing a submodule binds it on the package under its own name,
    which ``kmeans`` and ``extrapolate`` share with a function of theirs:
    the function keeps the name, as the package has always exported."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, types.ModuleType) and name in _HOME:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
