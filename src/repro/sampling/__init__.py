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
"""

from .fastforward import (
    Checkpoint,
    FastForwardExecutor,
    Interval,
    WarmupState,
    basic_blocks,
    collect_checkpoints,
    profile_intervals,
)
from .kmeans import ClusterResult, cluster_intervals, kmeans
from .extrapolate import SampledRunResult, extrapolate
from .runner import (
    SAMPLING_SCHEMA_VERSION,
    SamplingConfig,
    SamplingPlan,
    plan_program_sampled,
    run_program_sampled,
    run_workload_sampled,
)

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
