"""Experiment harnesses: one module per paper figure/table.

Every module declares an :class:`~repro.experiments.spec.ExperimentSpec`
and registers it in :mod:`repro.experiments.registry` when imported
below; run one with :func:`~repro.experiments.registry.run_experiment`
(``repro exp run NAME``).  ``tools/generate_experiments_md.py`` runs
them all and checks the paper's claims.  See docs/experiments.md for
the spec/registry architecture.

================  ==========================================
paper artefact    module (registry name)
================  ==========================================
figure 1          :mod:`repro.experiments.fig1_ipc_width` (fig1)
figure 6          :mod:`repro.experiments.fig6_speedup` (fig6)
figure 7          :mod:`repro.experiments.fig7_utilization` (fig7)
figure 8          :mod:`repro.experiments.fig8_commit` (fig8)
figure 9          :mod:`repro.experiments.fig9_ssb_size` (fig9)
figure 10         :mod:`repro.experiments.fig10_granule` (fig10)
table 2           :mod:`repro.experiments.table2_sources` (table2)
table 3           :mod:`repro.experiments.table3_comparison` (table3)
section 6.5       :mod:`repro.experiments.packing_ablation` (packing)
section 6.6       :mod:`repro.experiments.assoc_sensitivity` (assoc)
section 6.8       :mod:`repro.experiments.area_overheads` (area)
section 6.3       :mod:`repro.experiments.loops_report` (loops)
ablations         :mod:`repro.experiments.ablations` (threadlets, bloom)
================  ==========================================
"""

from .runner import (
    BenchmarkRun,
    PhaseRun,
    clear_cache,
    configure,
    default_jobs,
    run_benchmark,
    run_suite,
    run_workload,
    suite_geomean,
)
from . import metrics  # noqa: F401
from .spec import (
    CellCounters,
    ExperimentSpec,
    Sweep,
    Variant,
    global_counters,
    reset_counters,
    run_rows,
)
from . import registry
from .registry import (
    ExperimentRun,
    run_all,
    run_experiment,
    write_artifacts,
)
from .fig1_ipc_width import Fig1Result
from .fig6_speedup import Fig6Result
from .fig7_utilization import Fig7Result, in_region_geomean_speedup
from .fig8_commit import Fig8Result
from .fig9_ssb_size import Fig9Result, machine_with_ssb_size
from .fig10_granule import Fig10Result, machine_with_granule
from .table2_sources import Table2Result
from .table3_comparison import Table3Result
from .packing_ablation import PackingResult
from .assoc_sensitivity import AssocResult
from .area_overheads import OverheadResult
from .loops_report import LoopsReport
from .ablations import (
    BloomAblationResult,
    ThreadletSweepResult,
    machine_with_threadlets,
)

__all__ = [
    "BenchmarkRun",
    "PhaseRun",
    "clear_cache",
    "configure",
    "default_jobs",
    "run_benchmark",
    "run_suite",
    "run_workload",
    "suite_geomean",
    "CellCounters", "ExperimentSpec", "Sweep", "Variant",
    "global_counters", "reset_counters", "run_rows",
    "registry", "ExperimentRun", "run_all", "run_experiment",
    "write_artifacts",
    "Fig1Result", "Fig6Result", "Fig7Result", "in_region_geomean_speedup",
    "Fig8Result", "Fig9Result", "machine_with_ssb_size",
    "Fig10Result", "machine_with_granule", "Table2Result", "Table3Result",
    "PackingResult", "AssocResult", "OverheadResult", "LoopsReport",
    "BloomAblationResult", "ThreadletSweepResult", "machine_with_threadlets",
]
