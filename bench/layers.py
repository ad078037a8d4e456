"""Per-layer catalog: which public entry points the traced run wraps, the
work counts it collects, and which end-to-end metric each number should
move on which workload.

Layers are named after the ``repro`` modules.  A target is written
``module:qualname``; a class method is patched on its class, a function
is rebound everywhere ``repro.*`` holds an alias of it (see
:mod:`tracer`).  Every entry yields ``<entry>.calls`` and
``<entry>.self_s`` in the per-layer output.

Only functions called at most ~10^4 times per run are wrapped, so the
wrapper's cost stays far below the run-to-run noise; stage-level engine
attribution inside the episode monoliths needs markers in the engine
source and is out of scope here.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

ENTRIES: Dict[str, Tuple[str, ...]] = {
    "lang.parse": ("repro.lang.parser:parse",),
    "compiler.lower": ("repro.compiler.lowering:lower_module",),
    "compiler.optimize": ("repro.compiler.optimize:optimize",),
    "compiler.hints": ("repro.compiler.hints:insert_hints",),
    "compiler.regalloc": (
        "repro.compiler.regalloc:allocate",
        "repro.compiler.regalloc:apply_allocation",
    ),
    "compiler.codegen": ("repro.compiler.codegen:generate",),
    "compiler.compile": (
        "repro.compiler.pipeline:compile_frog",
        "repro.compiler.pipeline:compile_ast",
    ),
    "compiler.depanal": ("repro.compiler.depanal:analyze_function",),
    "compiler.absint": ("repro.compiler.absint:AbstractAnalysis.__init__",),
    "workloads.input": (
        "repro.workloads.base:Workload.fresh_input",
        "repro.fuzz.model:ProgramSpec.fresh_input",
    ),
    "results.digest": (
        "repro.results.digest:workload_digest",
        "repro.results.digest:run_digest",
        "repro.results.digest:sampled_run_digest",
    ),
    "results.load": (
        "repro.results.store:ResultStore.load",
        "repro.results.store:ResultStore.load_extra",
    ),
    "results.save": ("repro.results.store:ResultStore.save",),
    "engine.init": ("repro.uarch.core:Engine.__init__",),
    "engine.run": ("repro.uarch.core:Engine.run",),
    "engine.run_window": ("repro.uarch.core:Engine.run_window",),
    "engine.warmup": ("repro.uarch.core:Engine.apply_warmup",),
    "engine.core_api": ("repro.uarch.loopfrog_core:_CoreBase.run",),
    "executor.run": ("repro.uarch.executor:Executor.run",),
    "sampling.run": ("repro.sampling.runner:run_program_sampled",),
    "sampling.profile": ("repro.sampling.fastforward:profile_intervals",),
    "sampling.checkpoint": ("repro.sampling.fastforward:collect_checkpoints",),
    "sampling.cluster": ("repro.sampling.kmeans:cluster_intervals",),
    "sampling.extrapolate": ("repro.sampling.extrapolate:extrapolate",),
    "tls.extract": ("repro.tls.common:extract_tasks",),
    "tls.models": (
        "repro.tls.multiscalar:simulate_multiscalar",
        "repro.tls.stampede:simulate_stampede",
    ),
    "experiments.run": ("repro.experiments.registry:run_experiment",),
    "experiments.runner": (
        "repro.experiments.runner:run_suite",
        "repro.experiments.runner:run_benchmark",
        "repro.experiments.runner:run_workload",
    ),
    "experiments.artifacts": ("repro.experiments.registry:write_artifacts",),
    "fuzz.session": ("repro.fuzz.engine:run_fuzz",),
    "fuzz.generate": (
        "repro.fuzz.model:generate_program",
        "repro.fuzz.mutators:apply_mutations",
        "repro.fuzz.model:ProgramSpec.render",
    ),
    "fuzz.oracles": ("repro.fuzz.oracles:evaluate_case",),
    "fuzz.minimize": ("repro.fuzz.engine:minimize",),
}


# -- work counts, collected from the wrapped calls' return values -----------

def _emitted(counts, program) -> None:
    counts["compiler.instructions_emitted"] += len(program)


def _loaded(counts, stats) -> None:
    counts["results.loads"] += 1
    counts["results.hits"] += stats is not None


def _saved(counts, path) -> None:
    counts["results.bytes_written"] += path.stat().st_size


def _ran(counts, stats) -> None:
    counts["engine.sim_instructions"] += stats.arch_instructions
    counts["engine.sim_cycles"] += stats.cycles


def _ran_window(counts, window) -> None:
    counts["engine.sim_instructions"] += (
        window.warmup_instructions + window.measured_instructions
    )
    counts["engine.sim_cycles"] += window.stats.cycles


def _profiled(counts, result) -> None:
    counts["sampling.ff_instructions"] += result[1]


def _sampled(counts, result) -> None:
    counts["sampling.detailed_instructions"] += result.detailed_instructions
    counts["sampling.total_instructions"] += result.total_instructions


HOOKS: Dict[str, Callable] = {
    "repro.compiler.codegen:generate": _emitted,
    "repro.results.store:ResultStore.load": _loaded,
    "repro.results.store:ResultStore.save": _saved,
    "repro.uarch.core:Engine.run": _ran,
    "repro.uarch.core:Engine.run_window": _ran_window,
    "repro.sampling.fastforward:profile_intervals": _profiled,
    "repro.sampling.runner:run_program_sampled": _sampled,
}


# -- what each per-layer number should move ---------------------------------
#
# (end-to-end metric, workload) pairs; an entry's ``.calls`` and
# ``.self_s`` share its row.  ``bench/run.py --check`` requires a row for
# every per-layer metric in BENCHMARK.json, naming metrics and workloads
# that exist there.

_FUZZ = (("throughput", "fuzz-short"), ("wall_s", "fuzz-short"))
_COMPILE = _FUZZ + (("wall_s", "exp-warm"),)
_WARM = (("wall_s", "exp-warm"), ("throughput", "exp-warm"))
_COLD = (("wall_s", "exp-cold"), ("throughput", "exp-cold"))
_SAMPLE = (("wall_s", "sample-longrun"), ("throughput", "sample-longrun"))

MOVES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "lang.parse": _FUZZ,
    "compiler.lower": _COMPILE,
    "compiler.optimize": _COMPILE,
    "compiler.hints": _COMPILE,
    "compiler.regalloc": _COMPILE,
    "compiler.codegen": _COMPILE,
    "compiler.compile": _COMPILE,
    "compiler.instructions_emitted": _COMPILE,
    "compiler.depanal": _FUZZ,
    "compiler.absint": _FUZZ,
    "workloads.input": _COMPILE,
    "results.digest": _WARM,
    "results.load": _WARM,
    "results.hit_ratio": _WARM,
    "results.save": (("wall_s", "exp-cold"),),
    "results.bytes_written": (("wall_s", "exp-cold"),),
    "engine.init": _FUZZ,
    "engine.run": _COLD,
    "engine.run_window": _SAMPLE + (("peak_rss_mb", "sample-longrun"),),
    "engine.warmup": _SAMPLE + (("peak_rss_mb", "sample-longrun"),),
    "engine.core_api": _FUZZ,
    "engine.sim_instructions": _COLD,
    "engine.sim_cycles": _COLD,
    "engine.ns_per_instr": _COLD + _SAMPLE,
    "executor.run": _FUZZ + (("wall_s", "exp-warm"),),
    "sampling.run": _SAMPLE,
    "sampling.profile": _SAMPLE,
    "sampling.checkpoint": _SAMPLE,
    "sampling.cluster": _SAMPLE,
    "sampling.extrapolate": _SAMPLE,
    "sampling.ff_instructions": _SAMPLE,
    "sampling.ff_instr_per_s": _SAMPLE,
    "sampling.detailed_fraction": _SAMPLE,
    "tls.extract": (("wall_s", "exp-warm"),),
    "tls.models": (("wall_s", "exp-warm"),),
    "experiments.run": _WARM,
    "experiments.runner": _WARM,
    "experiments.artifacts": _WARM,
    "experiments.cells_total": _WARM,
    "experiments.cells_cached": _WARM,
    "experiments.cells_simulated": _WARM + (("wall_s", "exp-cold"),),
    "fuzz.session": _FUZZ,
    "fuzz.generate": _FUZZ,
    "fuzz.oracles": _FUZZ,
    "fuzz.minimize": _FUZZ,
    "fuzz.executions": _FUZZ,
    "fuzz.survivors": _FUZZ,
}

#: Per-layer metrics that move no end-to-end metric, with the reason.
DIAGNOSTIC: Dict[str, str] = {
    "sampling.cpi_err_pct": "accuracy of the sampled estimate against full "
                            "detail; simulated, not host, behaviour",
    "trace.unattributed_share": "harness check: share of the traced "
                                "operation outside every wrapped entry",
    "trace.overhead_pct": "harness check: cost of the wrappers themselves",
}


def row_for(metric: str) -> str:
    """The MOVES/DIAGNOSTIC key a per-layer metric name belongs to."""
    for suffix in (".calls", ".self_s"):
        if metric.endswith(suffix) and metric[: -len(suffix)] in ENTRIES:
            return metric[: -len(suffix)]
    return metric


# -- the per-layer metrics of one traced operation ---------------------------

#: Counts the workload reports from its own outputs (ops.py summaries).
WORKLOAD_COUNTS = (
    "experiments.cells_total",
    "experiments.cells_cached",
    "experiments.cells_simulated",
    "fuzz.executions",
    "fuzz.survivors",
)

#: Metrics the harness derives from a whole run (bench/run.py).
RUN_METRICS = ("sampling.cpi_err_pct",)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(layers: dict, counts: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced operation, from the tracer's
    output (``layers``) and the workload's own counts."""
    out: Dict[str, float] = {}
    for entry in ENTRIES:
        out[f"{entry}.calls"] = layers["calls"].get(entry, 0)
        out[f"{entry}.self_s"] = layers["self_s"].get(entry, 0.0)
    raw = layers["counts"]

    def get(name: str) -> float:
        return raw.get(name, 0)

    engine_s = out["engine.run.self_s"] + out["engine.run_window.self_s"]
    tracing_s = sum(layers["calls"].values()) * layers["call_cost_s"]
    out.update({
        "compiler.instructions_emitted": get("compiler.instructions_emitted"),
        "results.hit_ratio": _ratio(get("results.hits"), get("results.loads")),
        "results.bytes_written": get("results.bytes_written"),
        "engine.sim_instructions": get("engine.sim_instructions"),
        "engine.sim_cycles": get("engine.sim_cycles"),
        "engine.ns_per_instr": _ratio(
            engine_s * 1e9, get("engine.sim_instructions")
        ),
        "sampling.ff_instructions": get("sampling.ff_instructions"),
        "sampling.ff_instr_per_s": _ratio(
            get("sampling.ff_instructions"), out["sampling.profile.self_s"]
        ),
        "sampling.detailed_fraction": _ratio(
            get("sampling.detailed_instructions"),
            get("sampling.total_instructions"),
        ),
        "trace.unattributed_share": _ratio(
            layers["root_self_s"], layers["root_wall_s"]
        ),
        "trace.overhead_pct": 100 * _ratio(
            tracing_s, layers["root_wall_s"] - tracing_s
        ),
    })
    for name in WORKLOAD_COUNTS:
        out[name] = counts.get(name, 0)
    return out


def metric_names() -> Tuple[str, ...]:
    """Every per-layer metric the traced run reports."""
    empty = {"calls": {}, "self_s": {}, "counts": {},
             "root_self_s": 0.0, "root_wall_s": 0.0, "call_cost_s": 0.0}
    return tuple(op_metrics(empty, {})) + RUN_METRICS
