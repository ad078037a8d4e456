"""Command-line interface: ``python -m repro <command>``.

Commands
    compile FILE        compile a Frog source file and print the listing
                        and hint-insertion report
    lint FILE...        static loop-carried dependence diagnostics per
                        pragma loop (``--json`` for machine-readable
                        output; ``--validate`` compares verdicts against
                        observed conflict squashes over the suites)
    advise FILE...      static loop-profitability advice: ranked loops
                        with squash risk, predicted trip/epoch shape and
                        stable advise-* reason ids (``--validate`` scores
                        the predictions over the suites)
    run FILE            compile and simulate a Frog file on the baseline
                        and LoopFrog cores, printing the comparison
    suite NAME          run a SPEC stand-in suite (figure-6 style output)
    exp ACTION          the declarative experiment registry
                        (docs/experiments.md): ``exp list`` shows every
                        registered spec, ``exp run NAME...`` executes a
                        subset, ``exp all`` regenerates everything in one
                        invocation, simulating each distinct (workload,
                        config) cell at most once; ``--json`` emits the
                        machine-readable payload and ``--out DIR`` writes
                        per-experiment artifacts plus a manifest
    sample WORKLOAD     SimPoint-style sampled simulation of one workload
                        (docs/sampling.md), its windows one after another;
                        ``--verify TOL`` also runs the full detailed
                        simulation and fails if the sampled CPI estimate
                        is off by more than TOL
    workloads           list available benchmarks and their phases
    results CMD         persistent result store maintenance (stats, gc)
    trace FILE          compile + simulate a Frog file with structured
                        tracing enabled and summarize the timeline; given
                        an existing ``.jsonl`` timeline, summarize it

``suite``, ``exp run|all``, ``lint`` and ``advise`` accept ``--jobs N``
(simulate cells across N processes, one pool per invocation; default:
all cores).  They and ``sample`` accept ``--no-store`` (skip the
persistent result cache) and ``--store-dir DIR`` (cache location,
default ``.repro-results/``).  ``suite`` additionally accepts
``--sampled`` to estimate every phase with sampled simulation instead of
running it in full.

The global ``--engine-mode MODE`` option (before the subcommand) pins
the detailed engine's execution mode — ``reference`` or ``episode``
(the default).  Both modes are bit-identical in cycles and statistics
(docs/microarchitecture.md); the flag only trades simulation speed for
debuggability.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from .analysis import format_bars
from .compiler import CompileOptions, compile_frog
from .errors import ReproError
from .uarch import BaselineCore, LoopFrogCore, SparseMemory


def _parse_regs(text: Optional[str]) -> Dict[str, float]:
    """Parse ``r1=100,f1=2.5`` into an initial-register dict."""
    regs: Dict[str, float] = {}
    if not text:
        return regs
    for pair in text.split(","):
        name, _, value = pair.partition("=")
        name = name.strip()
        if not name or not value:
            raise ReproError(f"bad register assignment {pair!r}")
        regs[name] = float(value) if name.startswith("f") else int(value, 0)
    return regs


def cmd_compile(args: argparse.Namespace) -> int:
    with open(args.file) as fh:
        source = fh.read()
    options = CompileOptions(insert_hints=not args.no_hints,
                             mark_all_loops=args.mark_all_loops)
    result = compile_frog(source, options)
    if result.hint_reports:
        print("hint insertion:")
        for report in result.hint_reports:
            if report.annotated:
                print(f"  {report.header}: annotated (region {report.region})")
            else:
                print(f"  {report.header}: rejected — {report.message}")
        print()
    if args.ir:
        print(result.ir)
        print()
    print(result.program.disassemble())
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .analysis.lint import (
        lint_source,
        render_lint,
        render_validation,
        validate_suites,
    )

    if args.validate:
        _apply_runner_options(args)
        suites = args.suite.split(",") if args.suite else None
        report = validate_suites(suites=suites)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(render_validation(report))
        return 1 if report.failures() else 0

    if not args.files:
        raise ReproError("lint needs Frog files (or --validate)")
    payload = []
    for path in args.files:
        with open(path) as fh:
            source = fh.read()
        lint = lint_source(
            source, path=path, entry=args.entry,
            granule_bytes=args.granule,
        )
        if args.json:
            payload.append(lint.to_dict())
        else:
            print(render_lint(lint))
    if args.json:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    import json

    from .analysis.advise import (
        advise_source,
        render_advice,
        render_advise_validation,
        validate_advise,
    )

    if args.validate:
        _apply_runner_options(args)
        suites = args.suite.split(",") if args.suite else None
        report = validate_advise(suites=suites)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(render_advise_validation(report))
        return 1 if report.failures() else 0

    if not args.files:
        raise ReproError("advise needs Frog files (or --validate)")
    payload = []
    for path in args.files:
        with open(path) as fh:
            source = fh.read()
        advice = advise_source(source, path=path, entry=args.entry)
        if args.json:
            payload.append(advice.to_dict())
        else:
            print(render_advice(advice))
    if args.json:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    with open(args.file) as fh:
        source = fh.read()
    result = compile_frog(source)
    regs = _parse_regs(args.regs)

    def simulate(core):
        return core.run(result.program, SparseMemory(), dict(regs),
                        max_cycles=args.max_cycles)

    base = simulate(BaselineCore())
    print("baseline:")
    print("  " + base.stats.summary().replace("\n", "\n  "))
    if not args.baseline_only:
        frog = simulate(LoopFrogCore())
        print("LoopFrog:")
        print("  " + frog.stats.summary().replace("\n", "\n  "))
        print(f"speedup: {base.stats.cycles / frog.stats.cycles:.2f}x")
    return 0


def _check_store_dir(store_dir: Optional[str]) -> None:
    """Reject a store path that collides with an existing non-directory."""
    if store_dir and os.path.exists(store_dir) and not os.path.isdir(store_dir):
        raise ReproError(
            f"store dir {store_dir!r} exists and is not a directory"
        )


def _apply_runner_options(args: argparse.Namespace) -> None:
    """Translate --jobs/--no-store/--store-dir into runner/store defaults.

    Setting module-wide defaults (rather than threading parameters) means
    everything that reaches the runner — ``run_all``, ``run_suite``, the
    lint/advise validation — picks up the requested parallelism and store.
    """
    from . import experiments
    from .results import ResultStore, set_default_store

    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 0:
        raise ReproError(
            f"--jobs must be >= 0 (0 means all cores), got {jobs}"
        )
    if getattr(args, "no_store", False):
        set_default_store(None)
    elif getattr(args, "store_dir", None):
        _check_store_dir(args.store_dir)
        set_default_store(ResultStore(args.store_dir))
    if hasattr(args, "jobs"):
        experiments.configure(jobs=jobs or os.cpu_count())


def _parse_only(text: Optional[str],
                suite_names: List[str]) -> Optional[List[str]]:
    """Split ``--only NAMES``, rejecting names that match no benchmark of
    the given suites before anything is simulated."""
    from .workloads import suite

    if not text:
        return None
    only = text.split(",")
    known = list(dict.fromkeys(
        b.name for name in suite_names for b in suite(name)
    ))
    unknown = [name for name in only if name not in known]
    if unknown:
        raise ReproError(
            f"unknown benchmark(s) {', '.join(unknown)}; choose from: "
            f"{', '.join(known)}"
        )
    return only


def cmd_suite(args: argparse.Namespace) -> int:
    from .experiments import run_suite, suite_geomean
    from .workloads import available_suites

    name = args.name
    if args.spec:
        from .workloads.spec import SuiteSpec, load_spec_file, register_spec_suite

        document = load_spec_file(args.spec)
        if not isinstance(document, SuiteSpec):
            raise ReproError(
                f"{args.spec}: --spec needs a suite document "
                f"('suite:' + 'benchmarks:'), not bare workload specs"
            )
        register_spec_suite(document)
        name = name or document.name
    if not name:
        raise ReproError("suite needs a name (or --spec FILE)")
    if name not in available_suites():
        raise ReproError(
            f"unknown suite {name!r}; choose from: "
            f"{', '.join(available_suites())}"
        )
    only = _parse_only(args.only, [name])
    _apply_runner_options(args)
    runs = run_suite(name, only=only, sampling=True if args.sampled else None)
    items = [(r.name, r.speedup_percent)
             for r in sorted(runs, key=lambda r: -r.speedup)]
    geomean = (suite_geomean(runs) - 1) * 100
    mode = " (sampled)" if args.sampled else ""
    print(format_bars(items, title=f"{name}: whole-program speedup"
                                   f"{mode} (geomean {geomean:+.1f}%)"))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    from .experiments import runner
    from .sampling.runner import SamplingConfig, run_workload_sampled
    from .uarch.config import default_machine
    from .workloads import get_workload

    _apply_runner_options(args)
    workload = get_workload(args.workload)
    machine = default_machine()
    config = SamplingConfig(
        interval_length=args.interval_length,
        max_clusters=args.max_clusters,
        seed=args.seed,
    )
    result = run_workload_sampled(workload, machine, config)
    cached = " (cached)" if result.cached else ""
    print(f"workload:            {args.workload}{cached}")
    print(f"total instructions:  {result.total_instructions:,}")
    print(f"intervals:           {result.num_intervals} "
          f"x {result.interval_length:,} instructions")
    print(f"clusters:            {result.num_clusters}")
    print(f"detailed simulation: {result.detailed_instructions:,} "
          f"instructions ({result.detailed_fraction:.1%} of total)")
    print(f"fast-forward rate:   "
          f"{result.ff_instructions_per_second:,.0f} instr/s")
    print(f"estimated CPI:       {result.estimated_cpi:.4f} "
          f"± {result.error_bound:.2%} (95% CI)")
    print(f"estimated cycles:    {result.estimated_cycles:,}")
    if args.verify is not None:
        full = runner.run_workload(workload, machine)
        full_cpi = full.cycles / max(1, full.arch_instructions)
        err = (result.estimated_cpi - full_cpi) / full_cpi if full_cpi else 0.0
        print(f"full-detail CPI:     {full_cpi:.4f}")
        print(f"CPI error:           {err:+.2%} "
              f"(tolerance ±{args.verify:.2%})")
        if abs(err) > args.verify:
            print("verification FAILED", file=sys.stderr)
            return 1
        print("verification passed")
    return 0


def cmd_exp(args: argparse.Namespace) -> int:
    import json

    from .experiments import registry
    from .experiments.spec import global_counters, reset_counters

    if args.action == "list":
        if args.json:
            print(json.dumps([
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    "title": spec.title,
                    "suites": list(spec.suites),
                    "variants": [v.label for v in spec.variants],
                    "description": spec.description,
                }
                for spec in registry.specs()
            ], indent=2))
            return 0
        for spec in registry.specs():
            axes = f"{len(spec.suites)} suite(s) x {len(spec.variants)} variant(s)"
            print(f"{spec.name:12s} {spec.kind:9s} {axes:26s} {spec.title}")
        return 0

    names_to_run = registry.names() if args.action == "all" else args.names
    # Resolve every name, and every --only benchmark, before simulating;
    # an experiment left with no benchmark has nothing to derive from.
    specs = [registry.get(name) for name in names_to_run]
    only = _parse_only(args.only, [s for spec in specs for s in spec.suites])
    if only is not None:
        from .workloads import suite

        empty = [
            spec.name for spec in specs
            if not any(b.name in only for s in spec.suites for b in suite(s))
        ]
        if empty:
            raise ReproError(
                f"--only {args.only} selects no benchmark of "
                f"{', '.join(empty)}"
            )
    _apply_runner_options(args)
    reset_counters()
    runs = registry.run_all(
        names_to_run, only=only, sampling=True if args.sampled else None
    )
    if args.out:
        manifest = registry.write_artifacts(runs, args.out)
        print(f"wrote {len(runs)} experiment(s) to {args.out} "
              f"(manifest: {manifest})", file=sys.stderr)
    if args.json:
        payload = [run.to_json() for run in runs]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2, sort_keys=True))
    else:
        for run in runs:
            print(run.render())
            print()
        cells = global_counters().to_dict()
        print(f"cells: {cells['total']} total, {cells['cached']} cached, "
              f"{cells['simulated']} simulated")
    return 0


def cmd_results(args: argparse.Namespace) -> int:
    from .results import DEFAULT_STORE_DIR, ResultStore

    _check_store_dir(args.store_dir)
    store = ResultStore(args.store_dir or DEFAULT_STORE_DIR)
    if args.action == "stats":
        summary = store.stats()
        print(f"store:    {store.root}")
        print(f"records:  {summary.records}")
        print(f"bytes:    {summary.total_bytes}")
        print(f"corrupt:  {summary.corrupt}")
        for schema, count in sorted(summary.by_schema.items()):
            marker = " (current)" if schema == store.schema else " (stale)"
            print(f"schema {schema}: {count}{marker}")
    else:  # gc
        removed = store.gc(purge=args.purge)
        what = "all records" if args.purge else "stale/corrupt records"
        print(f"removed {removed} {what} from {store.root}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs.metrics import default_registry, format_snapshot
    from .obs.tracing import read_jsonl, summarize_records, trace_scope

    if args.file.endswith(".jsonl"):
        print(summarize_records(read_jsonl(args.file)))
        return 0

    with open(args.file) as fh:
        source = fh.read()
    regs = _parse_regs(args.regs)
    with trace_scope() as tracer:
        result = compile_frog(source)
        core = BaselineCore() if args.baseline else LoopFrogCore()
        sim = core.run(result.program, SparseMemory(), dict(regs),
                       max_cycles=args.max_cycles)
    if args.out:
        count = tracer.write_jsonl(args.out)
        print(f"wrote {count} records to {args.out}")
        print()
    print(tracer.summary())
    if args.metrics:
        print()
        print("metrics:")
        print(format_snapshot(default_registry().collect(sim.stats, "uarch")))
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from .workloads import available_suites, suite

    if args.action == "gen":
        return _cmd_workloads_gen(args)

    for suite_name in available_suites():
        print(f"{suite_name}:")
        for bench in suite(suite_name):
            flag = "profitable" if bench.profitable else "no-speedup"
            phases = ", ".join(
                f"{w.name} (w={weight:.2f})" for w, weight in bench.phases
            )
            print(f"  {bench.name:14s} [{flag:10s}] {phases}")
        print()
    return 0


def _cmd_workloads_gen(args: argparse.Namespace) -> int:
    """``repro workloads gen SPEC``: materialize spec-defined workloads."""
    from .workloads.spec import SuiteSpec, build_suite, load_spec_file

    if not args.spec:
        raise ReproError("workloads gen needs a spec file argument")
    document = load_spec_file(args.spec)
    if isinstance(document, SuiteSpec):
        benchmarks = build_suite(document)
        print(f"suite {document.name}: {len(benchmarks)} benchmark(s)")
        workloads = []
        for bench in benchmarks:
            phases = ", ".join(
                f"{w.name} (w={weight:.2f})" for w, weight in bench.phases
            )
            print(f"  {bench.name:14s} {phases}")
            workloads.extend(w for w, _ in bench.phases)
    else:
        workloads = [spec.instantiate() for spec in document]
    print()
    for workload in workloads:
        program = workload.program
        hinted = sum(
            1 for r in workload.compiled().hint_reports if r.annotated
        )
        print(f"{workload.name:24s} seed={workload.seed:<8d} "
              f"{len(program.instructions):5d} instr, "
              f"{hinted} hinted loop(s)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for workload in workloads:
            path = os.path.join(args.out, f"{workload.name}.frog")
            with open(path, "w") as fh:
                fh.write(workload.source)
        print(f"\nwrote {len(workloads)} .frog file(s) to {args.out}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .fuzz import FuzzConfig, load_corpus, run_fuzz, write_corpus
    from .fuzz.corpus import DEFAULT_CORPUS_DIR, replay_entry

    corpus_dir = args.corpus or DEFAULT_CORPUS_DIR

    if args.replay:
        entries = load_corpus(corpus_dir)
        failures = 0
        for entry in entries:
            ok, message = replay_entry(entry)
            status = "ok" if ok else "FAIL"
            print(f"{status:4s} {entry.name}: {message}")
            if not ok:
                failures += 1
        print(f"replayed {len(entries)} corpus entr(ies), "
              f"{failures} failure(s)")
        return 1 if failures else 0

    if args.budget < 1:
        raise ReproError(f"--budget must be >= 1, got {args.budget}")
    if args.max_mutations < 0:
        raise ReproError(
            f"--max-mutations must be >= 0, got {args.max_mutations}"
        )
    config = FuzzConfig(
        seed=args.seed, budget=args.budget,
        max_mutations=args.max_mutations,
    )
    log = None if args.json else print
    report = run_fuzz(config, log=log)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        counts = ", ".join(
            f"{name}={count}"
            for name, count in sorted(report.oracle_counts.items())
        ) or "none"
        print(f"seed {report.seed}, budget {report.budget}: "
              f"{report.cases} case(s), {report.executions} execution(s), "
              f"{report.crashes} crash(es)")
        print(f"oracle hits: {counts}")
        print(f"survivors: {len(report.survivors)} unique "
              f"({report.programs_per_second:.0f} programs/s)")
    if args.write:
        paths = write_corpus(report.survivors, corpus_dir)
        print(f"wrote {len(paths)} corpus file(s) to {corpus_dir}",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LoopFrog reproduction: compile, simulate, reproduce.",
    )
    from .uarch.core import ENGINE_MODES

    parser.add_argument(
        "--engine-mode", choices=ENGINE_MODES, metavar="MODE",
        help="detailed-engine execution mode: "
             f"{'|'.join(ENGINE_MODES)} (default: episode; both "
             "modes are bit-identical, so this only affects speed; "
             "overrides REPRO_ENGINE_MODE)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a Frog file")
    p.add_argument("file")
    p.add_argument("--no-hints", action="store_true",
                   help="skip LoopFrog hint insertion")
    p.add_argument("--mark-all-loops", action="store_true",
                   help="annotate every loop regardless of pragmas")
    p.add_argument("--ir", action="store_true", help="also print the IR")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="simulate a Frog file on both cores")
    p.add_argument("file")
    p.add_argument("--regs", help="initial registers, e.g. r1=0x1000,r2=64")
    p.add_argument("--baseline-only", action="store_true")
    p.add_argument("--max-cycles", type=int, default=50_000_000)
    p.set_defaults(func=cmd_run)

    def add_store_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-store", action="store_true",
                       help="do not read or write the persistent result store")
        p.add_argument("--store-dir", metavar="DIR",
                       help="result store location (default: .repro-results)")

    def add_runner_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="simulate across N processes (default: all cores)")
        add_store_options(p)

    p = sub.add_parser(
        "lint",
        help="static loop-carried dependence diagnostics for Frog files",
    )
    p.add_argument("files", nargs="*",
                   help="Frog source files to analyse")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--entry", default="main",
                   help="entry function name (default: main)")
    p.add_argument("--granule", type=int, default=4, metavar="BYTES",
                   help="conflict-detector granule assumed by the "
                        "analysis (default: 4)")
    p.add_argument("--validate", action="store_true",
                   help="run the workload suites and compare static "
                        "verdicts against observed conflict squashes")
    p.add_argument("--suite",
                   help="with --validate: comma-separated suite names "
                        "(default: all)")
    add_runner_options(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "advise",
        help="static loop-profitability advice (ranked loops, squash "
             "risk, predicted epoch shape)",
    )
    p.add_argument("files", nargs="*",
                   help="Frog source files to advise on")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--entry", default="main",
                   help="entry function name (default: main)")
    p.add_argument("--validate", action="store_true",
                   help="score profitability predictions against observed "
                        "squashes and the analyze-policy delta over the "
                        "suites")
    p.add_argument("--suite",
                   help="with --validate: comma-separated suite names "
                        "(default: all)")
    add_runner_options(p)
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("suite", help="run a SPEC stand-in or spec-file suite")
    p.add_argument("name", nargs="?",
                   help="built-in suite (spec2017, spec2006, longrun) or a "
                        "suite registered via --spec")
    p.add_argument("--spec", metavar="FILE",
                   help="register the suite defined in this spec file "
                        "(docs/workloads.md) before running")
    p.add_argument("--only", help="comma-separated benchmark names")
    p.add_argument("--sampled", action="store_true",
                   help="estimate phases with sampled simulation "
                        "(docs/sampling.md) instead of running them fully")
    add_runner_options(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "sample",
        help="sampled simulation of one workload (SimPoint-style)",
    )
    p.add_argument("workload", help="phase name, e.g. imagick_conv")
    p.add_argument("--interval-length", type=int, default=8000, metavar="N",
                   help="instructions per profiling interval (default 8000)")
    p.add_argument("--max-clusters", type=int, default=8, metavar="K",
                   help="maximum k-means clusters (default 8)")
    p.add_argument("--seed", type=int, default=42,
                   help="clustering seed (default 42)")
    p.add_argument("--verify", type=float, default=None, metavar="TOL",
                   help="also run the full detailed simulation and fail if "
                        "the relative CPI error exceeds TOL (e.g. 0.05)")
    add_store_options(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "exp",
        help="declarative experiment registry (list, run, all)",
    )
    exp_sub = p.add_subparsers(dest="action", required=True)

    def add_exp_options(ep: argparse.ArgumentParser) -> None:
        ep.add_argument("--only", metavar="NAMES",
                        help="comma-separated benchmark names")
        ep.add_argument("--sampled", action="store_true",
                        help="estimate phases with sampled simulation")
        ep.add_argument("--json", action="store_true",
                        help="print the machine-readable payload instead "
                             "of rendered text")
        ep.add_argument("--out", metavar="DIR",
                        help="write per-experiment .txt/.json artifacts "
                             "plus manifest.json to DIR")
        add_runner_options(ep)

    ep = exp_sub.add_parser("list", help="list registered experiments")
    ep.add_argument("--json", action="store_true",
                    help="machine-readable listing")
    ep.set_defaults(func=cmd_exp)

    ep = exp_sub.add_parser("run", help="run selected experiments")
    ep.add_argument("names", nargs="+", metavar="NAME",
                    help="experiment names (see 'exp list')")
    add_exp_options(ep)
    ep.set_defaults(func=cmd_exp)

    ep = exp_sub.add_parser(
        "all", help="run every registered experiment in one invocation"
    )
    add_exp_options(ep)
    ep.set_defaults(func=cmd_exp)

    p = sub.add_parser(
        "workloads",
        help="list benchmarks and phases, or materialize a spec file",
    )
    p.add_argument("action", nargs="?", choices=["list", "gen"],
                   default="list",
                   help="'list' (default) or 'gen SPEC' to instantiate "
                        "workloads from a spec file (docs/workloads.md)")
    p.add_argument("spec", nargs="?", metavar="SPEC",
                   help="with gen: the spec .yaml file")
    p.add_argument("--out", metavar="DIR",
                   help="with gen: also write one .frog source per workload")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser(
        "fuzz",
        help="seed-pinned mutation fuzzing of generated Frog programs",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="session seed (default 0); the (seed, budget) pair "
                        "replays byte-identically")
    p.add_argument("--budget", type=int, default=50, metavar="N",
                   help="candidate programs to generate (default 50)")
    p.add_argument("--max-mutations", type=int, default=3, metavar="N",
                   help="mutations applied per candidate, 0..N (default 3)")
    p.add_argument("--corpus", metavar="DIR",
                   help="corpus directory (default tests/fuzz_corpus)")
    p.add_argument("--write", action="store_true",
                   help="write minimized survivors into the corpus")
    p.add_argument("--replay", action="store_true",
                   help="replay the corpus instead of fuzzing: every "
                        "entry's oracle must fire again on both engines")
    p.add_argument("--json", action="store_true",
                   help="machine-readable session report")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "trace",
        help="trace one run (or summarize an existing .jsonl timeline)",
    )
    p.add_argument("file",
                   help="Frog source file, or a .jsonl timeline to summarize")
    p.add_argument("--regs", help="initial registers, e.g. r1=0x1000,r2=64")
    p.add_argument("--baseline", action="store_true",
                   help="trace the baseline core instead of LoopFrog")
    p.add_argument("--max-cycles", type=int, default=50_000_000)
    p.add_argument("--out", metavar="FILE",
                   help="write the JSON-lines timeline to FILE")
    p.add_argument("--metrics", action="store_true",
                   help="also print the metrics snapshot of the traced run")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("results", help="persistent result store maintenance")
    p.add_argument("action", choices=["stats", "gc"])
    p.add_argument("--store-dir", metavar="DIR",
                   help="result store location (default: .repro-results)")
    p.add_argument("--purge", action="store_true",
                   help="with gc: delete every record, not just stale ones")
    p.set_defaults(func=cmd_results)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .experiments import runner
    from .results import get_default_store, set_default_store
    from .uarch import core

    parser = build_parser()
    args = parser.parse_args(argv)
    # --jobs, --no-store, --store-dir and --engine-mode set process-wide
    # defaults for this command only: a caller in the same process, such
    # as a test, gets its own back when the command returns or raises.
    saved = (runner.default_jobs(), get_default_store(), core._mode_override)
    try:
        if getattr(args, "engine_mode", None):
            core.set_engine_mode(args.engine_mode)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        jobs, store, mode = saved
        runner.configure(jobs=jobs)
        set_default_store(store)
        core.set_engine_mode(mode)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
