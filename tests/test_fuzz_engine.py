"""Tests for the performance-fuzzing harness (docs/workloads.md).

Run as a module (``PYTHONPATH=src python -m tests.test_fuzz_engine``) it
rewrites ``tests/fuzz_session_pin.json``, the pinned session's report.
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

from repro.compiler import CompileOptions, compile_frog
from repro.errors import ExecutionError, FuzzError, ReproError
from repro.fuzz import (
    FuzzConfig,
    ORACLES,
    evaluate_case,
    load_corpus,
    run_fuzz,
    write_corpus,
)
from repro.fuzz import engine as fuzz_engine
from repro.fuzz.engine import (
    _shrink_candidates,
    execute_spec,
    minimize,
    session_case,
    survivor_name,
)
from repro.fuzz.model import (
    LoopSpec,
    ProgramSpec,
    StmtSpec,
    generate_program,
)
from repro.fuzz.mutators import MUTATOR_NAMES, MUTATORS, apply_mutations
from repro.fuzz.oracles import EVERYTHING, IMAGES, ORACLE_READS, VERDICTS
from repro.results.digest import program_digest
from repro.uarch.core import ENGINE_SCHEMA_VERSION


def _simple_spec(**loop_kwargs):
    defaults = dict(trip=8, stride=1, offset=0, pragma=True, nested_trip=0,
                    stmts=(StmtSpec(kind="stream"),))
    defaults.update(loop_kwargs)
    return ProgramSpec(loops=(LoopSpec(**defaults),), input_seed=5)


# ---------------------------------------------------------------------------
# The program model
# ---------------------------------------------------------------------------


def test_model_render_compiles_and_runs():
    case = execute_spec(_simple_spec())
    assert case.exec_image == case.frog_image
    assert case.stats.arch_instructions > 0


def test_model_dict_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        spec = generate_program(rng)
        assert ProgramSpec.from_dict(spec.to_dict()) == spec


def test_model_from_dict_rejects_malformed():
    with pytest.raises(FuzzError):
        ProgramSpec.from_dict("not a mapping")
    with pytest.raises(FuzzError):
        ProgramSpec.from_dict({"loops": "nope", "input_seed": 0})
    with pytest.raises(FuzzError):
        ProgramSpec.from_dict({
            "loops": [{"trip": 4, "stmts": [{"kind": "wat"}]}],
            "input_seed": 0,
        })


def test_generate_program_is_seed_deterministic():
    a = [generate_program(random.Random(11)) for _ in range(5)]
    b = [generate_program(random.Random(11)) for _ in range(5)]
    assert a[:1] == b[:1]
    assert generate_program(random.Random(11)) == a[0]


# ---------------------------------------------------------------------------
# Mutators
# ---------------------------------------------------------------------------


def test_mutators_preserve_validity():
    rng = random.Random(17)
    for _ in range(30):
        base = generate_program(rng)
        mutated, names = apply_mutations(base, rng, 3)
        assert all(n in MUTATOR_NAMES for n in names)
        # Every mutant must still serialize and re-parse.
        assert ProgramSpec.from_dict(mutated.to_dict()) == mutated


def test_each_mutator_individually():
    rng = random.Random(23)
    base = generate_program(rng)
    for name, mutator in MUTATORS.items():
        out = mutator(base, random.Random(1))
        assert isinstance(out, ProgramSpec), name


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_clean_case_fires_no_severe_oracle():
    case = execute_spec(_simple_spec())
    names = {o.oracle for o in evaluate_case(case)}
    assert "state_divergence" not in names
    assert "unsound_independent" not in names


def test_oracle_registry_is_severity_ordered():
    assert list(ORACLES)[0] == "state_divergence"


# ---------------------------------------------------------------------------
# Minimizer
# ---------------------------------------------------------------------------


def test_minimize_descends_to_fixpoint():
    # Oracle: "has a loop with trip >= 4" — minimizer should shrink
    # everything else away.
    big = ProgramSpec(
        loops=(
            LoopSpec(trip=20, stride=4, offset=8, pragma=True,
                     nested_trip=4,
                     stmts=(StmtSpec(kind="stream", scale=3),
                            StmtSpec(kind="accum", scale=2))),
            LoopSpec(trip=12, stride=1, offset=0, pragma=True,
                     nested_trip=0, stmts=(StmtSpec(kind="stream"),)),
        ),
        input_seed=5,
    )

    asked = []

    def interesting(spec):
        asked.append(spec)
        if any(loop.trip >= 4 for loop in spec.loops):
            return "trip>=4"
        return None

    small, detail, used = minimize(big, interesting, max_steps=500)
    assert detail == "trip>=4"
    assert used > 0
    # Each candidate is asked once; one met again counts as tried.
    assert asked[0] == big and len(set(asked)) == len(asked)
    assert used > len(asked) - 1
    assert len(small.loops) == 1
    loop = small.loops[0]
    assert loop.trip == 5  # smallest shrink candidate >= 4 wins
    assert loop.stride == 1 and loop.offset == 0 and loop.nested_trip == 0
    assert len(loop.stmts) == 1


def test_minimize_rejects_uninteresting_start():
    with pytest.raises(ValueError):
        minimize(_simple_spec(), lambda s: None)


# ---------------------------------------------------------------------------
# Session determinism: the reproducibility contract
# ---------------------------------------------------------------------------

# One small pinned session shared by the determinism tests below (seed 3
# finds survivors quickly); run_fuzz is deterministic, so sharing one
# report is equivalent to re-running it per test.
SESSION_CONFIG = FuzzConfig(seed=3, budget=4, max_mutations=2,
                            minimize_steps=40)

# The pinned session's whole report.  A change that keeps the engine's
# output keeps this byte for byte, however it reaches it; like
# tests/engine_pin.json it may move only with an ENGINE_SCHEMA_VERSION
# bump, and running this module rewrites it (see write_session_pin).
SESSION_PIN = Path(__file__).with_name("fuzz_session_pin.json")
REPIN_COMMAND = "PYTHONPATH=src python -m tests.test_fuzz_engine"


@pytest.fixture(scope="module")
def session_report():
    return run_fuzz(SESSION_CONFIG)


def test_session_byte_reproducible(session_report, tmp_path):
    second = run_fuzz(SESSION_CONFIG)
    assert session_report.to_dict() == second.to_dict()

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_corpus(session_report.survivors, str(dir_a))
    write_corpus(second.survivors, str(dir_b))
    files_a = sorted(p.name for p in dir_a.glob("*.yaml"))
    files_b = sorted(p.name for p in dir_b.glob("*.yaml"))
    assert files_a == files_b
    assert files_a  # the pinned seed must keep finding survivors
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_session_report_matches_pin(session_report):
    pin = json.loads(SESSION_PIN.read_text())
    assert pin["config"] == dataclasses.asdict(SESSION_CONFIG)
    assert pin["engine_schema"] == ENGINE_SCHEMA_VERSION, (
        f"the session pin predates engine schema {ENGINE_SCHEMA_VERSION}: "
        f"regenerate it with `{REPIN_COMMAND}`"
    )
    assert session_report.to_dict() == pin["report"], (
        "the pinned fuzz session's report moved under an unchanged "
        "ENGINE_SCHEMA_VERSION: the session must replay byte-identically "
        f"(after a schema bump, regenerate with `{REPIN_COMMAND}`)"
    )


def test_session_executes_each_counted_program_once(session_report,
                                                   monkeypatch):
    # A descent runs each distinct candidate once and counts a candidate
    # met again without running it, so the runs are a subset of the
    # report's counted evaluations and the report does not move.
    case_runs = []
    descents = []  # (start spec, its runs, the executions it counted)
    runs = case_runs
    execute = fuzz_engine.execute_spec
    descend = fuzz_engine.minimize

    def counting_execute(spec, *args, **kwargs):
        runs.append(spec)
        return execute(spec, *args, **kwargs)

    def counting_minimize(spec, *args, **kwargs):
        nonlocal runs
        runs = []
        try:
            result = descend(spec, *args, **kwargs)
        finally:
            descent, runs = runs, case_runs
        descents.append((spec, descent, result[2]))
        return result

    monkeypatch.setattr(fuzz_engine, "execute_spec", counting_execute)
    monkeypatch.setattr(fuzz_engine, "minimize", counting_minimize)
    report = run_fuzz(SESSION_CONFIG)
    assert descents  # minimize() ran
    assert len(case_runs) == report.cases
    assert report.executions == report.cases + sum(
        used for _, _, used in descents
    )
    for start, descent, used in descents:
        assert len(descent) <= used
        assert len(set(descent)) == len(descent)
        assert start not in descent  # its detail came with the case
    assert report.to_dict() == session_report.to_dict()
    assert report.to_dict() == json.loads(SESSION_PIN.read_text())["report"]


def test_session_counts_are_consistent(session_report):
    report = session_report
    assert report.cases == SESSION_CONFIG.budget
    assert report.executions >= report.cases
    assert report.crashes == 0
    for survivor in report.survivors:
        assert survivor.name == survivor_name(survivor.oracle,
                                              survivor.program)


def test_corpus_roundtrip(session_report, tmp_path):
    report = session_report
    paths = write_corpus(report.survivors, str(tmp_path))
    entries = load_corpus(str(tmp_path))
    assert len(entries) == len(paths)
    by_name = {s.name: s for s in report.survivors}
    for entry in entries:
        survivor = by_name[entry.name]
        assert entry.oracle == survivor.oracle
        assert entry.program == survivor.program


def test_load_corpus_errors():
    with pytest.raises(FuzzError, match="does not exist"):
        load_corpus("/nonexistent/corpus/dir")


def test_fuzz_metrics_registered(session_report):
    from repro.obs.metrics import load_all

    registry = load_all()
    snapshot = registry.collect(session_report, subsystem="fuzz")
    assert snapshot["fuzz.session.cases"] == SESSION_CONFIG.budget
    assert snapshot["fuzz.session.executions"] >= SESSION_CONFIG.budget
    assert "fuzz.session.programs_per_second" in snapshot
    assert snapshot["fuzz.session.survivors"] == len(session_report.survivors)


# ---------------------------------------------------------------------------
# Scoped runs: a minimization step runs only what its oracle reads
# ---------------------------------------------------------------------------

SCOPES = sorted({EVERYTHING, *ORACLE_READS.values()}, key=sorted)


def _scoping_programs():
    """The corpus entries, the pinned session's cases and those cases'
    first-level shrink candidates."""
    programs = [entry.program for entry in
                load_corpus(str(Path(__file__).with_name("fuzz_corpus")))]
    for index in range(SESSION_CONFIG.budget):
        spec, _ = session_case(SESSION_CONFIG, index)
        programs.append(spec)
        programs.extend(_shrink_candidates(spec))
    return list(dict.fromkeys(programs))


def _outcome(spec, reads):
    """The case ``execute_spec`` returns, or the class of what it raised."""
    try:
        return execute_spec(spec, reads)
    except ReproError as exc:
        return type(exc)


def _verdict(oracle, run):
    return run if isinstance(run, type) else oracle(run)


@pytest.fixture(scope="module")
def scoped_runs():
    """Each program run under every scope an oracle declares, and in full."""
    return [
        (spec, {reads: _outcome(spec, reads) for reads in SCOPES})
        for spec in _scoping_programs()
    ]


class _Unread:
    """Stands for a part of a run that an oracle says it does not read."""

    def _read(self, *args):
        raise AssertionError("an oracle read a part it does not declare")

    __getattr__ = __eq__ = __bool__ = __iter__ = __len__ = _read


def test_oracle_reads_cover_the_registry():
    assert list(ORACLE_READS) == list(ORACLES)
    assert all(reads <= EVERYTHING for reads in ORACLE_READS.values())


def test_scoped_run_gives_each_oracle_its_full_verdict(scoped_runs):
    assert len(scoped_runs) > 50
    for spec, runs in scoped_runs:
        full = runs[EVERYTHING]
        for name, oracle in ORACLES.items():
            scoped = runs[ORACLE_READS[name]]
            assert _verdict(oracle, scoped) == _verdict(oracle, full), (
                f"{name} on {spec}"
            )
        for reads, run in runs.items():
            if isinstance(run, type):
                continue
            if IMAGES not in reads:
                assert run.exec_image is None and run.frog_image is None
            if VERDICTS not in reads:
                assert run.compile_result is None


def test_oracles_read_only_what_they_declare(scoped_runs):
    unread = _Unread()
    for spec, runs in scoped_runs:
        full = runs[EVERYTHING]
        if isinstance(full, type):
            continue
        for name, oracle in ORACLES.items():
            reads = ORACLE_READS[name]
            images = IMAGES in reads
            hidden = dataclasses.replace(
                full,
                compile_result=(full.compile_result if VERDICTS in reads
                                else unread),
                exec_image=full.exec_image if images else unread,
                frog_image=full.frog_image if images else unread,
            )
            assert oracle(hidden) == oracle(full), f"{name} on {spec}"


def test_static_analysis_leaves_the_program_unchanged(scoped_runs):
    for spec, runs in scoped_runs:
        analysed = runs[EVERYTHING].compile_result.program
        plain = compile_frog(spec.render(), CompileOptions(name="fuzz"))
        assert program_digest(plain.program) == program_digest(analysed), (
            spec
        )


@pytest.mark.parametrize("margin", [1, 0, -1])
def test_scoped_runs_keep_the_executor_budget(margin, monkeypatch):
    # Without the executor a run checks the budget against the core's
    # committed instructions: at a budget of N, programs needing N - 1
    # and N run, and one needing N + 1 fails as the executor fails it.
    spec = _simple_spec(trip=24, stmts=(StmtSpec(kind="carried"),))
    stats = execute_spec(spec).stats
    assert stats.spec_committed_instructions > 0
    needed = stats.arch_instructions + stats.spec_committed_instructions
    monkeypatch.setattr(fuzz_engine, "CASE_MAX_INSTRUCTIONS",
                        needed + margin)
    outcomes = set()
    for reads in SCOPES:
        try:
            execute_spec(spec, reads)
            outcomes.add("ran")
        except ExecutionError as exc:
            outcomes.add(str(exc))
    assert outcomes == (
        {"ran"} if margin >= 0
        else {f"fuzz exceeded {needed - 1} instructions"}
    )


def write_session_pin() -> int:
    """Rewrite SESSION_PIN; refuse (exit 1) if the report moved while
    ENGINE_SCHEMA_VERSION did not."""
    report = run_fuzz(SESSION_CONFIG).to_dict()
    if SESSION_PIN.exists():
        old = json.loads(SESSION_PIN.read_text())
        if (old["engine_schema"] == ENGINE_SCHEMA_VERSION
                and old["report"] != report):
            print("the session report moved under an unchanged "
                  "ENGINE_SCHEMA_VERSION: bump it, then run this again; "
                  f"{SESSION_PIN.name} is unchanged", file=sys.stderr)
            return 1
    payload = {
        "engine_schema": ENGINE_SCHEMA_VERSION,
        "config": dataclasses.asdict(SESSION_CONFIG),
        "report": report,
    }
    SESSION_PIN.write_text(json.dumps(payload, indent=1, sort_keys=True)
                           + "\n")
    print(f"pinned {report['executions']} executions and "
          f"{len(report['survivors'])} survivors in {SESSION_PIN}")
    return 0


if __name__ == "__main__":
    sys.exit(write_session_pin())
