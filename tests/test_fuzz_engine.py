"""Tests for the performance-fuzzing harness (docs/workloads.md)."""

import random

import pytest

from repro.errors import FuzzError
from repro.fuzz import (
    FuzzConfig,
    ORACLES,
    evaluate_case,
    load_corpus,
    run_fuzz,
    write_corpus,
)
from repro.fuzz.engine import execute_spec, minimize, survivor_name
from repro.fuzz.model import (
    LoopSpec,
    ProgramSpec,
    StmtSpec,
    generate_program,
)
from repro.fuzz.mutators import MUTATOR_NAMES, MUTATORS, apply_mutations


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

    def interesting(spec):
        if any(loop.trip >= 4 for loop in spec.loops):
            return "trip>=4"
        return None

    small, detail, used = minimize(big, interesting, max_steps=500)
    assert detail == "trip>=4"
    assert used > 0
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


def test_session_executes_each_counted_program_once(session_report,
                                                   monkeypatch):
    # Every engine run is one of the report's executions: minimize()
    # starts from the detail the session already has.
    from repro.fuzz import engine as fuzz_engine

    calls = []
    execute = fuzz_engine.execute_spec
    monkeypatch.setattr(fuzz_engine, "execute_spec",
                        lambda spec: calls.append(spec) or execute(spec))
    report = run_fuzz(SESSION_CONFIG)
    assert report.survivors  # minimize() ran
    assert len(calls) == report.executions
    assert report.to_dict() == session_report.to_dict()


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
