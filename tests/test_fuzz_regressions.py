"""Replay the checked-in fuzz corpus as a permanent regression suite.

Every file in ``tests/fuzz_corpus/`` is one minimized fuzz survivor.  The
replay contract depends on the entry's ``expect`` key.  ``oracle-fires``
entries pin live failure signals: the oracle that originally flagged the
program must fire again, on the episode *and* the reference engine
mode.  ``states-match`` entries pin a *fixed* defect (the cross-region
packing divergence repaired in engine schema v2): the oracle must fire
in neither mode, the LoopFrog core must commit exactly the functional
executor's memory, and the program must still reach the repaired path
(``fixed_path_trigger``).  In both cases the engine modes must stay
bit-identical to each other.
"""

import os

import pytest

from repro.fuzz.corpus import (
    DEFAULT_CORPUS_DIR,
    EXPECT_STATES_MATCH,
    entry_workload,
    fixed_path_trigger,
    load_corpus,
    replay_entry,
)
from repro.fuzz.engine import execute_spec
from repro.fuzz.oracles import ORACLES
from repro.uarch.core import set_engine_mode

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")


def _entries():
    return load_corpus(CORPUS_DIR)


ENTRIES = _entries()


def test_corpus_is_populated():
    assert len(ENTRIES) >= 5
    # More than one failure mode is represented.
    assert len({e.oracle for e in ENTRIES}) >= 2


def test_default_corpus_dir_matches():
    assert os.path.abspath(CORPUS_DIR) == os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", DEFAULT_CORPUS_DIR)
    )


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[e.name for e in ENTRIES]
)
def test_replay_oracle_still_fires(entry):
    ok, message = replay_entry(entry)
    assert ok, f"{entry.name}: {message}"


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[e.name for e in ENTRIES]
)
def test_replay_state_contract(entry):
    """Every survivor must now match the functional executor: the
    divergence entries were fixed (and flipped to ``states-match``), and
    no other oracle tolerates committed-state drift."""
    case = execute_spec(entry.program)
    assert case.frog_image == case.exec_image


def test_divergence_entries_flipped_and_triggering():
    """The former divergence pins are flipped and still reach the
    repaired cross-region packing path."""
    flipped = [e for e in ENTRIES if e.expect == EXPECT_STATES_MATCH]
    assert len(flipped) >= 4
    assert all(e.oracle == "state_divergence" for e in flipped)
    for entry in flipped:
        case = execute_spec(entry.program)
        assert fixed_path_trigger(case) is not None, (
            f"{entry.name}: no longer exercises the fixed path"
        )


def test_entries_are_minimized():
    """The minimizer must have reached a fixpoint on every entry: no
    strictly-simpler neighbour may still satisfy the entry's predicate
    (the recorded oracle, or — for flipped entries — the fixed-path
    trigger)."""
    from repro.fuzz.engine import _shrink_candidates

    for entry in ENTRIES:
        if entry.expect == EXPECT_STATES_MATCH:
            predicate = fixed_path_trigger
        else:
            predicate = ORACLES[entry.oracle]
        for candidate in _shrink_candidates(entry.program):
            try:
                detail = predicate(execute_spec(candidate))
            except Exception:
                detail = None
            assert detail is None, (
                f"{entry.name}: simpler neighbour still fires"
            )


def test_entries_convert_to_workloads():
    for entry in ENTRIES:
        workload = entry_workload(entry)
        assert workload.name == entry.name
        memory, regs = workload.fresh_input()
        ref_memory, ref_regs = entry.program.fresh_input()
        assert regs == ref_regs
        img = lambda m: {  # noqa: E731
            a: m.load_byte(a) for a in m.written_addresses()
        }
        assert img(memory) == img(ref_memory)


def test_replay_reports_engine_parity():
    """replay_entry's parity leg really exercises both engine modes."""
    entry = ENTRIES[0]
    set_engine_mode("reference")
    try:
        reference = execute_spec(entry.program)
    finally:
        set_engine_mode(None)
    episode = execute_spec(entry.program)
    assert episode.stats.cycles == reference.stats.cycles
    assert episode.frog_image == reference.frog_image
