"""Unit tests for the static loop-carried dependence analyzer."""

import pytest

from repro.compiler import (
    CompileOptions,
    HintOptions,
    VERDICT_INDEPENDENT,
    VERDICT_MAY_CONFLICT,
    VERDICT_MUST_CONFLICT,
    analyze_function,
    compile_frog,
    lower_module,
)
from repro.lang import parse


def analyze(source, entry="main", granule_bytes=4):
    module = lower_module(parse(source), entry)
    return analyze_function(module[entry], granule_bytes=granule_bytes)


def only_loop(source, **kwargs):
    results = analyze(source, **kwargs)
    assert len(results) == 1
    return next(iter(results.values()))


def test_disjoint_pointer_params_independent():
    dep = only_loop(
        """
        fn main(dst: ptr<int>, src: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                dst[i] = src[i] * 2;
            }
        }
        """
    )
    assert dep.verdict == VERDICT_INDEPENDENT
    assert dep.witness is None


def test_same_array_unit_stride_independent():
    # a[i] = a[i] * 2: the store and load touch the same address only in
    # the *same* iteration; any carried distance d >= 1 moves the pair a
    # full (granule-aligned) element apart.
    dep = only_loop(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[i] = a[i] * 2;
            }
        }
        """
    )
    assert dep.verdict == VERDICT_INDEPENDENT


def test_distance_one_must_conflict():
    dep = only_loop(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[i + 1] = a[i] + 3;
            }
        }
        """
    )
    assert dep.verdict == VERDICT_MUST_CONFLICT
    assert dep.min_distance == 1
    assert dep.witness is not None
    assert dep.witness.certain
    assert dep.witness.store.kind == "store"
    assert dep.witness.load.kind == "load"


def test_distance_four_must_conflict():
    dep = only_loop(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[i + 4] = a[i] + 1;
            }
        }
        """
    )
    assert dep.verdict == VERDICT_MUST_CONFLICT
    assert dep.min_distance == 4


def test_indirect_index_may_conflict():
    # a[b[i]] has a data-dependent address: the analyzer must give up on
    # the store address, not guess.
    dep = only_loop(
        """
        fn main(a: ptr<int>, b: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[b[i]] = a[i] + 1;
            }
        }
        """
    )
    assert dep.verdict == VERDICT_MAY_CONFLICT
    assert dep.witness is not None
    assert not dep.witness.certain
    assert dep.witness.reason == "non-affine-address"


def test_loop_invariant_address_conflicts():
    # An accumulator cell re-read and re-written every iteration is a
    # carried dependence at distance 1.
    dep = only_loop(
        """
        fn main(a: ptr<int>, s: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                s[0] = s[0] + a[i];
            }
        }
        """
    )
    assert dep.verdict == VERDICT_MUST_CONFLICT
    assert dep.min_distance == 1
    assert dep.witness.reason == "loop-invariant-address"


def test_symbolic_offset_may_conflict():
    # a[i + k] vs a[i]: the carried distance equals the runtime value of
    # k, which the analyzer cannot know.
    dep = only_loop(
        """
        fn main(a: ptr<int>, k: int, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[i + k] = a[i] + 1;
            }
        }
        """
    )
    assert dep.verdict == VERDICT_MAY_CONFLICT
    assert dep.witness.reason == "symbolic-offset"


def test_stride_mismatch_not_independent():
    # a[2i] = a[i]: iteration 2d reads what iteration d wrote.
    dep = only_loop(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[2 * i] = a[i] + 1;
            }
        }
        """
    )
    assert dep.verdict != VERDICT_INDEPENDENT


def test_while_loop_induction_variable_recognized():
    dep = only_loop(
        """
        fn main(a: ptr<int>, b: ptr<int>, n: int) {
            var i: int = 0;
            #pragma loopfrog
            while (i < n) {
                a[i] = a[i] + b[i];
                i = i + 1;
            }
        }
        """
    )
    assert dep.verdict == VERDICT_INDEPENDENT


def test_accesses_carry_source_lines():
    dep = only_loop(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[i + 1] = a[i] + 3;
            }
        }
        """
    )
    assert dep.line > 0
    assert dep.accesses
    assert all(site.line > 0 for site in dep.accesses)
    assert dep.witness.store.line == dep.witness.load.line


def test_to_dict_round_trips_core_fields():
    dep = only_loop(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[i + 1] = a[i] + 3;
            }
        }
        """
    )
    payload = dep.to_dict()
    assert payload["verdict"] == VERDICT_MUST_CONFLICT
    assert payload["min_distance"] == 1
    assert payload["witness"]["reason"] == dep.witness.reason
    assert payload["accesses"][0]["address"] is not None


def test_pipeline_attaches_dependence_and_verdicts():
    result = compile_frog(
        """
        fn main(dst: ptr<int>, src: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                dst[i] = src[i] * 2;
            }
        }
        """,
        CompileOptions(static_analysis=True),
    )
    assert result.dependence
    report = result.hint_reports[0]
    assert report.annotated
    assert report.static_verdict == VERDICT_INDEPENDENT


def test_granule_padding_flags_adjacent_touch():
    # With a huge conflict granule, even well-separated accesses share a
    # granule: the verdict must degrade away from independent.
    source = """
    fn main(a: ptr<int>, n: int) {
        #pragma loopfrog
        for (var i: int = 0; i < n; i = i + 1) {
            a[i] = a[i] * 2;
        }
    }
    """
    fine = only_loop(source, granule_bytes=4)
    assert fine.verdict == VERDICT_INDEPENDENT
    coarse = only_loop(source, granule_bytes=64)
    assert coarse.verdict != VERDICT_INDEPENDENT


def test_unknown_speculate_policy_rejected():
    from repro.errors import CompilerError

    with pytest.raises(CompilerError):
        compile_frog(
            "fn main(n: int) { }",
            CompileOptions(hint_options=HintOptions(speculate="sometimes")),
        )


# ---------------------------------------------------------------------------
# Edge cases vs. the functional executor (ground truth)
# ---------------------------------------------------------------------------
#
# Each kernel is compiled with hints and run on both the functional
# executor and the LoopFrog core: committed memory must be identical
# (hints never change semantics), and any loop the analyzer proved
# independent must run squash-free.

from repro.uarch import LoopFrogCore, SparseMemory  # noqa: E402
from repro.uarch.executor import Executor  # noqa: E402

A_BASE = 0x1_0000


def run_ground_truth(source, regs):
    """Compile with verdicts + hints, run both engines, compare state."""
    result = compile_frog(source, CompileOptions(static_analysis=True))

    memory = SparseMemory()
    memory.store_int_array(A_BASE, list(range(128)))
    ex = Executor(result.program, memory)
    ex.regs.update(regs)
    ex.run(max_instructions=2_000_000)
    exec_image = ex.memory.image()

    memory = SparseMemory()
    memory.store_int_array(A_BASE, list(range(128)))
    sim = LoopFrogCore().run(result.program, memory, dict(regs))
    assert sim.memory.image() == exec_image, "speculation changed semantics"

    dep = next(iter(result.dependence.values()))
    if dep.verdict == VERDICT_INDEPENDENT:
        assert sim.stats.squash_conflicts == 0, (
            "independent-classified loop squashed"
        )
    return dep, sim


def test_negative_stride_disjoint_independent():
    dep, _sim = run_ground_truth(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = n; i > 0; i = i - 1) {
                a[i] = a[i] * 2;
            }
        }
        """,
        {"r1": A_BASE, "r2": 48},
    )
    assert dep.verdict == VERDICT_INDEPENDENT


def test_negative_stride_carried_dependence():
    # Downward loop where iteration i reads a[i - 1], written by the
    # *next* iteration's store: distance-1 dependence under reversal.
    dep, sim = run_ground_truth(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = n; i > 0; i = i - 1) {
                a[i - 1] = a[i] + 1;
            }
        }
        """,
        {"r1": A_BASE, "r2": 48},
    )
    assert dep.verdict == VERDICT_MUST_CONFLICT
    assert dep.min_distance == 1


def test_trip_count_zero_loop():
    # The body never executes: any verdict is vacuously consistent, and
    # the machine must neither squash nor corrupt state.
    dep, sim = run_ground_truth(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < 0; i = i + 1) {
                a[i + 1] = a[i] + 3;
            }
        }
        """,
        {"r1": A_BASE, "r2": 48},
    )
    # The interval domain has no bottom: the infeasible body edge keeps
    # its unrefined state, so no finite bound is claimed - conservative,
    # never wrong.
    assert dep.trip_bound is None
    assert sim.stats.squash_conflicts == 0


def test_trip_count_one_loop():
    dep, sim = run_ground_truth(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < 1; i = i + 1) {
                a[i + 1] = a[i] + 3;
            }
        }
        """,
        {"r1": A_BASE, "r2": 48},
    )
    # A single iteration cannot carry a dependence at run time even
    # though the access pattern is distance-1; soundness only requires
    # the verdict to stay conservative.
    assert dep.trip_bound == 1
    assert dep.verdict != VERDICT_INDEPENDENT


def test_stride_zero_accumulator_cell():
    # A loop-invariant accumulator address (stride 0) is a carried
    # dependence every iteration; the simulation must still commit the
    # exact sequential sum.
    dep, _sim = run_ground_truth(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 1; i < n; i = i + 1) {
                a[0] = a[0] + a[i];
            }
        }
        """,
        {"r1": A_BASE, "r2": 32},
    )
    assert dep.verdict == VERDICT_MUST_CONFLICT
    assert dep.witness.reason == "loop-invariant-address"


def test_gcd_residue_boundary_pair_conflicting():
    # a[2i] vs a[2i - 2]: equal residues mod the common stride, so the
    # store at iteration i feeds the load at iteration i+1 - a real
    # loop-carried dependence the GCD test must keep.  (Written as
    # i + i: the front end lowers `2 * i` through a register-held
    # constant, which the affine resolver declines; the add form keeps
    # the test on the GCD path.)
    dep, sim = run_ground_truth(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 1; i < n; i = i + 1) {
                a[i + i] = a[i + i - 2] + 1;
            }
        }
        """,
        {"r1": A_BASE, "r2": 24},
    )
    assert dep.verdict != VERDICT_INDEPENDENT


def test_gcd_residue_boundary_pair_disjoint():
    # a[2i] vs a[2i + 1] *reading forward*: the residues differ and the
    # byte distance clears the pad window, so the GCD test proves
    # independence - confirmed squash-free on the machine.
    dep, sim = run_ground_truth(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[i + i] = a[i + i + 1] + 1;
            }
        }
        """,
        {"r1": A_BASE, "r2": 24},
    )
    assert dep.verdict == VERDICT_INDEPENDENT
    assert sim.stats.squash_conflicts == 0


# ---------------------------------------------------------------------------
# Bail reasons: one regression test per stable identifier
# ---------------------------------------------------------------------------

from repro.compiler.depanal import (  # noqa: E402
    BAIL_CONDITIONAL_DEF,
    BAIL_DEPTH_LIMIT,
    BAIL_FLOAT_VALUE,
    BAIL_IRREGULAR_IV,
    BAIL_LOADED_VALUE,
    BAIL_MULTI_DEF,
    BAIL_NESTED_LOOP_DEF,
    BAIL_NON_LINEAR_OP,
    BAIL_REASONS,
)


def _bails(source, **kwargs):
    dep = only_loop(source, **kwargs)
    return {site.bail for site in dep.accesses if site.bail}


def test_bail_reasons_registry_is_stable():
    assert BAIL_REASONS == {
        "depth-limit", "float-value", "loaded-value", "non-linear-op",
        "irregular-iv", "multi-def", "conditional-def", "nested-loop-def",
    }


def test_bail_loaded_value():
    assert BAIL_LOADED_VALUE in _bails(
        """
        fn main(a: ptr<int>, b: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[b[i]] = a[i] + 1;
            }
        }
        """
    )


def test_bail_non_linear_op():
    assert BAIL_NON_LINEAR_OP in _bails(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[i * i] = a[i] + 7;
            }
        }
        """
    )


def test_bail_irregular_iv():
    assert BAIL_IRREGULAR_IV in _bails(
        """
        fn main(a: ptr<int>, n: int) {
            var i: int = 1;
            #pragma loopfrog
            while (i < n) {
                a[i] = a[i] + 1;
                i = i * 2;
            }
        }
        """
    )


def test_bail_multi_def():
    assert BAIL_MULTI_DEF in _bails(
        """
        fn main(a: ptr<int>, n: int, k: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                var t: int = i;
                if (k < 4) { t = i + 2; } else { t = i + 3; }
                a[t] = 1;
            }
        }
        """
    )


def test_bail_nested_loop_def():
    # The address temp's only definition sits inside the inner loop, so
    # it is not once-per-outer-iteration: the resolver must refuse it.
    assert BAIL_NESTED_LOOP_DEF in _bails(
        """
        fn main(a: ptr<int>, b: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                for (var j: int = 0; j < 4; j = j + 1) {
                    var t: int = i + j;
                    if (b[0] < 100) { a[t] = 1; }
                }
            }
        }
        """
    )


def test_bail_depth_limit():
    chain = "\n".join(
        f"                var t{k}: int = t{k - 1} + 1;"
        for k in range(1, 20)
    )
    assert BAIL_DEPTH_LIMIT in _bails(
        f"""
        fn main(a: ptr<int>, n: int) {{
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {{
                var t0: int = i + 1;
{chain}
                a[t19] = 1;
            }}
        }}
        """
    )


def _hand_built_loop(kind):
    """A minimal IR loop triggering resolver shapes the typed surface
    language cannot express (a float-class address base; a single def
    on a non-dominating path)."""
    from repro.compiler.ir import (
        BasicBlock, Branch, CondBranch, Const, Function, IRInstr, IROp,
        Ret, VReg,
    )

    class PtrType:
        is_ptr = True

    class IntType:
        is_ptr = False

    a = VReg("a", "int")
    n = VReg("n", "int")
    k = VReg("k", "int")
    iv = VReg("i", "int")
    func = Function("main", [(a, PtrType()), (n, IntType()), (k, IntType())])
    cond = VReg("c", "int")
    entry = BasicBlock(
        "entry",
        [IRInstr(IROp.MOV, dest=iv, operands=(Const(0),))],
        Branch("header"),
    )
    header = BasicBlock(
        "header",
        [IRInstr(IROp.SLT, dest=cond, operands=(iv, n))],
        CondBranch(cond, "body", "exit"),
    )
    if kind == "conditional-def":
        c2 = VReg("c2", "int")
        t = VReg("t", "int")
        body = BasicBlock(
            "body",
            [IRInstr(IROp.SLT, dest=c2, operands=(k, Const(4)))],
            CondBranch(c2, "defblk", "join"),
        )
        defblk = BasicBlock(
            "defblk",
            [IRInstr(IROp.ADD, dest=t, operands=(iv, Const(2)))],
            Branch("join"),
        )
        join = BasicBlock(
            "join",
            [IRInstr(IROp.STORE, operands=(Const(1), t), size=4)],
            Branch("latch"),
        )
        mids = [body, defblk, join]
    else:  # float base register
        fv = VReg("fv", "float")
        body = BasicBlock(
            "body",
            [
                IRInstr(IROp.FMOV, dest=fv, operands=(Const(1.5),)),
                IRInstr(IROp.STORE, operands=(Const(1), fv), size=4),
            ],
            Branch("latch"),
        )
        mids = [body]
    latch = BasicBlock(
        "latch",
        [IRInstr(IROp.ADD, dest=iv, operands=(iv, Const(1)))],
        Branch("header"),
    )
    for block in [entry, header] + mids + [latch, BasicBlock("exit", [], Ret())]:
        func.add_block(block)
    func.marked_loops = ["header"]
    return func


def test_bail_conditional_def():
    dep = analyze_function(_hand_built_loop("conditional-def"),
                           headers=["header"])["header"]
    assert BAIL_CONDITIONAL_DEF in {
        site.bail for site in dep.accesses if site.bail
    }


def test_bail_float_value():
    dep = analyze_function(_hand_built_loop("float-value"),
                           headers=["header"])["header"]
    assert BAIL_FLOAT_VALUE in {
        site.bail for site in dep.accesses if site.bail
    }


def test_bail_ids_are_valid_and_serialized():
    dep = only_loop(
        """
        fn main(a: ptr<int>, b: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[b[i]] = a[i] + 1;
            }
        }
        """
    )
    payload = dep.to_dict()
    bails = [s["bail"] for s in payload["accesses"] if s["bail"]]
    assert bails
    assert all(b in BAIL_REASONS for b in bails)
