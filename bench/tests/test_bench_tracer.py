"""The outside-in tracer: self-time arithmetic, alias rebinding, missing
targets."""

import sys
import types

import pytest

import layers
import tracer
from tracer import Tracer

FAKE = "repro._bench_fake"

# leaf/middle/top call each other through module globals, as the program
# does; ``unwrapped`` stands in for a function no entry wraps.
FAKE_SOURCE = """
def leaf():
    tick(3)

def middle():
    tick(2)
    leaf()
    leaf()
    tick(1)

def unwrapped():
    tick(4)
    leaf()

def top():
    tick(5)
    middle()
    unwrapped()
"""


@pytest.fixture
def fake(monkeypatch):
    """A synthetic ``repro.*`` module on a fake clock that only the
    functions themselves advance."""
    clock = [0.0]
    module = types.ModuleType(FAKE)

    def tick(seconds):
        clock[0] += seconds

    module.tick = tick
    exec(FAKE_SOURCE, module.__dict__)
    monkeypatch.setitem(sys.modules, FAKE, module)
    monkeypatch.setattr(tracer, "_clock", lambda: clock[0])
    return module


def test_self_time_of_a_nested_call_tree(fake):
    t = Tracer()
    t.install({
        "top": (f"{FAKE}:top",),
        "middle": (f"{FAKE}:middle",),
        "leaf": (f"{FAKE}:leaf",),
    })
    try:
        with t.root():
            fake.tick(1)
            fake.top()
    finally:
        t.uninstall()
    assert dict(t.calls) == {"top": 1, "middle": 1, "leaf": 3}
    assert t.self_s["leaf"] == 9          # 3 calls x 3
    assert t.self_s["middle"] == 3        # 2 + 1 around two leaves
    assert t.self_s["top"] == 9           # 5 own + 4 of unwrapped()
    assert t.root_wall_s == 22
    assert t.root_self_s == 1             # the tick outside top()
    assert sum(t.self_s.values()) + t.root_self_s == t.root_wall_s


def test_missing_target_is_reported_and_its_time_falls_to_the_parent(fake):
    t = Tracer()
    t.install(
        {"top": (f"{FAKE}:top",),
         "gone": ("repro.no_such_module:f", f"{FAKE}:no_such_function"),
         "leaf": (f"{FAKE}:leaf",)},
        hooks={f"{FAKE}:leaf": lambda counts, result: result.no_such_field},
    )
    try:
        with t.root():
            fake.top()
    finally:
        t.uninstall()
    assert t.missing[:2] == ["repro.no_such_module:f", f"{FAKE}:no_such_function"]
    assert t.missing[2] == f"{FAKE}:leaf (work count: AttributeError)"
    assert t.self_s["top"] == 12          # 5 + middle's 3 + unwrapped's 4
    assert t.calls["leaf"] == 3


def _repro_globals():
    return {
        name: dict(vars(module)) for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
    }


def test_rebinding_covers_from_imports_and_restores_everything():
    import repro.compiler as compiler
    import repro.compiler.pipeline as pipeline
    from repro.compiler import compile_frog
    from repro.uarch.core import Engine

    for target in (t for targets in layers.ENTRIES.values() for t in targets):
        tracer.resolve(target)              # import every layer's module first
    before = _repro_globals()
    engine_init = Engine.__dict__["__init__"]

    t = Tracer()
    t.install(layers.ENTRIES, layers.HOOKS)
    try:
        assert t.missing == []
        for name in ("parse", "lower_module", "optimize", "insert_hints",
                     "allocate", "apply_allocation", "analyze_function"):
            assert hasattr(getattr(pipeline, name), "__wrapped__"), name
        assert compiler.lower_module is pipeline.lower_module
        assert Engine.__dict__["__init__"] is not engine_init
        compile_frog("fn main(a: ptr<int>) { a[0] = 1; }")
    finally:
        t.uninstall()

    for entry in ("lang.parse", "compiler.lower", "compiler.optimize",
                  "compiler.hints", "compiler.codegen"):
        assert t.calls[entry] == 1, entry
    assert t.calls["compiler.regalloc"] == 2      # allocate + apply_allocation
    assert t.counts["compiler.instructions_emitted"] > 0
    assert Engine.__dict__["__init__"] is engine_init
    after = _repro_globals()
    for module, attrs in before.items():
        for name, value in attrs.items():
            assert after[module][name] is value, f"{module}.{name} not restored"
