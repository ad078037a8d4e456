"""Tests for the declarative WorkloadSpec layer (docs/workloads.md)."""

import pytest

from repro.errors import SpecError
from repro.workloads import specyaml
from repro.workloads.spec import (
    BenchmarkSpec,
    SuiteSpec,
    WorkloadSpec,
    build_suite,
    load_spec_file,
    parse_spec_document,
    register_spec_suite,
    template_names,
    template_params,
)
from repro.workloads.suites import available_suites, get_workload, suite


# ---------------------------------------------------------------------------
# specyaml: the deterministic YAML subset
# ---------------------------------------------------------------------------


ROUNDTRIP_DOCS = [
    {"a": 1, "b": "two", "c": True, "d": None, "e": 2.5},
    {"nested": {"x": [1, 2, 3], "y": {"deep": "value"}}},
    ["plain", "list", 3],
    [{"item": 1, "more": [1, 2]}, {"item": 2}],
    {"tricky": "needs: quoting", "empty_list": [], "empty_map": {}},
    {"text": "a # not a comment", "neg": -7, "hex-ish": "0x30008"},
]


@pytest.mark.parametrize("doc", ROUNDTRIP_DOCS)
def test_specyaml_roundtrip(doc):
    assert specyaml.load(specyaml.dump(doc)) == doc


@pytest.mark.parametrize("doc", ROUNDTRIP_DOCS)
def test_specyaml_dump_is_fixpoint(doc):
    once = specyaml.dump(doc)
    assert specyaml.dump(specyaml.load(once)) == once


def test_specyaml_sorted_keys():
    text = specyaml.dump({"zebra": 1, "apple": 2, "mango": 3})
    lines = [ln.split(":")[0] for ln in text.splitlines()]
    assert lines == sorted(lines)


def test_specyaml_comments_and_blank_lines():
    text = "a: 1  # trailing comment\n\n# full-line comment\nb: two\n"
    assert specyaml.load(text) == {"a": 1, "b": "two"}


@pytest.mark.parametrize("bad", [
    "a: [1, 2]\n",               # flow style
    "\ta: 1\n",                  # tabs
    "a: 1\na: 2\n",              # duplicate key
])
def test_specyaml_rejects_malformed(bad):
    with pytest.raises(SpecError, match="line"):
        specyaml.load(bad)


# ---------------------------------------------------------------------------
# WorkloadSpec
# ---------------------------------------------------------------------------


def test_template_registry_covers_generators():
    names = template_names()
    assert len(names) >= 20
    assert "stream_op" in names
    assert "convolution" in names
    # Every template advertises its tunable parameters sans name/seed.
    for template in names:
        params = template_params(template)
        assert "name" not in params
        assert "seed" not in params


def test_spec_yaml_roundtrip():
    spec = WorkloadSpec(
        template="stream_op", name="w", params={"n": 16}, seed=9,
        max_cycles=1_000_000, category="memory_parallelism",
    )
    again = WorkloadSpec.from_yaml(spec.to_yaml())
    assert again == spec


def test_spec_instantiate_uses_spec_seed():
    spec = WorkloadSpec(template="stream_op", name="w", params={"n": 8},
                        seed=1234)
    other = WorkloadSpec(template="stream_op", name="w", params={"n": 8},
                         seed=4321)
    w1, w2 = spec.instantiate(), other.instantiate()
    assert w1.seed == 1234 and w2.seed == 4321
    # Same spec, same seed: identical input image.
    m1, r1 = w1.fresh_input()
    m2, r2 = spec.instantiate().fresh_input()
    assert m1.image() == m2.image() and r1 == r2


@pytest.mark.parametrize("data,match", [
    ({"template": "nope", "name": "x"}, "unknown template"),
    ({"name": "x"}, "template"),
    ({"template": "stream_op"}, "name"),
    ({"template": "stream_op", "name": "x", "params": {"bogus": 1}},
     "no parameter"),
    ({"template": "stream_op", "name": "x", "wat": 1}, "unknown"),
    ({"template": "stream_op", "name": "x", "seed": "abc"}, "seed"),
])
def test_spec_from_dict_rejects(data, match):
    with pytest.raises(SpecError, match=match):
        WorkloadSpec.from_dict(data)


def test_parse_document_shapes():
    one = parse_spec_document({"template": "stream_op", "name": "a"})
    assert isinstance(one, list) and len(one) == 1
    many = parse_spec_document([
        {"template": "stream_op", "name": "a"},
        {"template": "tiny_loop", "name": "b"},
    ])
    assert [s.name for s in many] == ["a", "b"]
    with pytest.raises(SpecError, match="duplicate"):
        parse_spec_document([
            {"template": "stream_op", "name": "a"},
            {"template": "tiny_loop", "name": "a"},
        ])
    with pytest.raises(SpecError):
        parse_spec_document("not a spec")


def test_load_spec_file_prefixes_path(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("template: [flow]\n")
    with pytest.raises(SpecError, match="bad.yaml"):
        load_spec_file(str(path))


# ---------------------------------------------------------------------------
# Suite documents
# ---------------------------------------------------------------------------


SUITE_DOC = {
    "suite": "unit_suite",
    "description": "two tiny benchmarks",
    "benchmarks": [
        {
            "name": "bench_one",
            "category": "memory_parallelism",
            "phases": [
                {"template": "stream_op", "name": "su_stream",
                 "params": {"n": 16}, "weight": 3},
                {"template": "tiny_loop", "name": "su_tiny",
                 "params": {"outer": 4}},
            ],
        },
        {
            "name": "bench_two",
            "phases": [
                {"template": "transpose", "name": "su_transpose",
                 "params": {"rows": 4, "cols": 4}},
            ],
        },
    ],
}


def test_suite_spec_weights_and_build():
    doc = SuiteSpec.from_dict(SUITE_DOC)
    assert doc.name == "unit_suite"
    benchmarks = build_suite(doc)
    assert [b.name for b in benchmarks] == ["bench_one", "bench_two"]
    weights = [w for _, w in benchmarks[0].phases]
    assert weights == pytest.approx([0.75, 0.25])
    # Workload category inherits the benchmark category when unset.
    assert all(
        w.category == "memory_parallelism" for w, _ in benchmarks[0].phases
    )


def test_register_spec_suite_visible_to_lookup():
    register_spec_suite(SuiteSpec.from_dict(SUITE_DOC))
    assert "unit_suite" in available_suites()
    assert [b.name for b in suite("unit_suite")] == ["bench_one", "bench_two"]
    assert get_workload("su_stream").seed is not None


def test_register_cannot_shadow_builtin():
    from repro.errors import WorkloadError
    from repro.workloads.suites import register_suite
    with pytest.raises(WorkloadError, match="shadows"):
        register_suite("spec2017", list(suite("spec2006")))


def test_suite_spec_rejects_malformed():
    with pytest.raises(SpecError, match="suite"):
        SuiteSpec.from_dict({"benchmarks": []})
    with pytest.raises(SpecError, match="benchmarks"):
        SuiteSpec.from_dict({"suite": "s"})
    with pytest.raises(SpecError, match="unknown suite key"):
        SuiteSpec.from_dict({"suite": "s", "benchmarks": [], "extra": 1})
    with pytest.raises(SpecError, match="weight"):
        BenchmarkSpec.from_dict({
            "name": "b",
            "phases": [{"template": "stream_op", "name": "x", "weight": 0}],
        })


# ---------------------------------------------------------------------------
# Workload seed handling (satellite b): mutation invalidates caches
# ---------------------------------------------------------------------------


def test_workload_seed_mutation_invalidates_digest():
    from repro.results.digest import workload_digest

    w = WorkloadSpec(template="stream_op", name="w", params={"n": 8},
                     seed=1).instantiate()
    before = workload_digest(w)
    assert workload_digest(w) == before  # memoized
    w.seed = 2
    after = workload_digest(w)
    assert after != before
    w.seed = 1
    assert workload_digest(w) == before


def test_workload_source_mutation_invalidates_compile_cache():
    w = WorkloadSpec(template="tiny_loop", name="w",
                     params={"outer": 4}).instantiate()
    first = w.compiled()
    assert w.compiled() is first  # cached
    w.source = w.source.replace("4", "5", 1)
    assert w.compiled() is not first
