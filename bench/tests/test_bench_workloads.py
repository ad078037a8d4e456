"""Seed mapping, and traced runs simulating exactly what untraced ones do."""

from contextlib import nullcontext
from types import SimpleNamespace

import layers
import ops
from tracer import Tracer


def test_subset_pins_both_suites():
    from repro.workloads.suites import suite

    assert ops.SUBSET == ["imagick", "omnetpp", "x264", "libquantum", "h264ref"]
    assert [name for name, _ in ops.PINNED] == ["spec2017", "spec2006"]
    for suite_name, names in ops.PINNED:
        assert names
        assert set(names) <= {b.name for b in suite(suite_name)}


def _benchmarks():
    phases = [(SimpleNamespace(name=f"phase{i}", seed=1234), 1.0) for i in range(4)]
    return [SimpleNamespace(phases=phases)]


def test_seed_zero_keeps_pinned_inputs():
    benchmarks = _benchmarks()
    ops.reseed(benchmarks, 0)
    assert [w.seed for w, _ in benchmarks[0].phases] == [1234] * 4


def test_held_out_seeds_replace_every_input_seed_deterministically():
    seen = set()
    for seed in range(1, 21):
        first, second = _benchmarks(), _benchmarks()
        ops.reseed(first, seed)
        ops.reseed(second, seed)
        values = [w.seed for w, _ in first[0].phases]
        assert values == [w.seed for w, _ in second[0].phases]
        assert 1234 not in values
        assert len(set(values)) == len(values)
        seen.update(values)
    assert len(seen) == 20 * 4


def _cold_fig1(store_dir, traced):
    """fig1 over one benchmark from an empty store and cleared caches:
    (simulated cycles in the store, rendered artifact, tracer)."""
    from repro.experiments import registry, runner
    from repro.results import ResultStore, get_default_store, set_default_store

    previous = get_default_store()
    runner.clear_cache()
    set_default_store(ResultStore(store_dir))
    t = Tracer() if traced else None
    try:
        if t is not None:
            t.install(layers.ENTRIES, layers.HOOKS)
        try:
            with t.root() if t is not None else nullcontext():
                run = registry.run_experiment("fig1", only=["omnetpp"], jobs=1)
        finally:
            if t is not None:
                t.uninstall()
    finally:
        set_default_store(previous)
        runner.clear_cache()
    records = ops.store_records(store_dir)
    return sum(r["stats"]["cycles"] for r in records), len(records), run.render(), t


def test_traced_and_untraced_runs_simulate_identical_cycles(tmp_path):
    cycles, cells, render, _ = _cold_fig1(tmp_path / "untraced", traced=False)
    t_cycles, t_cells, t_render, t = _cold_fig1(tmp_path / "traced", traced=True)
    assert cells > 0
    assert (t_cycles, t_cells, t_render) == (cycles, cells, render)
    assert t.counts["engine.sim_cycles"] == cycles
    assert t.calls["engine.run"] == cells
    assert t.calls["results.save"] == cells
