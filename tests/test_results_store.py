"""Tests for the persistent result store, digests, and the parallel
scheduler — including the bit-identity guarantees the store depends on.
"""

import dataclasses
import json

import pytest

from repro.experiments import runner
from repro.results import (
    ENGINE_SCHEMA_VERSION,
    ResultStore,
    machine_digest,
    run_digest,
    set_default_store,
    stats_from_dict,
    stats_to_dict,
    workload_digest,
)
from repro.uarch.config import baseline_machine, default_machine
from repro.uarch.statistics import RegionStats, SimStats
from repro.workloads.base import Workload
from repro.workloads.generators import tiny_loop
from repro.workloads.suites import suite


def small_workload(source_suffix="", name="store_test", seed=7):
    """A tiny kernel that simulates in well under a second."""
    source = f"""
    fn main(data: ptr<int>, out: ptr<int>) {{
        var acc: int = 0;
        #pragma loopfrog
        for (var i: int = 0; i < 64; i = i + 1) {{
            acc = acc + data[i]{source_suffix};
        }}
        out[0] = acc;
    }}
    """

    def setup(memory, rng):
        for i in range(64):
            memory.store_int(4096 + 8 * i, rng.randrange(100))
        return {"r1": 4096, "r2": 8192}

    return Workload(
        name=name,
        source=source,
        setup=setup,
        seed=seed,
        max_cycles=200_000,
    )


def stats_fingerprint(stats):
    return json.dumps(dataclasses.asdict(stats), sort_keys=True, default=str)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


# -- serialization -----------------------------------------------------------

def test_stats_round_trip_exact():
    wl = small_workload()
    stats = runner.run_workload(wl, default_machine(), use_cache=False)
    stats.regions.setdefault(
        "L0", RegionStats(region="L0", entries=3, arch_cycles=17)
    )
    restored = stats_from_dict(json.loads(json.dumps(stats_to_dict(stats))))
    assert stats_fingerprint(restored) == stats_fingerprint(stats)
    # the lossy spots specifically: int histogram keys and nested regions
    assert restored.active_threadlet_cycles == stats.active_threadlet_cycles
    assert all(isinstance(k, int) for k in restored.active_threadlet_cycles)
    assert isinstance(next(iter(restored.regions.values())), RegionStats)


def test_stats_from_dict_ignores_unknown_fields():
    stats = SimStats()
    data = stats_to_dict(stats)
    data["counter_from_the_future"] = 42
    restored = stats_from_dict(data)
    assert stats_fingerprint(restored) == stats_fingerprint(stats)


# -- digests -----------------------------------------------------------------

def test_same_content_same_digest():
    assert machine_digest(default_machine()) == machine_digest(default_machine())
    assert workload_digest(small_workload()) == workload_digest(small_workload())


def test_config_change_changes_digest():
    assert machine_digest(default_machine()) != machine_digest(baseline_machine())


def test_program_change_changes_digest():
    # Same workload *name*, different source: must not collide.  This is
    # the collision the old name-keyed in-process cache allowed.
    assert workload_digest(small_workload()) != workload_digest(
        small_workload(source_suffix=" + 1")
    )


def test_input_change_changes_digest():
    assert workload_digest(small_workload(seed=7)) != workload_digest(
        small_workload(seed=8)
    )


def test_cache_key_not_fooled_by_shared_name(no_default_store):
    wl_a = small_workload()
    wl_b = small_workload(source_suffix=" + 1")  # same name, different program
    machine = default_machine()
    stats_a = runner.run_workload(wl_a, machine)
    stats_b = runner.run_workload(wl_b, machine)
    assert stats_fingerprint(stats_a) != stats_fingerprint(stats_b)


# -- store hits and misses ---------------------------------------------------

def test_store_hit_returns_identical_stats(store):
    wl = small_workload()
    machine = default_machine()
    fresh = runner.run_workload(wl, machine, use_cache=False)
    digest = run_digest(wl, machine)
    store.save(digest, fresh, workload=wl.name)
    loaded = store.load(digest)
    assert stats_fingerprint(loaded) == stats_fingerprint(fresh)
    assert digest in store


def test_store_miss_on_config_change(store):
    wl = small_workload()
    stats = runner.run_workload(wl, default_machine(), use_cache=False)
    store.save(run_digest(wl, default_machine()), stats)
    assert store.load(run_digest(wl, baseline_machine())) is None


def test_store_miss_on_program_change(store):
    wl = small_workload()
    stats = runner.run_workload(wl, default_machine(), use_cache=False)
    store.save(run_digest(wl, default_machine()), stats)
    changed = small_workload(source_suffix=" + 1")
    assert store.load(run_digest(changed, default_machine())) is None


def test_store_miss_on_schema_bump(store):
    wl = small_workload()
    machine = default_machine()
    stats = runner.run_workload(wl, machine, use_cache=False)
    digest = run_digest(wl, machine)
    store.save(digest, stats)
    future = ResultStore(store.root, schema=ENGINE_SCHEMA_VERSION + 1)
    assert future.load(digest) is None
    assert store.load(digest) is not None  # current schema still hits


def test_corrupt_record_is_a_miss_not_an_error(store):
    wl = small_workload()
    machine = default_machine()
    stats = runner.run_workload(wl, machine, use_cache=False)
    digest = run_digest(wl, machine)
    path = store.save(digest, stats)
    path.write_text("{ not json")
    assert store.load(digest) is None
    path.write_text('{"digest": "wrong", "schema": 1, "stats": {}}')
    assert store.load(digest) is None


def test_store_stats_and_gc(store):
    wl = small_workload()
    machine = default_machine()
    stats = runner.run_workload(wl, machine, use_cache=False)
    store.save(run_digest(wl, machine), stats)
    old = ResultStore(store.root, schema=ENGINE_SCHEMA_VERSION - 1)
    old.save("ff" + "0" * 62, stats)
    summary = store.stats()
    assert summary.records == 2
    assert summary.by_schema == {ENGINE_SCHEMA_VERSION: 1,
                                 ENGINE_SCHEMA_VERSION - 1: 1}
    assert store.gc() == 1  # drops only the stale-schema record
    assert store.stats().records == 1
    assert store.gc(purge=True) == 1
    assert store.stats().records == 0


def test_runner_reads_through_store(store, no_default_store):
    set_default_store(store)
    wl = small_workload()
    machine = default_machine()
    first = runner.run_workload(wl, machine)
    assert store.stats().records == 1
    runner.clear_cache()  # force the next lookup to the store
    second = runner.run_workload(wl, machine)
    assert stats_fingerprint(second) == stats_fingerprint(first)
    assert store.stats().records == 1  # hit, not a re-save


# -- parity: cached == fresh-serial == fresh-parallel ------------------------

def test_serial_parallel_and_cached_parity(no_default_store):
    only = [suite("spec2017")[0].name]
    [fresh] = runner.run_suite("spec2017", only=only, use_cache=False)
    [serial] = runner.run_suite("spec2017", only=only, jobs=1)
    runner.clear_cache()
    [parallel] = runner.run_suite("spec2017", only=only, jobs=2)
    # All in-process hits now.
    [cached] = runner.run_suite("spec2017", only=only, jobs=2)
    for a in (serial, parallel, cached):
        assert a.speedup == fresh.speedup
        for pa, pf in zip(a.phases, fresh.phases):
            assert stats_fingerprint(pa.baseline) == stats_fingerprint(pf.baseline)
            assert stats_fingerprint(pa.loopfrog) == stats_fingerprint(pf.loopfrog)


def test_run_suite_parallel_matches_serial(no_default_store):
    only = [suite("spec2017")[0].name]
    serial = runner.run_suite("spec2017", only=only, jobs=1)
    runner.clear_cache()
    parallel = runner.run_suite("spec2017", only=only, jobs=2)
    assert [r.speedup for r in serial] == [r.speedup for r in parallel]


def test_sampled_suite_fans_whole_cells_out_to_one_pool(
    no_default_store, counting_pool, monkeypatch
):
    """Sampled cells go to the pool whole, one job per workload: each
    worker plans the workload once and runs a complete sampled estimate
    (genuine windows under this small config) for both machines, and the
    estimates equal the serial ones.  Serially, too, each workload is
    profiled and checkpointed once for both machines."""
    from repro.sampling import runner as sampling_runner
    from repro.sampling.runner import SamplingConfig

    config = SamplingConfig(interval_length=1000, full_detail_threshold=5000,
                            max_clusters=4)
    passes = {"profile_intervals": 0, "collect_checkpoints": 0}

    def counted(name):
        inner = getattr(sampling_runner, name)

        def wrapper(*args, **kwargs):
            passes[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in passes:
        monkeypatch.setattr(sampling_runner, name, counted(name))
    phases = len(next(b for b in suite("spec2017") if b.name == "imagick").phases)

    def estimates(jobs):
        runner.clear_cache()
        runs = runner.run_suite("spec2017", only=["imagick"], jobs=jobs,
                                sampling=config)
        cells = {
            key: (stats_fingerprint(r.stats), r.estimated_cpi,
                  r.error_bound, r.num_clusters)
            for key, r in runner._CACHE.items()
        }
        return [r.speedup for r in runs], cells

    serial = estimates(1)
    assert counting_pool.pools == 0
    assert passes == {"profile_intervals": phases, "collect_checkpoints": phases}
    assert len(serial[1]) == 2 * phases
    parallel = estimates(2)
    assert (counting_pool.pools, counting_pool.submitted) == (1, phases)
    assert parallel == serial
    assert all(bound > 0 for _, _, bound, _ in serial[1].values())


def test_clear_cache_empties_runner_cache(no_default_store):
    runner.run_workload(tiny_loop("clear_cache", outer=10, trip=4),
                        default_machine())
    assert len(runner._CACHE) == 1
    runner.clear_cache()
    assert not runner._CACHE


def test_prefetch_parallel_matches_serial(no_default_store, tmp_path):
    """The process fan-out writes the same records, and caches the same
    stats, as the serial path; ``clear_cache`` empties the cache between."""
    workloads = [tiny_loop(f"prefetch_par_{i}", outer=12, trip=4, seed=50 + i)
                 for i in range(3)]
    pairs = [(w, m) for w in workloads
             for m in (baseline_machine(), default_machine())]

    def prefetch_into(store, jobs):
        set_default_store(store)
        runner._prefetch(pairs, jobs=jobs)
        cached = {key: stats_fingerprint(s) for key, s in runner._CACHE.items()}
        runner.clear_cache()
        assert not runner._CACHE
        loaded = {
            run_digest(w, m): stats_fingerprint(store.load(run_digest(w, m)))
            for w, m in pairs
        }
        return store.stats().records, cached, loaded

    serial = prefetch_into(ResultStore(tmp_path / "serial"), jobs=1)
    parallel = prefetch_into(ResultStore(tmp_path / "parallel"), jobs=2)
    assert serial[0] == len(pairs)
    assert parallel == serial


# -- scheduler defaults -------------------------------------------------------

@pytest.fixture
def restore_jobs():
    saved = runner.default_jobs()
    yield
    runner.configure(jobs=saved)


def test_configure_round_trips_and_clamps(restore_jobs):
    runner.configure(jobs=3)
    assert runner.default_jobs() == 3
    runner.configure(jobs=-5)  # clamped to 1, the historical behaviour
    assert runner.default_jobs() == 1


def test_resolve_jobs_semantics(restore_jobs):
    import os

    runner.configure(jobs=2)
    assert runner._resolve_jobs(None) == 2
    assert runner._resolve_jobs(5) == 5
    assert runner._resolve_jobs(0) == (os.cpu_count() or 1)
