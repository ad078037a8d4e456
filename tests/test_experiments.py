"""Integration tests for the experiment harnesses.

These check the *shape* of each reproduced figure/table against the
paper's qualitative claims on benchmark subsets and narrowed sweep axes,
to stay fast.  ``tools/generate_experiments_md.py`` runs the full
versions and checks every paper claim (see EXPERIMENTS.md).
"""

import dataclasses
import json

import pytest

from repro.experiments import (
    run_benchmark,
    run_suite,
    registry,
    suite_geomean,
)
from repro.workloads import get_benchmark

SUBSET = ["imagick", "omnetpp", "mcf", "x264", "xz", "leela"]


def _run(name, only, suites=None, **params):
    """Result of experiment ``name`` on the ``only`` benchmarks, narrowed
    to ``suites`` and to the variants whose ``params`` take one of the
    given values (e.g. ``width=(4, 8)``)."""
    spec = registry.get(name)
    spec = dataclasses.replace(
        spec,
        suites=suites or spec.suites,
        variants=tuple(
            v for v in spec.variants
            if all(v.params[k] in values for k, values in params.items())
        ),
    )
    return registry.run_experiment(spec, only=only).result


@pytest.fixture(scope="module")
def subset_runs():
    return run_suite("spec2017", only=SUBSET)


def test_fig1_width_trends():
    result = _run("fig1", ["imagick", "mcf", "omnetpp", "namd"],
                  width=(4, 8))
    assert result.ipc_increases_with_width
    assert result.utilization_decreases_with_width


def test_fig6_subset_winners_and_losers(subset_runs):
    by_name = {r.name: r for r in subset_runs}
    assert by_name["imagick"].speedup_percent > 50
    assert by_name["omnetpp"].speedup_percent > 25
    assert by_name["mcf"].speedup_percent > 1
    assert abs(by_name["xz"].speedup_percent) < 1      # deselected
    assert abs(by_name["leela"].speedup_percent) < 1


def test_fig6_dynamic_deselection_prevents_slowdowns(subset_runs):
    for run in subset_runs:
        assert run.speedup >= 0.999


def test_fig6_subset_without_a_suite_omits_it():
    """A subset with no spec2006 benchmark drops that suite's block from
    the render and reports its geomean as null instead of crashing."""
    run = registry.run_experiment("fig6", only=["imagick", "x264"])
    data = json.loads(json.dumps(run.to_json()))["data"]
    assert data["geomean_2006_percent"] is None
    assert data["geomean_2017_percent"] == run.result.geomean_2017_percent
    text = run.render()
    assert "SPEC CPU 2017" in text
    assert "SPEC CPU 2006" not in text


def test_benchmark_run_accessors():
    run = run_benchmark(get_benchmark("imagick"))
    assert run.baseline_cycles > run.loopfrog_cycles
    assert 0.0 < run.parallel_fraction() <= 1.0
    assert run.region_speedups()
    result = run.to_result()
    assert result.speedup == pytest.approx(run.speedup)


def test_fig9_ssb_size_binary_behaviour():
    result = _run("fig9", SUBSET, size=(512, 8192))
    # Smaller SSBs lose speedup, but even 512 B keeps a good chunk
    # (paper: 6.2% of 9.5%).
    small, full = result.speedup_at(512), result.speedup_at(8192)
    assert small < full
    assert small > 0.3 * full


def test_fig10_granule_sensitivity():
    result = _run("fig10", SUBSET, granule=(4, 16))
    # 16-byte granules introduce false sharing and lose speedup.
    assert result.speedup_at(16) < result.speedup_at(4)


def test_fig10_one_to_four_bytes_equivalent():
    result = _run("fig10", ["imagick", "mcf"], granule=(1, 4))
    assert result.speedup_at(1) == pytest.approx(
        result.speedup_at(4), abs=1.5
    )


def test_packing_ablation_positive_delta():
    result = _run("packing", ["libquantum", "mcf06", "namd06"],
                  suites=("spec2006",))
    assert result.mean_packing_factor > 1.5
    assert result.max_packing_factor >= 8
    assert result.delta_pp > 0.0
    assert result.affected


def test_assoc_sensitivity_victim_buffer_recovers():
    result = _run("assoc", ["imagick", "omnetpp", "x264"])
    full = result.geomean("full (headline)")
    limited = result.geomean("4-way")
    recovered = result.geomean("4-way + 8-entry victim")
    assert limited < full
    assert recovered > limited
    assert result.worst_hit("4-way") == "imagick"


def test_table3_rows_and_orderings():
    result = _run("table3", ["imagick", "omnetpp", "x264"])
    frog = result.row("LoopFrog")
    ms = result.row("MultiScalar")
    st = result.row("STAMPede")
    assert frog.speedup > 1.0
    assert ms.speedup > 1.0
    # Static rows match table 3.
    assert "SMT" in frog.cores
    assert ms.cores.startswith("8")
    assert st.cores == "4"
    assert "hint" in frog.deployment
    # Our parallel tasks sit inside the paper's 100-10,000 range.
    assert 5 < result.mean_task_size < 10_000


def test_area_overheads_shape():
    result = _run("area", None)
    assert result.issued_increase_percent > 0
    assert result.area.new_structures_percent < 5
    # The render must not crash and must carry the headline rows.
    text = result.render()
    assert "SSB granule cache" in text
    assert "Pollack" in text


def test_suite_geomean_subset(subset_runs):
    geomean = (suite_geomean(subset_runs) - 1) * 100
    assert geomean > 5.0  # the subset includes the big winners
