"""Tests for the declarative experiment registry and sweep engine
(repro.experiments.spec / .registry) and its CLI surface.

The headline acceptance criterion lives here: one ``run_all`` invocation
must simulate each distinct (workload, config) cell at most once across
all experiments, proven by the ``exp.cells_*`` counters.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.experiments import clear_cache, registry
from repro.experiments.spec import (
    ExperimentSpec,
    Variant,
    global_counters,
    reset_counters,
)

ALL_NAMES = [
    "fig1", "fig6", "fig7", "fig8", "fig9", "fig10",
    "table2", "table3", "packing", "assoc", "area", "loops",
    "threadlets", "bloom",
]

SUBSET17 = ["imagick", "x264"]
SUBSET06 = ["libquantum", "mcf06"]


# ---------------------------------------------------------------------------
# Registry contents and spec validation
# ---------------------------------------------------------------------------

def test_every_paper_artefact_is_registered():
    assert registry.names() == ALL_NAMES


def test_get_unknown_experiment_raises_repro_error():
    with pytest.raises(ReproError, match="unknown experiment 'nope'"):
        registry.get("nope")


def test_reregistering_same_spec_object_is_noop():
    spec = registry.get("fig6")
    assert registry.register(spec) is spec
    assert registry.names() == ALL_NAMES


def test_registering_different_spec_under_taken_name_fails():
    imposter = ExperimentSpec(
        name="fig6", title="imposter", kind="figure", derive=lambda s: None,
    )
    with pytest.raises(ValueError, match="already registered"):
        registry.register(imposter)


def test_spec_validation_rejects_bad_axes():
    def derive(sweep):
        return None

    with pytest.raises(ValueError, match="bad experiment name"):
        ExperimentSpec(name="bad name!", title="t", kind="figure",
                       derive=derive)
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec(name="x", title="t", kind="poster", derive=derive)
    with pytest.raises(ValueError, match="suite"):
        ExperimentSpec(name="x", title="t", kind="figure", derive=derive,
                       suites=())
    with pytest.raises(ValueError, match="variant"):
        ExperimentSpec(name="x", title="t", kind="figure", derive=derive,
                       variants=())
    with pytest.raises(ValueError, match="duplicate variant labels"):
        ExperimentSpec(name="x", title="t", kind="figure", derive=derive,
                       variants=(Variant("a"), Variant("a")))


def test_every_spec_has_title_kind_and_description():
    for spec in registry.specs():
        assert spec.title
        assert spec.kind in ("figure", "table", "ablation", "report")
        assert spec.description


# ---------------------------------------------------------------------------
# Execution through the engine
# ---------------------------------------------------------------------------

def test_run_experiment_returns_renderable_result():
    run = registry.run_experiment("fig9", only=SUBSET17)
    assert run.name == "fig9"
    assert not run.sampled
    assert "SSB size" in run.render()
    assert run.counters.experiments == 1
    assert run.counters.cells_total == (
        run.counters.cells_cached + run.counters.cells_simulated
    )


def test_run_experiment_json_payload_shape():
    run = registry.run_experiment("fig9", only=SUBSET17)
    payload = run.to_json()
    assert payload["experiment"] == "fig9"
    assert payload["kind"] == "figure"
    assert payload["suites"] == ["spec2017"]
    assert payload["variants"] == [
        "ssb-512", "ssb-2048", "ssb-8192", "ssb-32768"
    ]
    assert set(payload["cells"]) == {"total", "cached", "simulated"}
    assert payload["data"]["points"][0]["ssb_bytes"] == 512
    assert payload["render"] == run.render()


def test_cells_shared_across_experiments_in_one_invocation():
    """The tentpole acceptance criterion: a single invocation simulates
    each distinct (workload, config) cell at most once, across
    experiments — observed through the exp.* counters."""
    clear_cache()
    reset_counters()
    only = SUBSET17 + SUBSET06

    first = registry.run_all(["fig6", "fig7", "packing"], only=only)
    by_name = {run.name: run for run in first}
    # fig6 runs the default config over both suites; everything is cold.
    assert by_name["fig6"].counters.cells_simulated > 0
    # fig7 asks for the same spec2017 default-config cells — all hits.
    assert by_name["fig7"].counters.cells_simulated == 0
    assert by_name["fig7"].counters.cells_cached > 0
    # packing's "with packing" arm is shared, the no-packing arm is new.
    assert 0 < by_name["packing"].counters.cells_simulated
    assert by_name["packing"].counters.cells_cached > 0

    totals = global_counters()
    assert totals.experiments == 3
    assert totals.cells_cached > 0
    first_simulated = totals.cells_simulated

    # A second pass over the same experiments must simulate nothing.
    second = registry.run_all(["fig6", "fig7", "packing"], only=only)
    totals = global_counters()
    assert totals.cells_simulated == first_simulated
    assert all(run.counters.cells_simulated == 0 for run in second)


def test_sampled_cells_are_disjoint_from_exact_cells():
    """A cached exact simulation must not satisfy a sampled request (and
    the run is flagged sampled)."""
    registry.run_experiment("fig7", only=["imagick"])  # exact, warm
    run = registry.run_experiment("fig7", only=["imagick"], sampling=True)
    assert run.sampled
    assert run.to_json()["sampled"] is True
    # First sampled pass: nothing can come from the exact cache.
    sampled_again = registry.run_experiment(
        "fig7", only=["imagick"], sampling=True
    )
    assert sampled_again.counters.cells_simulated == 0


def test_counters_surface_through_the_metrics_registry():
    from repro.obs.metrics import load_all

    reset_counters()
    registry.run_experiment("fig9", only=["imagick"])
    values = load_all().collect(global_counters(), "exp")
    assert values["exp.experiments"] == 1
    assert values["exp.cells_total"] > 0
    assert values["exp.cells_total"] == (
        values["exp.cells_cached"] + values["exp.cells_simulated"]
    )


def test_axis_overrides_do_not_mutate_registered_spec():
    spec = registry.get("fig6")
    narrowed = dataclasses.replace(spec, suites=("spec2017",))
    run = registry.run_experiment(narrowed, only=SUBSET17)
    assert run.spec is narrowed
    assert run.result.runs_2006 == []
    assert registry.get("fig6") is spec
    assert spec.suites == ("spec2006", "spec2017")


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def test_write_artifacts_manifest_and_files(tmp_path):
    runs = [registry.run_experiment("fig9", only=SUBSET17)]
    manifest_path = registry.write_artifacts(runs, str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest_path == str(tmp_path / "manifest.json")
    assert manifest["tool"] == "repro exp"
    [entry] = manifest["experiments"]
    assert entry["experiment"] == "fig9"
    assert entry["artifacts"] == {"text": "fig9.txt", "json": "fig9.json"}
    assert manifest["cells"]["total"] == runs[0].counters.cells_total
    text = (tmp_path / "fig9.txt").read_text()
    assert "SSB size" in text
    payload = json.loads((tmp_path / "fig9.json").read_text())
    assert payload["experiment"] == "fig9"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_exp_list_names_every_experiment(capsys):
    assert main(["exp", "list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_NAMES:
        assert name in out


def test_cli_exp_list_json(capsys):
    assert main(["exp", "list", "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert [entry["name"] for entry in listed] == ALL_NAMES
    assert all(entry["title"] for entry in listed)


def test_cli_exp_run_renders_and_reports_cells(capsys):
    rc = main(["exp", "run", "fig9", "--only", ",".join(SUBSET17),
               "--jobs", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 9" in out
    assert "cells:" in out and "simulated" in out


def test_cli_exp_run_json_single_experiment_is_one_object(capsys):
    rc = main(["exp", "run", "fig9", "--only", ",".join(SUBSET17),
               "--jobs", "1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "fig9"


def test_cli_exp_run_multiple_with_out_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    rc = main(["exp", "run", "fig9", "fig10",
               "--only", ",".join(SUBSET17), "--jobs", "1",
               "--json", "--out", str(out_dir)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["experiment"] for entry in payload] == ["fig9", "fig10"]
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "fig9.txt").exists()
    assert (out_dir / "fig10.json").exists()


def test_cli_exp_run_unknown_name_errors(capsys):
    rc = main(["exp", "run", "fig99"])
    assert rc == 1
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_exp_run_checks_every_name_before_running(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(registry, "run_experiment",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["exp", "run", "fig9", "fig99"]) == 1
    assert "unknown experiment 'fig99'" in capsys.readouterr().err
    assert calls == []


def test_cli_exp_run_rejects_unknown_only_benchmark(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(registry, "run_experiment",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["exp", "run", "fig9", "--only", "imagick,nosuch"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown benchmark(s) nosuch; choose from:")
    assert len(err.strip().splitlines()) == 1
    assert calls == []


def test_cli_exp_all_rejects_only_that_leaves_an_experiment_empty(
    monkeypatch, capsys
):
    calls = []
    monkeypatch.setattr(registry, "run_experiment",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["exp", "all", "--only", "libquantum"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: --only libquantum selects no benchmark of fig1, fig7, "
        "fig8, fig9, fig10, table3, packing, assoc, area, threadlets, "
        "bloom\n"
    )
    assert calls == []
