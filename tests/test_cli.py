"""Tests for the command-line interface."""

import argparse
import os

import pytest

from repro.cli import _apply_runner_options, _parse_regs, build_parser, main


@pytest.fixture
def frog_file(tmp_path):
    path = tmp_path / "kernel.frog"
    path.write_text(
        """
        fn main(dst: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < 32; i = i + 1) {
                dst[i] = i * 3;
            }
        }
        """
    )
    return str(path)


def test_parse_regs():
    regs = _parse_regs("r1=0x1000,r2=64,f1=2.5")
    assert regs == {"r1": 0x1000, "r2": 64, "f1": 2.5}
    assert _parse_regs(None) == {}
    assert _parse_regs("") == {}


def test_parse_regs_rejects_garbage():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        _parse_regs("r1")


def test_compile_command(frog_file, capsys):
    assert main(["compile", frog_file]) == 0
    out = capsys.readouterr().out
    assert "annotated" in out
    assert "detach" in out


def test_compile_no_hints(frog_file, capsys):
    assert main(["compile", frog_file, "--no-hints"]) == 0
    out = capsys.readouterr().out
    assert "detach" not in out


def test_compile_with_ir(frog_file, capsys):
    assert main(["compile", frog_file, "--ir"]) == 0
    out = capsys.readouterr().out
    assert "fn main" in out


def test_run_command(frog_file, capsys):
    assert main(["run", frog_file, "--regs", "r1=0x2000"]) == 0
    out = capsys.readouterr().out
    assert "baseline:" in out
    assert "LoopFrog:" in out
    assert "speedup:" in out


def test_run_baseline_only(frog_file, capsys):
    assert main(["run", frog_file, "--baseline-only"]) == 0
    out = capsys.readouterr().out
    assert "LoopFrog" not in out


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "imagick" in out
    assert "libquantum" in out
    assert "profitable" in out


def test_workloads_lists_longrun_suite(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "longrun:" in out
    assert "longrun_hash" in out


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


@pytest.fixture
def _restore_default_store():
    """CLI store flags override the process default; put it back."""
    from repro.results import get_default_store, set_default_store

    saved = get_default_store()
    yield
    set_default_store(saved)


def test_sample_command_with_verification(_restore_default_store, capsys):
    # imagick_conv sits under the full-detail threshold, so the sampled
    # estimate is exact and --verify 0.0 must hold.
    assert main(["sample", "imagick_conv", "--no-store", "--jobs", "1",
                 "--verify", "0.0"]) == 0
    out = capsys.readouterr().out
    assert "estimated CPI" in out
    assert "verification passed" in out


def test_sample_unknown_workload_is_an_error(_restore_default_store, capsys):
    assert main(["sample", "no_such_workload", "--no-store"]) == 1
    assert "error" in capsys.readouterr().err


def test_suite_parser_accepts_sampled_and_longrun():
    args = build_parser().parse_args(["suite", "longrun", "--sampled"])
    assert args.name == "longrun"
    assert args.sampled
    args = build_parser().parse_args(["suite", "spec2017"])
    assert not args.sampled


def test_missing_file_is_an_error(capsys):
    assert main(["compile", "/nonexistent.frog"]) == 1


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ---------------------------------------------------------------------------
# results stats / gc
# ---------------------------------------------------------------------------


@pytest.fixture
def populated_store(tmp_path):
    """A store dir holding one current record, one stale, one corrupt."""
    from repro.results import ResultStore
    from repro.uarch.core import SimStats

    root = tmp_path / "store"
    current = ResultStore(root)
    current.save("aa" + "0" * 62, SimStats(cycles=10))
    stale = ResultStore(root, schema=current.schema - 1)
    stale.save("bb" + "0" * 62, SimStats(cycles=20))
    shard = root / "cc"
    shard.mkdir(parents=True)
    (shard / ("cc" + "0" * 62 + ".json")).write_text("{corrupt")
    return str(root)


def test_results_stats(populated_store, capsys):
    assert main(["results", "stats", "--store-dir", populated_store]) == 0
    out = capsys.readouterr().out
    assert "records:  2" in out  # parseable records; corrupt counted apart
    assert "corrupt:  1" in out
    assert "(current)" in out
    assert "(stale)" in out


def test_results_gc_removes_stale_keeps_current(populated_store, capsys):
    assert main(["results", "gc", "--store-dir", populated_store]) == 0
    assert "removed 2 stale/corrupt records" in capsys.readouterr().out
    assert main(["results", "stats", "--store-dir", populated_store]) == 0
    out = capsys.readouterr().out
    assert "records:  1" in out
    assert "corrupt:  0" in out


def test_results_gc_purge_empties_store(populated_store, capsys):
    assert main(["results", "gc", "--purge",
                 "--store-dir", populated_store]) == 0
    assert "removed 3 all records" in capsys.readouterr().out


def test_results_stats_on_missing_store(tmp_path, capsys):
    missing = str(tmp_path / "never-created")
    assert main(["results", "stats", "--store-dir", missing]) == 0
    assert "records:  0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# --jobs / --store-dir error paths
# ---------------------------------------------------------------------------


def test_negative_jobs_is_an_error(capsys):
    assert main(["suite", "spec2017", "--only", "imagick",
                 "--no-store", "--jobs", "-1"]) == 1
    assert "--jobs must be >= 0" in capsys.readouterr().err


def test_jobs_zero_means_all_cores(_restore_default_store):
    from repro.experiments import runner

    saved = runner.default_jobs()
    try:
        _apply_runner_options(argparse.Namespace(jobs=0, no_store=True))
        assert runner.default_jobs() == (os.cpu_count() or 1)
    finally:
        runner.configure(jobs=saved)


def test_non_integer_jobs_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["suite", "spec2017", "--jobs", "many"])
    assert exc.value.code == 2


def test_store_dir_collision_with_file(tmp_path, capsys):
    not_a_dir = tmp_path / "occupied"
    not_a_dir.write_text("I am a file")
    assert main(["suite", "spec2017", "--only", "imagick",
                 "--store-dir", str(not_a_dir)]) == 1
    assert "not a directory" in capsys.readouterr().err
    assert not_a_dir.read_text() == "I am a file"  # untouched


def test_results_store_dir_collision_with_file(tmp_path, capsys):
    not_a_dir = tmp_path / "occupied"
    not_a_dir.write_text("I am a file")
    assert main(["results", "stats", "--store-dir", str(not_a_dir)]) == 1
    assert "not a directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_command(frog_file, capsys):
    assert main(["trace", frog_file, "--regs", "r1=0x2000"]) == 0
    out = capsys.readouterr().out
    assert "compile" in out
    assert "simulate" in out
    assert "epoch.spawn" in out


def test_trace_with_output_metrics_and_summarize(frog_file, tmp_path, capsys):
    timeline = tmp_path / "run.jsonl"
    assert main(["trace", frog_file, "--regs", "r1=0x2000",
                 "--out", str(timeline), "--metrics"]) == 0
    out = capsys.readouterr().out
    assert f"records to {timeline}" in out
    assert "uarch.core.cycles" in out

    # Second mode: summarize the written timeline.
    assert main(["trace", str(timeline)]) == 0
    summary = capsys.readouterr().out
    assert "simulate" in summary and "epoch.spawn" in summary


def test_trace_baseline_has_no_epochs(frog_file, capsys):
    assert main(["trace", frog_file, "--baseline"]) == 0
    out = capsys.readouterr().out
    assert "simulate" in out
    assert "epoch.spawn" not in out


def test_trace_leaves_tracing_disabled(frog_file, capsys):
    from repro.obs.tracing import current_tracer

    assert main(["trace", frog_file]) == 0
    capsys.readouterr()
    assert current_tracer() is None


# -- lint ---------------------------------------------------------------------


@pytest.fixture
def conflict_file(tmp_path):
    path = tmp_path / "conflict.frog"
    path.write_text(
        """
        fn main(a: ptr<int>, n: int) {
            #pragma loopfrog
            for (var i: int = 0; i < n; i = i + 1) {
                a[i + 1] = a[i] + 3;
            }
        }
        """
    )
    return str(path)


def test_lint_command_text(frog_file, capsys):
    assert main(["lint", frog_file]) == 0
    out = capsys.readouterr().out
    assert "independent" in out


def test_lint_command_reports_conflict(conflict_file, capsys):
    assert main(["lint", conflict_file]) == 0
    out = capsys.readouterr().out
    assert "must-conflict" in out
    assert "distance 1" in out


def test_lint_command_json(conflict_file, capsys):
    import json

    assert main(["lint", conflict_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    loops = payload[0]["loops"]
    assert loops[0]["verdict"] == "must-conflict"
    assert loops[0]["line"] > 0
    assert loops[0]["witness"]["store"]["line"] > 0


def test_lint_requires_files_or_validate(capsys):
    assert main(["lint"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.fixture
def malformed_file(tmp_path):
    path = tmp_path / "broken.frog"
    path.write_text("fn main(a {\n")
    return str(path)


def test_lint_malformed_file_clean_error(malformed_file, capsys):
    # Regression: parse failures must exit 1 with a one-line error, not a
    # traceback.
    assert main(["lint", malformed_file]) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err + captured.out


def test_compile_malformed_file_clean_error(malformed_file, capsys):
    assert main(["compile", malformed_file]) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err + captured.out


def test_lint_missing_file_clean_error(capsys):
    assert main(["lint", "/nonexistent/nowhere.frog"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_froglint_tool(conflict_file, frog_file, capsys):
    import tools.froglint as froglint

    assert froglint.main([frog_file]) == 0
    capsys.readouterr()
    assert froglint.main(["--fail-on-conflict", conflict_file]) == 2
    out = capsys.readouterr().out
    assert "must-conflict" in out


# ---------------------------------------------------------------------------
# workloads gen / suite --spec / fuzz (docs/workloads.md)
# ---------------------------------------------------------------------------


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "specs.yaml"
    path.write_text(
        "- template: stream_op\n"
        "  name: cli_stream\n"
        "  params:\n"
        "    n: 16\n"
        "  seed: 3\n"
        "- template: tiny_loop\n"
        "  name: cli_tiny\n"
        "  params:\n"
        "    outer: 4\n"
    )
    return str(path)


@pytest.fixture
def suite_spec_file(tmp_path):
    path = tmp_path / "suite.yaml"
    path.write_text(
        "suite: cli_suite\n"
        "benchmarks:\n"
        "  - name: cli_bench\n"
        "    phases:\n"
        "      - template: stream_op\n"
        "        name: cli_suite_stream\n"
        "        params:\n"
        "          n: 16\n"
    )
    return str(path)


def test_workloads_list_still_works(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "spec2017" in out


def test_workloads_gen_lists_specs(spec_file, capsys):
    assert main(["workloads", "gen", spec_file]) == 0
    out = capsys.readouterr().out
    assert "cli_stream" in out
    assert "seed=3" in out
    assert "hinted loop" in out


def test_workloads_gen_writes_frog_files(spec_file, tmp_path, capsys):
    out_dir = tmp_path / "frogs"
    assert main(["workloads", "gen", spec_file, "--out", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.glob("*.frog"))
    assert names == ["cli_stream.frog", "cli_tiny.frog"]
    assert "#pragma loopfrog" in (out_dir / "cli_stream.frog").read_text()


def test_workloads_gen_requires_spec(capsys):
    assert main(["workloads", "gen"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_workloads_gen_malformed_yaml(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("template: [flow, style]\n")
    assert main(["workloads", "gen", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err + captured.out


def test_workloads_gen_unknown_template(tmp_path, capsys):
    bad = tmp_path / "unk.yaml"
    bad.write_text("template: no_such_template\nname: x\n")
    assert main(["workloads", "gen", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "unknown template" in err
    assert len(err.strip().splitlines()) == 1


def test_suite_with_spec_file(suite_spec_file, capsys):
    assert main(["suite", "--spec", suite_spec_file]) == 0
    out = capsys.readouterr().out
    assert "cli_suite" in out
    assert "cli_bench" in out


def test_suite_spec_workload_document_rejected(spec_file, capsys):
    # A plain workload list is not a suite document.
    assert main(["suite", "--spec", spec_file]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_suite_unknown_name_clean_error(capsys):
    assert main(["suite", "nope"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_suite_unknown_only_benchmark_clean_error(capsys):
    assert main(["suite", "spec2017", "--only", "nosuch"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown benchmark(s) nosuch; choose from:")
    assert "imagick" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [["serve"], ["job", "list"]])
def test_retired_service_commands_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_fuzz_smoke_session(capsys):
    assert main(["fuzz", "--seed", "3", "--budget", "2"]) == 0
    out = capsys.readouterr().out
    assert "seed 3, budget 2" in out
    assert "survivors:" in out


def test_fuzz_json_output(capsys):
    import json

    assert main(["fuzz", "--seed", "3", "--budget", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 3
    assert payload["cases"] == 2


def test_fuzz_rejects_bad_budget(capsys):
    assert main(["fuzz", "--budget", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_fuzz_replay_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "corpus"
    empty.mkdir()
    assert main(["fuzz", "--replay", "--corpus", str(empty)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "no .yaml entries" in err


def test_fuzz_replay_missing_corpus(capsys):
    assert main(["fuzz", "--replay", "--corpus", "/nonexistent/dir"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_fuzz_write_and_replay_roundtrip(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main([
        "fuzz", "--seed", "3", "--budget", "4",
        "--corpus", str(corpus), "--write",
    ]) == 0
    capsys.readouterr()
    assert main(["fuzz", "--replay", "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "0 failure(s)" in out
