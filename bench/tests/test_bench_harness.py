"""The contract self-check, the run without sources, timing summaries and
the compare verdicts."""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
from compare import verdict


def test_committed_benchmark_json_passes_the_check():
    assert run.check(run.load_spec()) == []


@pytest.mark.parametrize("edit, problem", [
    (lambda s: s["end_to_end"][1].update(bound=0.3), "bound must be in"),
    (lambda s: s["end_to_end"][1].pop("bound"), "must have keys"),
    (lambda s: s["per_layer"].append(
        {"name": "bogus.metric", "unit": "s", "better": "lower"}),
     "listed but never reported"),
    (lambda s: s["per_layer"].pop(), "reported but not listed"),
    (lambda s: s["workloads"][0].update(name="exp cold"), "bad name"),
    (lambda s: s["end_to_end"][0].update(bound=0.01), "largest bound"),
    (lambda s: s.update(run_seconds=0), "run_seconds"),
])
def test_check_finds_contract_breaks(edit, problem):
    spec = copy.deepcopy(run.load_spec())
    edit(spec)
    assert any(problem in p for p in run.check(spec)), run.check(spec)


def test_check_requires_every_layer_metric_to_name_what_it_moves(monkeypatch):
    import layers

    monkeypatch.setitem(layers.MOVES, "lang.parse", (("wall_s", "no-such"),))
    problems = run.check(run.load_spec())
    assert "lang.parse.calls: moves unknown wall_s on no-such" in problems


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(run.SPEC_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exp-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "not found" in proc.stderr
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_summary_reports_the_highest_percentile_with_ten_samples_beyond():
    assert run.summarize([1.0])["tail"] is None
    small = run.summarize([float(i) for i in range(1, 31)])
    assert (small["median"], small["n"], small["tail"]) == (15.5, 30, {"p": 50, "value": 15.0})
    large = run.summarize([float(i) for i in range(1, 201)])
    assert large["tail"] == {"p": 95, "value": 190.0}


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, [13.0, 13.1, 12.9, 13.0], "lower", 0.2) == "worse"
    assert verdict(steady, [9.0, 9.1, 8.9, 9.0], "lower", 0.2) == "better"
    assert verdict(steady, [10.1, 10.0, 10.2, 9.9], "lower", 0.2) == "same"
    assert verdict(steady, [13.0, 13.1, 12.9, 13.0], "higher", 0.2) == "better"
    noisy = [5.0, 15.0, 10.0, 10.0, 7.0, 13.0]
    assert verdict(noisy, [11.0, 12.0, 9.0, 10.0], "lower", 0.2) == "unresolved"
    assert verdict(noisy, [1.0, 1.1, 0.9], "lower", 0.2) == "better"
