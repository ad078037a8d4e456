"""The repository benchmark: regenerate the paper artifacts cold and warm,
run the sampled long-run suite, and fuzz, with outside-in per-layer timing.

Run from the root of a checkout::

    python3 bench/run.py --workload exp-cold --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --check

One parent process runs one child process at a time, each with
``jobs=1``, so at most one process is busy.  A run makes a few set-up-only
children, then operation children until ``--seconds`` of them have run
(always at least one); ``exp-warm`` first runs one untimed cold pass to
fill the store it reads, and ``sample-longrun`` ends with full-detail
reference runs of its estimates.  With ``--trace 1`` untraced and traced
operations alternate (ABBA) and the per-layer metrics are reported
instead of the end-to-end ones.  The last line of stdout is the result as
one JSON object; ``--out FILE`` appends the whole run record to FILE for
``bench/compare.py``.  See bench/README.md for the metric catalog.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
TMP_ROOT = ROOT / ".bench_tmp"

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402
import ops  # noqa: E402

SETUP_PROBES = 5
#: The whole run must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0
#: Sanity limit on |sampled - full-detail| / full-detail CPI.  The
#: estimate's own 95% bound is a dispersion statistic that held-out inputs
#: exceed (2.1% error against a 0.5% bound; errors up to 11.6% seen), so
#: the exact check is the instruction count and this catches only a
#: broken sampler.
CPI_TOLERANCE = 0.25
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
#: End-to-end metrics, reported on every workload.
E2E_METRICS = ("setup_s", "wall_s", "throughput", "peak_rss_mb")


class HarnessError(Exception):
    """The run could not produce a result."""


def load_spec(path: Path = SPEC_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def summarize(values: List[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples beyond it (None when there is none)."""
    ordered = sorted(values)
    n = len(ordered)
    q1, median, q3 = (
        statistics.quantiles(ordered, n=4) if n >= 2 else ordered * 3
    )
    tail = None
    for p in TAIL_PERCENTILES:
        index = max(0, math.ceil(p / 100 * n) - 1)
        if n - index - 1 >= 10:
            tail = {"p": p, "value": ordered[index]}
            break
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "n": n, "tail": tail}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _host() -> dict:
    uname = os.uname()
    return {
        "system": uname.sysname,
        "release": uname.release,
        "machine": uname.machine,
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
    }


class Run:
    """One invocation: one workload, one seed."""

    def __init__(self, workload: str, seed: int, seconds: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.children = 0
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def child(self, kind: str, workload: Optional[str] = None,
              keep: bool = False, **fields) -> dict:
        self.children += 1
        workdir = self.tmp / f"{self.children:03d}-{kind}"
        workdir.mkdir()
        spec = {"workload": workload or self.workload, "kind": kind,
                "seed": self.seed, "dir": str(workdir), **fields}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError(f"deadline of {DEADLINE_S:.0f} s reached")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                cwd=workdir, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise HarnessError(
                f"{kind} child still running at the {DEADLINE_S:.0f} s deadline"
            ) from None
        wall = time.perf_counter() - start
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"crash": f"{kind} child exited with {proc.returncode}",
                    "wall_s": wall}
        result = json.loads(lines[-1])
        result.update(wall_s=wall, dir=str(workdir))
        return result

    def measure(self, pattern, budget: float, fixture: Optional[str]) -> List[dict]:
        """Operation children, tracing per ``pattern``, until the next one
        would end past ``budget`` seconds (at least one of each kind)."""
        done: List[dict] = []
        start = time.perf_counter()
        while (len(done) < len(set(pattern))
               or time.perf_counter() - start + done[-1]["wall_s"] <= budget):
            traced = pattern[len(done) % len(pattern)]
            op = self.child("op", trace=traced, fixture=fixture)
            op["traced"] = traced
            done.append(op)
        return done

    # -- correctness ---------------------------------------------------------

    @staticmethod
    def _op_failures(op: dict, reference: dict, cold: Optional[dict]) -> List[str]:
        if "crash" in op:
            return [op["crash"]]
        failures = list(op["failures"])
        if cold is not None and "artifacts" in cold:
            ours, theirs = op.get("artifacts", {}), cold["artifacts"]
            stems = sorted({
                name.rsplit(".", 1)[0] for name in set(ours) | set(theirs)
                if ours.get(name) != theirs.get(name)
            })
            failures += [f"{stem}: artifact differs from the cold pass"
                         for stem in stems]
        if op.get("exact") != reference.get("exact"):
            failures.append("exact outputs differ between operations of the run")
        return failures

    def _check_estimates(self, estimates: Dict[str, dict], keys: List[str]):
        """Full-detail runs of the estimates in ``keys``: the sampled
        instruction count must match exactly and the CPI within
        CPI_TOLERANCE.  Returns (failures, max relative CPI error)."""
        reference = self.child("reference", keys=keys)
        if "crash" in reference:
            return [reference["crash"]], 0.0
        failures, worst = [], 0.0
        for key in keys:
            est, full = estimates[key], reference["reference"].get(key)
            if full is None:
                failures.append(f"{key}: no full-detail reference")
                continue
            error = est["cpi"] / full["cpi"] - 1
            worst = max(worst, abs(error))
            if est["instructions"] != full["instructions"]:
                failures.append(
                    f"{key}: sampled {est['instructions']} instructions, "
                    f"full detail {full['instructions']}"
                )
            if abs(error) > CPI_TOLERANCE:
                failures.append(f"{key}: sampled CPI off by {error:+.1%}")
        return failures, worst

    # -- the run -------------------------------------------------------------

    def execute(self, trace: bool) -> dict:
        setups = [self.child("setup") for _ in range(SETUP_PROBES)]
        good = [c for c in setups if "crash" not in c]
        if not good:
            raise HarnessError(setups[0]["crash"])
        per_op = good[0]["attempted"]
        fixture, fixture_dir = None, None
        if self.workload == "exp-warm":
            fixture = self.child("op", workload="exp-cold", keep=True)
            fixture_dir = fixture.get("dir")
        pattern = (False, True, True, False) if trace else (False,)
        done = self.measure(pattern, self.seconds * (2 if trace else 1),
                            fixture_dir)

        first = next((op for op in done if "crash" not in op), {})
        # (operation, the run's reference for its exact outputs, the cold
        # pass whose artifacts it must reproduce)
        checks = [(op, first, fixture) for op in done]
        if fixture is not None:
            checks.append((fixture, fixture, None))
        failures: List[str] = []
        attempted = failed = 0
        for op, reference, cold in checks:
            found = self._op_failures(op, reference, cold)
            attempted += per_op
            failed += min(len(found), per_op)
            failures += found
        cpi_err = 0.0
        if first.get("estimates"):
            keys = sorted(first["estimates"])
            if not trace:
                keys = [keys[self.seed % len(keys)]]
            found, cpi_err = self._check_estimates(first["estimates"], keys)
            attempted += len(keys)
            failed += len(found)
            failures += found

        untraced = [op for op in done if not op["traced"] and "crash" not in op]
        traced = [op for op in done if op["traced"] and "crash" not in op]
        if not untraced or (trace and not traced):
            raise HarnessError("; ".join(failures) or "no operation completed")
        wall = [op["op_s"] for op in untraced]
        setup = [c["setup_s"] for c in setups + done + [fixture]
                 if c and "setup_s" in c]
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": trace,
            "host": _host(),
            "calib_s": _median([c["calib_s"] for c in setups + done
                                if "calib_s" in c]),
            "item": good[0].get("item"),
            "timings": {
                "setup_s": summarize(setup),
                "op_s": summarize(wall),
            },
            "end_to_end": {
                "setup_s": _median(setup),
                "wall_s": _median(wall),
                "throughput": _median([op["work"] / op["op_s"] for op in untraced]),
                "peak_rss_mb": _median([op["rss_mb"] for op in untraced]),
            },
            "exact": first.get("exact"),
            "attempted": attempted,
            "failed": min(failed, attempted),
            "failures": failures,
        }
        if trace:
            per_op_metrics = [
                layers.op_metrics(op["layers"], op["counts"]) for op in traced
            ]
            values = {name: _median([m[name] for m in per_op_metrics])
                      for name in per_op_metrics[0]}
            values["sampling.cpi_err_pct"] = cpi_err * 100
            record["per_layer"] = values
            record["timings"]["traced_op_s"] = summarize(
                [op["op_s"] for op in traced]
            )
            record["missing"] = sorted({
                target for op in traced for target in op["layers"]["missing"]
            })
        return record


# ---------------------------------------------------------------------------
# Contract self-check
# ---------------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
         "per_layer"}


def check(spec: dict) -> List[str]:
    """Every way BENCHMARK.json breaks the benchmark contract or disagrees
    with what this harness runs and reports."""
    problems: List[str] = []
    if set(spec) != _KEYS:
        return [f"keys are {sorted(spec)}, expected {sorted(_KEYS)}"]

    def rows(section, lo, hi, keys):
        entries = spec[section]
        if not (isinstance(entries, list) and lo <= len(entries) <= hi):
            problems.append(f"{section}: needs {lo} to {hi} entries")
            return []
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != keys:
                problems.append(f"{section}: {entry!r} must have keys {sorted(keys)}")
        return [e for e in entries if isinstance(e, dict) and set(e) == keys]

    workloads = rows("workloads", 2, 8, {"name", "why"})
    e2e = rows("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    layer = rows("per_layer", 1, 128, {"name", "unit", "better"})
    names = [e["name"] for e in workloads + e2e + layer]
    for name in names:
        if not (isinstance(name, str) and _NAME.match(name)):
            problems.append(f"bad name {name!r}")
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"name {name!r} used more than once")
    for entry in workloads:
        why = entry["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            problems.append(f"workload {entry['name']}: why must be one line of <= 200 chars")
    for entry in e2e + layer:
        if not (isinstance(entry["unit"], str) and _UNIT.match(entry["unit"])):
            problems.append(f"{entry['name']}: bad unit {entry['unit']!r}")
        if entry["better"] not in ("lower", "higher"):
            problems.append(f"{entry['name']}: better must be lower or higher")
    bounds = {}
    for entry in e2e:
        bound = entry["bound"]
        if isinstance(bound, bool) or not isinstance(bound, (int, float)) \
                or not 0 < bound <= 0.25:
            problems.append(f"{entry['name']}: bound must be in (0, 0.25]")
        else:
            bounds[entry["name"]] = bound
    setup = [e for e in e2e if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif bounds and bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must have the largest bound")

    run_seconds = spec["run_seconds"]
    if isinstance(run_seconds, bool) or not isinstance(run_seconds, int) \
            or not 1 <= run_seconds <= 60:
        problems.append("run_seconds must be a whole number from 1 to 60")
    paths, command = spec["paths"], spec["command"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16) or not all(
        isinstance(p, str) and _PATH.match(p) and not p.startswith("/")
        and ".." not in p.split("/") for p in paths
    ):
        problems.append("paths must be 1 to 16 relative directories")
    if not (isinstance(command, list) and 1 <= len(command) <= 32) or not all(
        isinstance(c, str) and len(c) <= 200 and not c.startswith("/")
        and ".." not in c.split("/") for c in command
    ):
        problems.append("command must be 1 to 32 strings of <= 200 chars, "
                        "no absolute or parent paths")

    # Agreement with the harness.
    workload_names = {e["name"] for e in workloads}
    if workload_names != set(ops.WORKLOADS):
        problems.append(f"workloads {sorted(workload_names)} != harness "
                        f"{sorted(ops.WORKLOADS)}")
    if {e["name"] for e in e2e} != set(E2E_METRICS):
        problems.append(f"end_to_end metrics must be {list(E2E_METRICS)}")
    produced = set(layers.metric_names())
    listed = {e["name"] for e in layer}
    for name in sorted(produced - listed):
        problems.append(f"per-layer metric {name} is reported but not listed")
    for name in sorted(listed - produced):
        problems.append(f"per-layer metric {name} is listed but never reported")
    e2e_names = {e["name"] for e in e2e}
    for name in sorted(listed):
        row = layers.row_for(name)
        if row in layers.DIAGNOSTIC:
            continue
        moves = layers.MOVES.get(row)
        if not moves:
            problems.append(f"{name}: names no end-to-end metric and workload")
        for metric, workload in moves or ():
            if metric not in e2e_names or workload not in workload_names:
                problems.append(f"{name}: moves unknown {metric} on {workload}")

    if not (SRC / "repro").is_dir():
        problems.append(f"{SRC / 'repro'} not found: cannot resolve patch targets")
    else:
        from tracer import resolve

        sys.path.insert(0, str(SRC))
        for entry, targets in layers.ENTRIES.items():
            for target in targets:
                if resolve(target) is None:
                    problems.append(f"{entry}: patch target {target} does not resolve")
    return problems



# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _print_report(record: dict, metrics: Dict[str, dict]) -> None:
    print(f"{record['workload']}  seed {record['seed']}  "
          f"{record['timings']['op_s']['n']} timed operation(s)  "
          f"trace {int(record['trace'])}  throughput unit: "
          f"{record['item']} per second")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  host calibration {record['calib_s']:.4f} s   attempted "
          f"{record['attempted']}   failed {record['failed']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    for target in record.get("missing", ()):
        print(f"  missing patch target: {target}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this file")
    parser.add_argument("--check", action="store_true",
                        help="validate BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {SPEC_FILE}: {exc}", file=sys.stderr)
        return 2
    if args.check:
        problems = check(spec)
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        print("BENCHMARK.json: " + ("ok" if not problems else
                                    f"{len(problems)} problem(s)"))
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    # The build: byte-compile the sources so set-up time never includes it.
    compileall.compile_dir(str(SRC), quiet=1)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        record = Run(args.workload, args.seed, seconds, tmp).execute(bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    section, values = (
        ("per_layer", record["per_layer"]) if args.trace
        else ("end_to_end", record["end_to_end"])
    )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    _print_report(record, metrics)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
