"""One benchmark child process: set up, then run one operation.

Usage (from bench/run.py, never by hand)::

    python3 bench/child.py '{"workload": ..., "kind": ..., ...}'

``kind`` is ``setup`` (set-up only), ``op`` (set-up plus one operation
in ``dir``, traced when ``trace`` is set; a warm exp pass reads the store
of the cold pass in ``fixture``) or ``reference`` (full-detail runs for
the sampled estimates named in ``keys``).  The last line of stdout is one
JSON object with the measurements.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

CALIB_ITERATIONS = 400_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIB_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def run_op(workload, spec: dict, out: dict) -> None:
    workdir = Path(spec["dir"])
    fixture = Path(spec["fixture"]) if spec.get("fixture") else None
    workload.prepare(workdir, fixture)
    tracer = None
    if spec.get("trace"):
        from layers import ENTRIES, HOOKS
        from tracer import Tracer, call_cost_s

        tracer = Tracer()
        tracer.install(ENTRIES, HOOKS)
    output, error = None, None
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.op()
        else:
            with tracer.root():
                output = workload.op()
    except Exception:
        error = traceback.format_exc()
    finally:
        out["op_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if error is not None:
        print(error, file=sys.stderr)
        out["crash"] = f"operation raised {error.strip().splitlines()[-1]}"
    else:
        out.update(workload.summarize(output))
    if tracer is not None:
        out["layers"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts),
            "root_wall_s": tracer.root_wall_s,
            "root_self_s": tracer.root_self_s,
            "call_cost_s": call_cost_s(),
            "missing": tracer.missing,
        }


def main(spec: dict) -> None:
    out = {"calib_s": calibrate()}
    start = time.perf_counter()
    import ops

    workload = ops.WORKLOADS[spec["workload"]]()
    workload.setup(spec["seed"])
    out["setup_s"] = time.perf_counter() - start
    out.update(attempted=workload.attempted, item=workload.item)
    if spec["kind"] == "reference":
        out["reference"] = workload.reference(spec["keys"])
    elif spec["kind"] == "op":
        run_op(workload, spec, out)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
