"""Property sweep: every public generator at its boundary parameters.

For each workload template the spec layer discovers, instantiate the
boundary cases — primary trip count 0 and 1, ``sequential=0`` where the
template has a sequential tail, and full stride aliasing where it has a
stride knob — and require the full differential contract to hold:

* the program compiles (with hints) and runs to completion,
* the episode and reference engine modes are bit-identical
  (cycles, instructions, squashes, final memory),
* the LoopFrog core's committed memory matches the functional executor.
"""

import pytest

from repro.uarch import LoopFrogCore
from repro.uarch.core import set_engine_mode
from repro.uarch.executor import Executor
from repro.workloads.spec import WorkloadSpec, template_names, template_params

# The parameter that controls each template's primary trip count.
TRIP_PARAM = {
    "branchy_count": "n",
    "convolution": "height",
    "dp_row": "rows",
    "event_queue": "nodes",
    "gauss_mix": "senones",
    "grid_relax": "cells",
    "hash_probe": "queries",
    "hist_prefetch": "n",
    "huge_body": "n",
    "low_trip_blocks": "groups",
    "lz_match": "n",
    "md_force": "n",
    "network_flow": "n",
    "ray_sphere": "rays",
    "sad_block": "blocks",
    "saturated_fp": "n",
    "scan_prefetch": "queries",
    "sparse_matvec": "nrows",
    "stencil_rows": "rows",
    "stream_op": "n",
    "tiny_loop": "outer",
    "transpose": "rows",
}

MAX_CYCLES = 4_000_000


def _boundary_cases():
    cases = []
    for template in template_names():
        params = template_params(template)
        trip = TRIP_PARAM[template]
        assert trip in params, f"{template}: TRIP_PARAM out of date"
        for value in (0, 1):
            cases.append((template, {trip: value}, f"{trip}={value}"))
        if "sequential" in params and params["sequential"] != 0:
            cases.append((template, {"sequential": 0}, "sequential=0"))
        # Full aliasing: every iteration lands on the same conflict
        # granule as its neighbour.
        if "stride" in params:
            cases.append((template, {"stride": 1}, "stride=1"))
        if "col_stride" in params:
            cases.append((template, {"col_stride": 1}, "col_stride=1"))
    return cases


CASES = _boundary_cases()


def test_trip_param_map_is_exhaustive():
    assert sorted(TRIP_PARAM) == template_names()


@pytest.mark.parametrize(
    "template,overrides,label",
    CASES,
    ids=[f"{t}-{label}" for t, _, label in CASES],
)
def test_boundary_case_differential(template, overrides, label):
    spec = WorkloadSpec(
        template=template,
        name=f"prop_{template}",
        params=overrides,
        seed=99,
    )
    workload = spec.instantiate()
    program = workload.program  # compiles with hints

    # Functional executor: the golden model.
    memory, regs = workload.fresh_input()
    ex = Executor(program, memory)
    ex.regs.update(regs)
    ex.run(max_instructions=4_000_000)
    exec_image = ex.memory.image()

    # Episode engine mode (the default).
    memory, regs = workload.fresh_input()
    set_engine_mode("episode")
    try:
        episode = LoopFrogCore().run(program, memory, regs,
                                     max_cycles=MAX_CYCLES)
    finally:
        set_engine_mode(None)

    # Reference engine mode.
    memory, regs = workload.fresh_input()
    set_engine_mode("reference")
    try:
        ref = LoopFrogCore().run(program, memory, regs,
                                 max_cycles=MAX_CYCLES)
    finally:
        set_engine_mode(None)

    # Engine parity: bit-identical behaviour.
    assert episode.stats.cycles == ref.stats.cycles
    assert episode.stats.arch_instructions == ref.stats.arch_instructions
    assert (episode.stats.threadlets_squashed
            == ref.stats.threadlets_squashed)
    assert episode.memory.image() == ref.memory.image()

    # Semantics: speculation must commit the executor's memory.
    assert episode.memory.image() == exec_image
