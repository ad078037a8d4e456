"""Content digests that key the persistent result store.

A simulation result is fully determined by four inputs:

1. the program (the exact instruction sequence, post-compilation),
2. the initial machine state the workload's setup produced (memory + regs),
3. the machine configuration (every field of :class:`MachineConfig`), and
4. the engine's timing-semantics version (``ENGINE_SCHEMA_VERSION``).

Digesting all four makes the store content-addressed: renaming a workload
does not invalidate its results, while any change to its source, input
generator, seed, or the simulated machine produces a different key.

Digests are memoized on the workload/config objects themselves (the hot
sweeps rerun the same objects hundreds of times).  The contract is the one
the rest of the codebase already follows: configs and workloads are frozen
once the first simulation uses them.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

from ..uarch.config import MachineConfig
from ..uarch.core import ENGINE_SCHEMA_VERSION


def _canonical(obj: Any) -> Any:
    """Recursively convert to JSON-encodable data with deterministic order.

    A dataclass becomes the dict of its fields, walked in place: the
    same data ``dataclasses.asdict`` gives, without its deep copies.
    """
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in obj.items()]
        items.sort(key=lambda kv: str(kv[0]))
        return {str(k): v for k, v in items}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    return obj


def _sha256(payload: Any) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def machine_digest(machine: MachineConfig) -> str:
    """Digest of every configuration field (memoized on the object)."""
    cached = getattr(machine, "_repro_digest", None)
    if cached is not None:
        return cached
    digest = _sha256(_canonical(machine))
    machine._repro_digest = digest
    return digest


def program_digest(program) -> str:
    """Digest of the exact instruction sequence of a compiled program."""
    encoded = [
        (
            instr.opcode.value,
            instr.dest,
            list(instr.srcs),
            instr.imm,
            instr.size,
            instr.target_index,
            instr.region_index,
        )
        for instr in program.instructions
    ]
    return _sha256(encoded)


def workload_digest(workload) -> str:
    """Digest of a workload's program bytes + initial input (memoized).

    Runs the workload's deterministic setup once to capture the initial
    memory image and register file — the same pair every simulation of this
    workload starts from.
    """
    cached = getattr(workload, "_repro_digest", None)
    if cached is not None:
        return cached
    memory, regs = workload.fresh_input()
    payload = [
        program_digest(workload.program),
        memory.sorted_items(),
        sorted((name, value) for name, value in regs.items()),
    ]
    digest = _sha256(payload)
    workload._repro_digest = digest
    return digest


def run_digest(workload, machine: MachineConfig) -> str:
    """The store key for one (workload, machine config) simulation."""
    return _sha256(
        [
            ENGINE_SCHEMA_VERSION,
            workload_digest(workload),
            machine_digest(machine),
        ]
    )


def sampled_run_digest(workload, machine: MachineConfig, config) -> str:
    """The store key for one *sampled* simulation estimate.

    Sampled results are approximations and must never collide with exact
    detailed results: the key carries an explicit ``"sampled"`` marker,
    the sampling methodology version, and every
    :class:`~repro.sampling.runner.SamplingConfig` field (interval
    length, cluster budget, seed, warmup policy all change the estimate).
    """
    from ..sampling.runner import SAMPLING_SCHEMA_VERSION

    return _sha256(
        [
            ENGINE_SCHEMA_VERSION,
            "sampled",
            SAMPLING_SCHEMA_VERSION,
            workload_digest(workload),
            machine_digest(machine),
            _canonical(config),
        ]
    )
