"""The fuzzer's program model: a small structured space of Frog loop nests.

Mutating raw source text mostly yields parse errors; mutating a typed
tree keeps every candidate compilable while still spanning the behaviours
the simulator cares about — strides and offsets (conflict granule
aliasing), trip counts (packing, spawn overhead), nesting, pragma
placement, and statement kinds ranging from embarrassingly parallel
streams to shared-cell read-modify-writes and cross-iteration carried
dependences.

Safety by construction: array indices are non-negative affine forms of
the loop counters with small bounded coefficients, so every access lands
inside three fixed disjoint regions (``a``/``b`` inputs, ``out``).
Unwritten loads read as zero (SparseMemory semantics), which the
differential oracles rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..errors import FuzzError

# Register-mapped array bases (r1/r2/r3), matching the differential tests.
A_BASE = 0x0001_0000
B_BASE = 0x0002_0000
OUT_BASE = 0x0003_0000

# Where the accumulator is flushed so the reduction cannot be dead code.
ACC_SINK_INDEX = 60_000

# Mutation/generation bounds.  Kept small enough that the largest index
# (trip * stride + nested_trip + offset + distance) stays well inside one
# region, and one case simulates in well under a millisecond.
MAX_TRIP = 48
MAX_STRIDE = 8
MAX_OFFSET = 32
MAX_DISTANCE = 16
MAX_NESTED_TRIP = 8
INPUT_ELEMS = 512

STMT_STREAM = "stream"      # independent strided store
STMT_ACCUM = "accum"        # reduction through a register accumulator
STMT_SHARED = "shared"      # read-modify-write of one shared out-cell
STMT_CARRIED = "carried"    # reads a cell an earlier iteration wrote
STMT_BRANCH = "branch"      # data-dependent branch over the input
STMT_KINDS = (STMT_STREAM, STMT_ACCUM, STMT_SHARED, STMT_CARRIED,
              STMT_BRANCH)


@dataclass(frozen=True)
class StmtSpec:
    """One loop-body statement."""

    kind: str
    scale: int = 1          # multiplier in the value expression
    distance: int = 4       # shared slot index / carried-store distance

    def __post_init__(self):
        if self.kind not in STMT_KINDS:
            raise FuzzError(f"unknown statement kind {self.kind!r}")
        if not 0 <= self.distance <= MAX_DISTANCE:
            raise FuzzError(f"distance {self.distance} out of range")

    def render(self, idx: str, ivar: str) -> List[str]:
        if self.kind == STMT_STREAM:
            return [f"out[{idx}] = a[{idx}] * {self.scale} + {ivar};"]
        if self.kind == STMT_ACCUM:
            return [f"acc = acc + a[{idx}] * {self.scale};"]
        if self.kind == STMT_SHARED:
            slot = self.distance
            return [f"out[{slot}] = out[{slot}] + a[{idx}] + {self.scale};"]
        if self.kind == STMT_CARRIED:
            return [
                f"out[{idx} + {self.distance}] = "
                f"out[{idx}] + a[{idx}] * {self.scale};"
            ]
        # STMT_BRANCH
        return [
            f"if (a[{idx}] & 1 == 1) {{",
            f"    out[{idx}] = a[{idx}] * {self.scale} + 1;",
            "} else {",
            f"    out[{idx}] = b[{idx}] - {self.scale};",
            "}",
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "scale": self.scale,
            "distance": self.distance,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StmtSpec":
        return cls(
            kind=data["kind"],
            scale=int(data.get("scale", 1)),
            distance=int(data.get("distance", 4)),
        )


@dataclass(frozen=True)
class LoopSpec:
    """One (possibly nested) countable loop."""

    trip: int
    stride: int = 1
    offset: int = 0
    pragma: bool = True
    nested_trip: int = 0    # 0 = no inner loop
    stmts: Tuple[StmtSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 0 <= self.trip <= MAX_TRIP:
            raise FuzzError(f"trip {self.trip} out of range")
        if not 1 <= self.stride <= MAX_STRIDE:
            raise FuzzError(f"stride {self.stride} out of range")
        if not 0 <= self.offset <= MAX_OFFSET:
            raise FuzzError(f"offset {self.offset} out of range")
        if not 0 <= self.nested_trip <= MAX_NESTED_TRIP:
            raise FuzzError(f"nested_trip {self.nested_trip} out of range")
        if not self.stmts:
            raise FuzzError("loop has no statements")
        if isinstance(self.stmts, list):
            object.__setattr__(self, "stmts", tuple(self.stmts))

    def render(self, index: int) -> List[str]:
        ivar = f"i{index}"
        lines: List[str] = []
        if self.pragma:
            lines.append("#pragma loopfrog")
        lines.append(
            f"for (var {ivar}: int = 0; {ivar} < {self.trip}; "
            f"{ivar} = {ivar} + 1) {{"
        )
        body_ivar = ivar
        if self.nested_trip:
            jvar = f"j{index}"
            lines.append(
                f"    for (var {jvar}: int = 0; {jvar} < "
                f"{self.nested_trip}; {jvar} = {jvar} + 1) {{"
            )
            idx = f"{ivar} * {self.stride} + {jvar} + {self.offset}"
            pad = "        "
        else:
            idx = f"{ivar} * {self.stride} + {self.offset}"
            pad = "    "
        for stmt in self.stmts:
            for line in stmt.render(idx, body_ivar):
                lines.append(pad + line)
        if self.nested_trip:
            lines.append("    }")
        lines.append("}")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trip": self.trip,
            "stride": self.stride,
            "offset": self.offset,
            "pragma": self.pragma,
            "nested_trip": self.nested_trip,
            "stmts": [s.to_dict() for s in self.stmts],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LoopSpec":
        return cls(
            trip=int(data["trip"]),
            stride=int(data.get("stride", 1)),
            offset=int(data.get("offset", 0)),
            pragma=bool(data.get("pragma", True)),
            nested_trip=int(data.get("nested_trip", 0)),
            stmts=tuple(
                StmtSpec.from_dict(s) for s in data.get("stmts", [])
            ),
        )


@dataclass(frozen=True)
class ProgramSpec:
    """A whole fuzz program: loops plus the input-data seed."""

    loops: Tuple[LoopSpec, ...]
    input_seed: int = 0

    def __post_init__(self):
        if not self.loops:
            raise FuzzError("program has no loops")
        if isinstance(self.loops, list):
            object.__setattr__(self, "loops", tuple(self.loops))

    def render(self) -> str:
        """Frog source for this spec (deterministic)."""
        lines = [
            "fn main(a: ptr<int>, b: ptr<int>, out: ptr<int>) {",
            "    var acc: int = 0;",
        ]
        for index, loop in enumerate(self.loops):
            for line in loop.render(index):
                lines.append("    " + line)
        lines.append(f"    out[{ACC_SINK_INDEX}] = acc;")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def fresh_input(self):
        """``(memory, regs)`` for this input seed (deterministic).  The
        models mutate memory in place: each run takes its own copy."""
        from ..uarch.memory_state import SparseMemory

        rng = random.Random(self.input_seed)
        memory = SparseMemory()
        memory.store_int_array(
            A_BASE, [rng.randrange(1 << 16) for _ in range(INPUT_ELEMS)]
        )
        memory.store_int_array(
            B_BASE, [rng.randrange(1 << 16) for _ in range(INPUT_ELEMS)]
        )
        return memory, {"r1": A_BASE, "r2": B_BASE, "r3": OUT_BASE}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "input_seed": self.input_seed,
            "loops": [loop.to_dict() for loop in self.loops],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProgramSpec":
        try:
            loops = tuple(
                LoopSpec.from_dict(entry) for entry in data["loops"]
            )
            return cls(loops=loops, input_seed=int(data.get("input_seed", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise FuzzError(f"malformed program spec: {exc}") from exc


def generate_program(rng: random.Random) -> ProgramSpec:
    """Draw a random base program (1-3 loops, 1-3 statements each)."""
    loops = []
    for _ in range(rng.randint(1, 3)):
        stmts = tuple(
            StmtSpec(
                kind=rng.choice(STMT_KINDS),
                scale=rng.choice([1, 2, 3, 5]),
                distance=rng.choice([1, 2, 4, 8]),
            )
            for _ in range(rng.randint(1, 3))
        )
        loops.append(
            LoopSpec(
                trip=rng.randint(2, 40),
                stride=rng.choice([1, 1, 2, 4, 8]),
                offset=rng.choice([0, 0, 1, 2, 8]),
                pragma=rng.random() < 0.85,
                nested_trip=rng.choice([0, 0, 0, 2, 4]),
                stmts=stmts,
            )
        )
    return ProgramSpec(loops=tuple(loops), input_seed=rng.randrange(1 << 30))
