"""Byte-addressable sparse memory used by all functional models.

The SSB tracks speculative state at *byte granule* granularity (paper
section 4.1.1), so the functional model is byte addressed too.  Values are
stored little-endian.  Floating-point data is stored as IEEE-754 doubles
(8 bytes) or singles (4 bytes) via :mod:`struct`.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Optional, Tuple

MASK64 = (1 << 64) - 1


def to_signed(value: int, bits: int = 64) -> int:
    """Interpret ``value`` (unsigned) as a two's-complement signed integer."""
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def to_unsigned(value: int, bits: int = 64) -> int:
    """Two's-complement encode a (possibly negative) integer."""
    return value & ((1 << bits) - 1)


def float_to_bits(value: float, size: int = 8) -> int:
    """IEEE-754 encode ``value`` into an unsigned integer of ``size`` bytes."""
    fmt = "<d" if size == 8 else "<f"
    return int.from_bytes(struct.pack(fmt, value), "little")


def bits_to_float(bits: int, size: int = 8) -> float:
    """Decode an unsigned integer of ``size`` bytes into a float."""
    fmt = "<d" if size == 8 else "<f"
    return struct.unpack(fmt, bits.to_bytes(size, "little"))[0]


class SparseMemory:
    """A sparse, byte-addressable memory.

    Unwritten bytes read as zero.  All integer values returned by
    :meth:`load` are unsigned; callers sign-extend if needed.
    """

    def __init__(self, initial: Optional[Dict[int, int]] = None):
        self._bytes: Dict[int, int] = dict(initial or {})

    def load(self, addr: int, size: int) -> int:
        """Read ``size`` bytes at ``addr`` as an unsigned little-endian int."""
        data = self._bytes
        value = 0
        for i in range(size):
            value |= data.get(addr + i, 0) << (8 * i)
        return value

    def store(self, addr: int, size: int, value: int) -> None:
        """Write ``size`` bytes of ``value`` (two's-complement) at ``addr``."""
        value &= (1 << (8 * size)) - 1
        data = self._bytes
        for i in range(size):
            data[addr + i] = (value >> (8 * i)) & 0xFF

    def load_bytes(self, addr: int, size: int) -> Tuple[int, ...]:
        """The raw bytes in [addr, addr+size)."""
        return tuple(self._bytes.get(addr + i, 0) for i in range(size))

    def store_byte(self, addr: int, value: int) -> None:
        self._bytes[addr] = value & 0xFF

    def load_byte(self, addr: int) -> int:
        return self._bytes.get(addr, 0)

    # Typed convenience accessors (used by workload setup and result checks).

    def load_int(self, addr: int, size: int = 8, signed: bool = True) -> int:
        value = self.load(addr, size)
        return to_signed(value, 8 * size) if signed else value

    def store_int(self, addr: int, value: int, size: int = 8) -> None:
        self.store(addr, size, to_unsigned(value, 8 * size))

    def load_float(self, addr: int, size: int = 8) -> float:
        return bits_to_float(self.load(addr, size), size)

    def store_float(self, addr: int, value: float, size: int = 8) -> None:
        self.store(addr, size, float_to_bits(value, size))

    # The array writers pack every value first and write the bytes in one
    # update: the same bytes, in the same insertion order, as a loop of
    # store_int/store_float calls.  Order matters — the engine's cache
    # warm-up replays written_addresses() in order.

    def store_int_array(self, addr: int, values: Iterable[int], size: int = 8) -> int:
        """Lay out ``values`` contiguously from ``addr``; returns end address."""
        mask = (1 << (8 * size)) - 1
        data = b"".join((v & mask).to_bytes(size, "little") for v in values)
        return self._store_data(addr, data)

    def store_float_array(
        self, addr: int, values: Iterable[float], size: int = 8
    ) -> int:
        values = tuple(values)
        fmt = "d" if size == 8 else "f"
        return self._store_data(addr, struct.pack(f"<{len(values)}{fmt}", *values))

    def _store_data(self, addr: int, data: bytes) -> int:
        end = addr + len(data)
        self._bytes.update(zip(range(addr, end), data))
        return end

    def load_int_array(
        self, addr: int, count: int, size: int = 8, signed: bool = True
    ) -> list:
        return [self.load_int(addr + i * size, size, signed) for i in range(count)]

    def load_float_array(self, addr: int, count: int, size: int = 8) -> list:
        return [self.load_float(addr + i * size, size) for i in range(count)]

    def copy(self) -> "SparseMemory":
        return SparseMemory(self._bytes)

    def __len__(self) -> int:
        """Number of distinct bytes ever written."""
        return len(self._bytes)

    def written_addresses(self) -> Iterable[int]:
        return self._bytes.keys()

    def image(self) -> Dict[int, int]:
        """Every written byte as ``{addr: value}``, in write order."""
        return dict(self._bytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMemory):
            return NotImplemented
        # Compare ignoring explicit zero bytes (unwritten reads as zero).
        mine = {a: b for a, b in self._bytes.items() if b}
        theirs = {a: b for a, b in other._bytes.items() if b}
        return mine == theirs

    def __hash__(self):  # pragma: no cover - mutable container
        raise TypeError("SparseMemory is unhashable")
