"""Byte-addressable sparse memory used by all functional models.

The SSB tracks speculative state at *byte granule* granularity (paper
section 4.1.1), so the functional model is byte addressed too.  Values are
stored little-endian.  Floating-point data is stored as IEEE-754 doubles
(8 bytes) or singles (4 bytes) via :mod:`struct`.

Storage is paged.  Each 4 KiB page touched by a write is one
``bytearray`` of ``2 * PAGE_SIZE`` bytes: the values, then a written map
holding 1 for every byte ever written.  Unwritten bytes hold 0 in both
halves, so they read as zero without a lookup of their own, while a
written zero still counts as written.  A load or store inside one page is
one dict lookup plus a slice, and a copy or pickle copies whole pages:
about 2 bytes of host memory per simulated byte of a densely written
page, against ~72 for a dict entry per byte.

Write order is kept apart from the pages, in a first-write log of runs
``[start, stop)``: the bytes each run names were first written one after
another, in address order.  Rewriting a byte leaves the log alone, so the
log replays the same order a dict keyed by address would keep, and
:meth:`SparseMemory.written_addresses` and :meth:`SparseMemory.image`
follow it.  The engine's L2 warm-up reads the runs directly.
"""

from __future__ import annotations

import struct
from itertools import chain, starmap
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

MASK64 = (1 << 64) - 1

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS        # bytes of values per page
_OFFSET_MASK = PAGE_SIZE - 1
_ONES = b"\x01" * PAGE_SIZE       # written-map fill
_ZERO_PAGE = bytes(PAGE_SIZE)


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

    __slots__ = ("_pages", "_log", "_count")

    def __init__(self, initial: Optional[Dict[int, int]] = None):
        self._pages: Dict[int, bytearray] = {}   # page number -> page
        self._log: List[int] = []   # first-write runs: start, stop, ...
        self._count = 0             # distinct bytes ever written
        for addr, value in (initial or {}).items():
            self.store_byte(addr, value)

    def load(self, addr: int, size: int) -> int:
        """Read ``size`` bytes at ``addr`` as an unsigned little-endian int."""
        off = addr & _OFFSET_MASK
        end = off + size
        if end <= PAGE_SIZE:
            page = self._pages.get(addr >> PAGE_BITS)
            return 0 if page is None else int.from_bytes(page[off:end], "little")
        return int.from_bytes(bytes(self.load_bytes(addr, size)), "little")

    def store(self, addr: int, size: int, value: int) -> None:
        """Write ``size`` bytes of ``value`` (two's-complement) at ``addr``."""
        try:  # callers mostly pass values already in range
            data = value.to_bytes(size, "little")
        except OverflowError:
            data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        off = addr & _OFFSET_MASK
        end = off + size
        if end > PAGE_SIZE:
            self._store_data(addr, data)
            return
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            page = self._new_page(addr >> PAGE_BITS)
        page[off:end] = data
        if 0 in page[PAGE_SIZE + off : PAGE_SIZE + end]:
            self._mark_written(page, addr - off, off, end)

    def load_bytes(self, addr: int, size: int) -> Tuple[int, ...]:
        """The raw bytes in [addr, addr+size)."""
        load_byte = self.load_byte
        return tuple(load_byte(addr + i) for i in range(size))

    def store_byte(self, addr: int, value: int) -> None:
        off = addr & _OFFSET_MASK
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            page = self._new_page(addr >> PAGE_BITS)
        page[off] = value & 0xFF
        if not page[PAGE_SIZE + off]:
            # _mark_written for one byte, inline: the SSB merges a
            # committed slice into memory one byte at a time.
            page[PAGE_SIZE + off] = 1
            self._count += 1
            log = self._log
            if log and log[-1] == addr:
                log[-1] = addr + 1
            else:
                log += (addr, addr + 1)

    def load_byte(self, addr: int) -> int:
        page = self._pages.get(addr >> PAGE_BITS)
        return 0 if page is None else page[addr & _OFFSET_MASK]

    def _new_page(self, number: int) -> bytearray:
        page = self._pages[number] = bytearray(2 * PAGE_SIZE)
        return page

    def _mark_written(self, page: bytearray, base: int, off: int, end: int) -> None:
        """Mark page offsets [off, end) written, logging the new ones in
        address order (``base`` is the page's first address)."""
        log = self._log
        stop = PAGE_SIZE + end
        i = page.find(0, PAGE_SIZE + off, stop)
        while i >= 0:
            j = page.find(1, i, stop)
            if j < 0:
                j = stop
            page[i:j] = _ONES[: j - i]
            self._count += j - i
            start = base + i - PAGE_SIZE
            if log and log[-1] == start:
                log[-1] = base + j - PAGE_SIZE
            else:
                log += (start, base + j - PAGE_SIZE)
            i = page.find(0, j, stop)

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
    # update: the same bytes, in the same first-write order, as a loop of
    # store_int/store_float calls.  Order matters — the engine's cache
    # warm-up replays the first-write log in order.

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
        """Write ``data`` from ``addr`` one page-sized piece at a time."""
        end = addr + len(data)
        pos = 0
        while addr < end:
            number = addr >> PAGE_BITS
            off = addr & _OFFSET_MASK
            n = min(end - addr, PAGE_SIZE - off)
            page = self._pages.get(number)
            if page is None:
                page = self._new_page(number)
            page[off : off + n] = data[pos : pos + n]
            self._mark_written(page, addr - off, off, off + n)
            addr += n
            pos += n
        return end

    def load_int_array(
        self, addr: int, count: int, size: int = 8, signed: bool = True
    ) -> list:
        return [self.load_int(addr + i * size, size, signed) for i in range(count)]

    def load_float_array(self, addr: int, count: int, size: int = 8) -> list:
        return [self.load_float(addr + i * size, size) for i in range(count)]

    def copy(self) -> "SparseMemory":
        clone = SparseMemory.__new__(SparseMemory)
        clone._pages = {number: page[:] for number, page in self._pages.items()}
        clone._log = self._log[:]
        clone._count = self._count
        return clone

    def __len__(self) -> int:
        """Number of distinct bytes ever written."""
        return self._count

    def write_runs(self) -> Iterator[Tuple[int, int]]:
        """The first-write log: ``(start, stop)`` runs of bytes first
        written one after another, in write order."""
        log = self._log
        return zip(log[::2], log[1::2])

    def written_addresses(self) -> Iterable[int]:
        """Every written address once, in first-write order."""
        return chain.from_iterable(starmap(range, self.write_runs()))

    def image(self) -> Dict[int, int]:
        """Every written byte as ``{addr: value}``, in write order."""
        pages = self._pages
        image: Dict[int, int] = {}
        for start, stop in self.write_runs():
            while start < stop:
                off = start & _OFFSET_MASK
                n = min(stop - start, PAGE_SIZE - off)
                page = pages[start >> PAGE_BITS]
                image.update(zip(range(start, start + n), page[off : off + n]))
                start += n
        return image

    def sorted_items(self) -> List[Tuple[int, int]]:
        """Every written byte as ``(addr, value)``, in address order:
        ``sorted(self.image().items())`` read straight off the pages."""
        items: List[Tuple[int, int]] = []
        for number in sorted(self._pages):
            page = self._pages[number]
            base = (number << PAGE_BITS) - PAGE_SIZE
            i = page.find(1, PAGE_SIZE)
            while i >= 0:
                j = page.find(0, i)
                if j < 0:
                    j = 2 * PAGE_SIZE
                items += zip(range(base + i, base + j), page[i - PAGE_SIZE : j - PAGE_SIZE])
                i = page.find(1, j)
        return items

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMemory):
            return NotImplemented
        # Written zeros compare like unwritten bytes: both read as zero,
        # and both hold 0 in the values half of a page.
        mine, theirs = self._pages, other._pages
        for number in mine.keys() | theirs.keys():
            a, b = mine.get(number), theirs.get(number)
            if (_ZERO_PAGE if a is None else a[:PAGE_SIZE]) != (
                _ZERO_PAGE if b is None else b[:PAGE_SIZE]
            ):
                return False
        return True

    def __hash__(self):  # pragma: no cover - mutable container
        raise TypeError("SparseMemory is unhashable")
