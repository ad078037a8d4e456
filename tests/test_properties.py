"""Property-based tests (hypothesis) on core data structures and the
engine's fundamental invariant: speculation never changes semantics."""

import pickle
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_frog
from repro.uarch import BaselineCore, LoopFrogCore, SparseMemory
from repro.uarch.config import LoopFrogConfig
from repro.uarch.conflict import ConflictDetector
from repro.uarch.memory_state import (
    PAGE_SIZE,
    bits_to_float,
    float_to_bits,
    to_signed,
    to_unsigned,
)
from repro.uarch.ssb import SpeculativeStateBuffer


# ---------------------------------------------------------------------------
# SparseMemory
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.sampled_from([1, 2, 4, 8]),
)
def test_memory_roundtrip_truncates_to_size(addr, value, size):
    mem = SparseMemory()
    mem.store_int(addr, value, size)
    expected = to_signed(to_unsigned(value, 8 * size), 8 * size)
    assert mem.load_int(addr, size) == expected


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_bits_roundtrip(value):
    assert bits_to_float(float_to_bits(value)) == value


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=256),
            st.integers(min_value=0, max_value=255),
        ),
        max_size=40,
    )
)
def test_memory_byte_writes_last_wins(writes):
    mem = SparseMemory()
    model = {}
    for addr, value in writes:
        mem.store_byte(addr, value)
        model[addr] = value
    for addr, value in model.items():
        assert mem.load_byte(addr) == value


# Bulk array writers vs per-value stores.  The engine's cache warm-up and
# the fast-forward warm-up recorder consume written_addresses() in order,
# so the images must agree in key order too, not just as mappings.


def _array_writes(elements):
    """Up to three (addr, values) arrays; nearby addresses often overlap."""
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=48),
                  st.lists(elements, max_size=10)),
        min_size=1,
        max_size=3,
    )


_prefill = st.lists(
    st.tuples(st.integers(min_value=0, max_value=128),
              st.integers(min_value=0, max_value=255)),
    max_size=12,
)


def _assert_bulk_matches_per_value(bulk_store, store, writes, size, prefill):
    bulk, reference = SparseMemory(), SparseMemory()
    for mem in (bulk, reference):
        for addr, value in prefill:
            mem.store_byte(addr, value)
    for addr, values in writes:
        end = bulk_store(bulk, addr, values, size)
        for value in values:
            store(reference, addr, value, size)
            addr += size
        assert end == addr
    assert list(bulk.image().items()) == list(reference.image().items())


@given(
    _array_writes(st.integers(min_value=-(1 << 70), max_value=1 << 70)),
    st.sampled_from([1, 2, 4, 8]),
    _prefill,
)
def test_store_int_array_matches_per_value_stores(writes, size, prefill):
    _assert_bulk_matches_per_value(
        SparseMemory.store_int_array, SparseMemory.store_int,
        writes, size, prefill,
    )


@given(st.data())
def test_store_float_array_matches_per_value_stores(data):
    size = data.draw(st.sampled_from([4, 8]))
    writes = data.draw(_array_writes(st.floats(width=8 * size)))
    _assert_bulk_matches_per_value(
        SparseMemory.store_float_array, SparseMemory.store_float,
        writes, size, data.draw(_prefill),
    )


@pytest.mark.parametrize("size", [1, 2, 4, 8])
def test_store_int_array_overwrite_with_wide_and_negative_values(size):
    # The second array lands one element into the first: its bytes
    # overwrite in place, keeping their first-write position.
    writes = [
        (3, [-1, 1 << 70, -(1 << 70), 0x0123456789ABCDEF, 0]),
        (3 + size, [-2, 255, 1 << 64]),
    ]
    _assert_bulk_matches_per_value(
        SparseMemory.store_int_array, SparseMemory.store_int,
        writes, size, [(4, 9), (0, 1)],
    )


@pytest.mark.parametrize("size", [4, 8])
def test_store_float_array_overwrite_with_special_values(size):
    specials = [-0.0, float("inf"), float("-inf"), float("nan"), 1.5]
    writes = [(0, specials), (size, specials[::-1])]
    _assert_bulk_matches_per_value(
        SparseMemory.store_float_array, SparseMemory.store_float,
        writes, size, [(2, 7)],
    )


# Paged memory against a byte-dict model.  The model keeps one dict entry
# per written byte, so its key order is the first-write order that the
# pages' log must reproduce.  Addresses cluster around page edges, below
# zero too, so accesses cross pages.

_PAGE_EDGES = (0, PAGE_SIZE, 3 * PAGE_SIZE, -PAGE_SIZE, 1 << 40)
_addresses = st.builds(
    lambda edge, delta: edge + delta,
    st.sampled_from(_PAGE_EDGES),
    st.integers(min_value=-12, max_value=12),
)
_sizes = st.sampled_from([1, 2, 4, 8])
_values = st.one_of(
    st.just(0), st.integers(min_value=-(1 << 64), max_value=(1 << 64) - 1)
)
_memory_ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), _addresses, _sizes, _values),
        st.tuples(st.just("store_byte"), _addresses,
                  st.integers(min_value=0, max_value=255)),
        st.tuples(st.just("int_array"), _addresses, _sizes,
                  st.lists(_values, max_size=6)),
        st.tuples(st.just("float_array"), _addresses, st.sampled_from([4, 8]),
                  st.lists(st.floats(width=32, allow_nan=False), max_size=4)),
        st.tuples(st.just("load"), _addresses, _sizes),
    ),
    max_size=30,
)


def _apply_memory_op(memory, model, op):
    """Run ``op`` on ``memory``; write its bytes into the ``model`` dict."""
    kind, addr = op[:2]
    if kind == "store_byte":
        memory.store_byte(addr, op[2])
        model[addr] = op[2]
        return
    size = op[2]
    if kind == "load":
        expected = bytes(model.get(addr + i, 0) for i in range(size))
        assert memory.load(addr, size) == int.from_bytes(expected, "little")
        return
    if kind == "store":
        memory.store(addr, size, op[3])
        data = to_unsigned(op[3], 8 * size).to_bytes(size, "little")
    elif kind == "int_array":
        data = b"".join(
            to_unsigned(v, 8 * size).to_bytes(size, "little") for v in op[3]
        )
        assert memory.store_int_array(addr, op[3], size) == addr + len(data)
    else:
        fmt = "<d" if size == 8 else "<f"
        data = b"".join(struct.pack(fmt, v) for v in op[3])
        assert memory.store_float_array(addr, op[3], size) == addr + len(data)
    for i, byte in enumerate(data):
        model[addr + i] = byte


def _assert_matches_model(memory, model):
    for addr in model:
        assert memory.load_byte(addr) == model[addr]
        assert memory.load(addr - 3, 8) == int.from_bytes(
            bytes(model.get(addr - 3 + i, 0) for i in range(8)), "little"
        )
    assert list(memory.written_addresses()) == list(model)
    assert list(memory.image().items()) == list(model.items())
    assert memory.sorted_items() == sorted(model.items())
    assert len(memory) == len(model)


@settings(max_examples=200, deadline=None)
@given(_memory_ops, _memory_ops)
def test_paged_memory_matches_byte_dict_model(ops, copy_ops):
    memory, model = SparseMemory(), {}
    for op in ops:
        _apply_memory_op(memory, model, op)
    _assert_matches_model(memory, model)

    # == ignores written zeros: the nonzero bytes alone, written in
    # another order, make an equal memory; one changed byte does not.
    nonzero = SparseMemory()
    for addr in sorted(model, reverse=True):
        if model[addr]:
            nonzero.store_byte(addr, model[addr])
    assert memory == nonzero
    assert (memory == SparseMemory()) == (not any(model.values()))
    if model:
        addr = next(iter(model))
        nonzero.store_byte(addr, model[addr] ^ 1)
        assert memory != nonzero

    restored = pickle.loads(pickle.dumps(memory))
    _assert_matches_model(restored, model)

    clone, clone_model = memory.copy(), dict(model)
    for op in copy_ops:
        _apply_memory_op(clone, clone_model, op)
    _assert_matches_model(clone, clone_model)
    _assert_matches_model(memory, model)


def test_memory_footprint_per_written_byte():
    # One Python object per simulated byte costs ~72 bytes of heap per
    # written byte and ~40 per copy; pages cost about 2.
    size = 256 * 1024
    rng = random.Random(0)
    values = [rng.randrange(1 << 64) for _ in range(size // 8)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        memory = SparseMemory()
        memory.store_int_array(0x100000, values)
        image = tracemalloc.get_traced_memory()[0]
        clone = memory.copy()
        copied = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(memory) == len(clone) == size
    assert image - start <= 4 * size
    assert copied - image <= 4 * size


# ---------------------------------------------------------------------------
# SSB versioning: model-based test against a reference implementation
# ---------------------------------------------------------------------------


@st.composite
def ssb_operations(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),     # slot
                st.integers(min_value=0, max_value=60),    # address
                st.sampled_from([1, 2, 4, 8]),             # size
                st.integers(min_value=0, max_value=2**32), # value
            ),
            min_size=1,
            max_size=30,
        )
    )
    return ops


@given(ssb_operations())
@settings(max_examples=60, deadline=None)
def test_ssb_read_matches_reference_model(ops):
    """For any write sequence, a read by the youngest threadlet matches a
    per-byte 'newest older value wins' reference model."""
    memory = SparseMemory()
    ssb = SpeculativeStateBuffer(LoopFrogConfig(ssb_total_bytes=64 * 1024), memory)
    # Age order oldest->youngest is slot order here.
    reference = [dict() for _ in range(4)]  # per-slot byte maps
    for slot, addr, size, value in ops:
        if not ssb.write(slot, addr, size, value, writer=None):
            continue
        for i in range(size):
            reference[slot][addr + i] = (value >> (8 * i)) & 0xFF

    for addr in range(0, 64):
        result = ssb.read(addr, 1, older_slots=[2, 1, 0], own_slot=3)
        expected = None
        for slot in (3, 2, 1, 0):
            if addr in reference[slot]:
                expected = reference[slot][addr]
                break
        if expected is None:
            expected = memory.load_byte(addr)
        assert result.value == expected


# ---------------------------------------------------------------------------
# Conflict detector vs Bloom variant: no false negatives
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.booleans(),                                # read?
            st.integers(min_value=0, max_value=2),        # slot
            st.integers(min_value=0, max_value=100),      # addr
            st.sampled_from([1, 4, 8]),
        ),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=60, deadline=None)
def test_bloom_detector_flags_superset_of_exact(ops):
    exact = ConflictDetector(4, 4)
    bloom = ConflictDetector(4, 4, use_bloom=True, bloom_bits=2048)
    exact_victims = []
    bloom_victims = []
    for is_read, slot, addr, size in ops:
        if is_read:
            exact.on_speculative_read(slot + 1, addr, size)
            bloom.on_speculative_read(slot + 1, addr, size)
        else:
            ev = exact.on_write(slot, addr, size, [slot + 1, slot + 2][:3 - slot])
            bv = bloom.on_write(slot, addr, size, [slot + 1, slot + 2][:3 - slot])
            exact_victims.append(ev)
            bloom_victims.append(bv)
    # Bloom filters may add false conflicts but never miss a real one.
    for ev, bv in zip(exact_victims, bloom_victims):
        if ev is not None:
            assert bv is not None and bv <= ev


# ---------------------------------------------------------------------------
# Whole-system invariant: LoopFrog == functional semantics
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=24),
    st.sampled_from([1, 2, 3, 5, 8]),
)
@settings(max_examples=15, deadline=None)
def test_speculation_preserves_semantics_random_indices(seed, n, modulo):
    """Random index patterns (including heavy aliasing) must produce the
    same memory state under speculation as under the baseline."""
    source = """
    fn main(data: ptr<int>, idx: ptr<int>, n: int) {
        #pragma loopfrog
        for (var i: int = 0; i < n; i = i + 1) {
            var j: int = idx[i];
            data[j] = data[j] + i + 1;
        }
    }
    """
    program = compile_frog(source).program
    rng = random.Random(seed)
    indices = [rng.randrange(modulo) for _ in range(n)]

    def mem():
        m = SparseMemory()
        m.store_int_array(3000, indices)
        return m

    regs = {"r1": 1000, "r2": 3000, "r3": n}
    m_base, m_frog = mem(), mem()
    BaselineCore().run(program, m_base, dict(regs))
    LoopFrogCore().run(program, m_frog, dict(regs))
    assert m_base.load_int_array(1000, modulo) == m_frog.load_int_array(1000, modulo)
