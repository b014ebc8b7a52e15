"""Unit tests for the guest memory sandbox."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryFault, ResourceLimitExceeded
from repro.vm.memory import (
    CHECK_FULL,
    CHECK_NONE,
    CHECK_WRITE_ONLY,
    GUEST_ADDRESS_SPACE_LIMIT,
    GuestMemory,
)


def test_basic_load_store_round_trip():
    memory = GuestMemory(4096)
    memory.store32(0, 0x11223344)
    assert memory.load32(0) == 0x11223344
    assert memory.load16u(0) == 0x3344
    assert memory.load8u(3) == 0x11
    memory.store16(100, 0xBEEF)
    assert memory.load16u(100) == 0xBEEF
    memory.store8(200, 0xAB)
    assert memory.load8u(200) == 0xAB


def test_signed_loads():
    memory = GuestMemory(4096)
    memory.store8(0, 0xFF)
    memory.store16(2, 0x8000)
    assert memory.load8s(0) == -1
    assert memory.load16s(2) == -32768
    memory.store8(4, 0x7F)
    assert memory.load8s(4) == 127


def test_little_endian_layout():
    memory = GuestMemory(64)
    memory.store32(0, 0x0A0B0C0D)
    assert memory.load8u(0) == 0x0D
    assert memory.load8u(3) == 0x0A


def test_out_of_bounds_read_faults():
    memory = GuestMemory(4096)
    with pytest.raises(MemoryFault):
        memory.load32(4096)
    with pytest.raises(MemoryFault):
        memory.load32(4093)  # straddles the end
    with pytest.raises(MemoryFault):
        memory.load8u(1 << 20)


def test_out_of_bounds_write_faults():
    memory = GuestMemory(4096)
    with pytest.raises(MemoryFault):
        memory.store8(4096, 1)
    with pytest.raises(MemoryFault):
        memory.store32(4094, 1)


def test_write_only_policy_still_blocks_writes():
    memory = GuestMemory(4096, check_policy=CHECK_WRITE_ONLY)
    with pytest.raises(MemoryFault):
        memory.store32(1 << 20, 1)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        GuestMemory(4096, check_policy="sometimes")


def test_grow_and_limits():
    memory = GuestMemory(4096, limit=16384)
    assert memory.grow(8192) == 8192
    assert memory.size == 8192
    assert memory.grow(100) == 8192  # shrinking is a no-op
    with pytest.raises(ResourceLimitExceeded):
        memory.grow(32768)


def test_size_must_respect_architecture_ceiling():
    with pytest.raises(ValueError):
        GuestMemory(4096, limit=GUEST_ADDRESS_SPACE_LIMIT * 2)
    with pytest.raises(ValueError):
        GuestMemory(0)
    with pytest.raises(ValueError):
        GuestMemory(8192, limit=4096)


def test_bulk_helpers_validate_ranges():
    memory = GuestMemory(4096)
    memory.write_bytes(10, b"abcdef")
    assert memory.read_bytes(10, 6) == b"abcdef"
    with pytest.raises(MemoryFault):
        memory.write_bytes(4090, b"0123456789")
    with pytest.raises(MemoryFault):
        memory.read_bytes(4000, 1000)


def test_read_cstring():
    memory = GuestMemory(4096)
    memory.write_bytes(0, b"hello\x00world")
    assert memory.read_cstring(0) == b"hello"
    assert memory.read_cstring(6) == b"world"


def test_reset_zeroes_memory():
    memory = GuestMemory(4096)
    memory.store32(0, 0xFFFFFFFF)
    memory.reset()
    assert memory.load32(0) == 0


def test_reset_preserves_buffer_identity():
    """Regression: reset() must zero in place, not rebind the bytearray.

    The execution engines (and translated fragments) bind ``memory.buffer``
    directly; a reset that swapped in a fresh bytearray would leave them
    reading stale guest code and writing to dead memory.
    """
    memory = GuestMemory(4096)
    aliased = memory.buffer
    memory.store32(128, 0xDEADBEEF)
    memory.reset()
    assert memory.buffer is aliased
    assert not any(aliased)
    # A grown sandbox keeps both its size and its identity across reset.
    memory.grow(8192)
    grown = memory.buffer
    memory.store8(8000, 7)
    memory.reset()
    assert memory.buffer is grown
    assert memory.size == 8192 and len(memory.buffer) == 8192
    assert memory.load8u(8000) == 0


# -- the word view (``GuestMemory.words``) -------------------------------------


def test_word_view_sees_the_buffer_as_little_endian_words():
    memory = GuestMemory(4096)
    memory.store32(8, 0x0A0B0C0D)
    assert len(memory.words) == 1024 and memory.words[2] == 0x0A0B0C0D
    memory.words[3] = 0x11223344
    assert memory.load32(12) == 0x11223344 and memory.load8u(12) == 0x44
    with pytest.raises(IndexError):
        memory.words[1024]


def test_grow_releases_the_exported_view_and_covers_the_new_size():
    """A ``bytearray`` with a live export cannot be resized: ``grow`` must
    release the view first (no ``BufferError``) and hand out a new one."""
    memory = GuestMemory(4096, limit=16384)
    buffer, old = memory.buffer, memory.words
    old[1023] = 7
    assert memory.grow(8192) == 8192
    assert memory.buffer is buffer and memory.words is not old
    with pytest.raises(ValueError):           # released, not merely stale
        old[0]
    assert len(memory.words) == 2048 and memory.words[1023] == 7
    memory.words[2047] = 9
    assert memory.load32(8188) == 9
    # A refused growth leaves the live view alone.
    current = memory.words
    with pytest.raises(ResourceLimitExceeded):
        memory.grow(32768)
    assert memory.grow(100) == 8192
    assert memory.words is current and current[2047] == 9


@pytest.mark.parametrize("tail", [1, 2, 3])
def test_a_size_that_is_no_multiple_of_four_keeps_its_tail_bytes(tail):
    """The view is the whole-word prefix: the tail stays reachable by byte
    accesses, the last whole word by the view, and no word straddles in."""
    memory = GuestMemory(4096 + tail, limit=16384)
    assert len(memory.buffer) == 4096 + tail and len(memory.words) == 1024
    memory.store8(4096 + tail - 1, 0xAB)
    assert memory.load8u(4096 + tail - 1) == 0xAB
    memory.words[1023] = 0xCAFEF00D
    assert memory.load32(4092) == 0xCAFEF00D
    with pytest.raises(IndexError):
        memory.words[1024]
    with pytest.raises(MemoryFault):
        memory.load32(4096)
    memory.grow(8192 + tail)
    assert len(memory.words) == 2048 and memory.load8u(4096 + tail - 1) == 0xAB


def test_reset_keeps_the_view_and_zeroes_through_it():
    memory = GuestMemory(4096 + 2)
    view = memory.words
    view[5] = 0xFFFFFFFF
    memory.store8(4097, 1)
    memory.reset()                            # equal-length slices: no resize
    assert memory.words is view and view[5] == 0 and not any(memory.buffer)
    view[5] = 3
    assert memory.load32(20) == 3


def test_translator_survives_in_place_memory_reset():
    """An engine binding taken before reset() still sees live memory."""
    from repro.vm.translator import Translator

    memory = GuestMemory(4096)
    # hand-encode: movi r1, 7  (0x10, reg, imm32) ; halt (0x00)
    code = bytes([0x10, 1]) + (7).to_bytes(4, "little") + bytes([0x00])
    memory.write_bytes(0, code)
    translator = Translator(memory, 0, len(code), text=code)
    before = translator.translate(0).source
    memory.reset()
    memory.write_bytes(0, code)       # reload the same image in place
    after = translator.translate(0).source
    assert before == after


@given(
    address=st.integers(min_value=0, max_value=4092),
    value=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_store_load_round_trip_property(address, value):
    """Property: any 32-bit value stored in bounds is read back identically."""
    memory = GuestMemory(4096, check_policy=CHECK_FULL)
    memory.store32(address, value)
    assert memory.load32(address) == value


@given(
    address=st.integers(min_value=-(2**31), max_value=2**32),
    size=st.sampled_from([1, 2, 4]),
)
def test_no_access_escapes_the_sandbox_property(address, size):
    """Property: every access is either in bounds or faults; none escapes."""
    memory = GuestMemory(4096)
    loaders = {1: memory.load8u, 2: memory.load16u, 4: memory.load32}
    in_bounds = 0 <= address <= 4096 - size
    try:
        loaders[size](address)
        assert in_bounds
    except MemoryFault:
        assert not in_bounds


def test_check_none_policy_documented_as_unsafe():
    """The 'none' policy exists only for measuring check overhead."""
    memory = GuestMemory(4096, check_policy=CHECK_NONE)
    # Within the backing store it behaves normally.
    memory.store32(0, 5)
    assert memory.load32(0) == 5
    # Past the backing store Python itself still stops reads from escaping,
    # returning short data that triggers a fault rather than silently reading
    # host memory.
    with pytest.raises(MemoryFault):
        memory.load32(8192)
