"""Sandboxed guest memory for the VXA virtual machine.

The paper's vx32 gives each decoder a flat, unsegmented address space that
starts at virtual address 0 and is at most 1 GB, enforced with x86 segment
registers (section 4.1).  Here the same property -- a decoder can only ever
read or write its own sandbox -- is enforced in software by bounds-checking
every access.

The check policy is configurable to reproduce the software-fault-isolation
ablation discussed in section 6.3: ``full`` checks both loads and stores
(the paper argues this is required for VXA because a malicious decoder could
otherwise *read* leftover secrets out of the archive reader's address space
and leak them into its output stream), while ``write-only`` checks only
stores, the cheaper policy measured at ~4% overhead on RISC SFI systems.
"""

from __future__ import annotations

from typing import NoReturn

from repro.errors import MemoryFault, ResourceLimitExceeded

#: Hard ceiling on guest address space size (paper section 4.1).
GUEST_ADDRESS_SPACE_LIMIT = 1 << 30

#: Default sandbox size given to decoders; decoders grow it with ``setperm``.
DEFAULT_MEMORY_SIZE = 4 << 20

CHECK_FULL = "full"
CHECK_WRITE_ONLY = "write-only"
CHECK_NONE = "none"

_VALID_POLICIES = (CHECK_FULL, CHECK_WRITE_ONLY, CHECK_NONE)

#: What :meth:`GuestMemory.reset` copies over the sandbox, block by block.
_ZEROS = bytes(64 << 10)


class GuestMemory:
    """A decoder's flat address space.

    The backing store is a single ``bytearray``.  Addresses are guest-virtual
    and start at zero.  ``setperm`` (the heap-growth virtual system call)
    extends the accessible region up to ``limit``.

    ``words`` is the same store as native 32-bit words: one ``memoryview`` of
    the whole-word prefix of ``buffer``, so on a little-endian host ``words[i]``
    is the word at byte ``4 * i`` and raises ``IndexError`` exactly when those
    four bytes are not all inside the sandbox.  A ``bytearray`` with a live
    export cannot be resized: :meth:`grow` releases the view and makes a new
    one, and nobody else may export ``buffer``.  So hold ``words`` no longer
    than the sandbox keeps its size: a fragment reads it at entry and its
    trace ends at ``vxcall``, the only instruction that can grow the sandbox.
    """

    __slots__ = ("buffer", "words", "size", "limit", "check_policy", "_check_reads", "_check_writes")

    def __init__(
        self,
        size: int = DEFAULT_MEMORY_SIZE,
        *,
        limit: int = GUEST_ADDRESS_SPACE_LIMIT,
        check_policy: str = CHECK_FULL,
    ):
        if size <= 0:
            raise ValueError("guest memory size must be positive")
        if limit > GUEST_ADDRESS_SPACE_LIMIT:
            raise ValueError("guest memory limit exceeds the 1 GB architecture ceiling")
        if size > limit:
            raise ValueError("initial guest memory size exceeds its limit")
        if check_policy not in _VALID_POLICIES:
            raise ValueError(f"unknown check policy {check_policy!r}")
        self.buffer = bytearray(size)
        self.words = self._word_view()
        self.size = size
        self.limit = limit
        self.check_policy = check_policy
        self._check_reads = check_policy == CHECK_FULL
        self._check_writes = check_policy in (CHECK_FULL, CHECK_WRITE_ONLY)

    # -- sandbox management -------------------------------------------------

    def _word_view(self) -> memoryview:
        # The two intermediate views die here: releasing this one ends the export.
        return memoryview(self.buffer)[:len(self.buffer) & ~3].cast("I")

    def reset(self) -> None:
        """Zero the sandbox (used when re-initialising the VM between files).

        The backing ``bytearray`` is zeroed *in place* rather than rebound:
        the execution engines and translated fragments bind the buffer object
        directly, so rebinding would leave them decoding and mutating a dead
        buffer while the live sandbox stays stale.
        """
        buffer = self.buffer
        size = len(buffer)
        # Equal-length slice assignment: no sandbox-sized temporary, no resize.
        whole = size - size % len(_ZEROS)
        for start in range(0, whole, len(_ZEROS)):
            buffer[start:start + len(_ZEROS)] = _ZEROS
        buffer[whole:] = _ZEROS[:size - whole]

    def grow(self, new_size: int) -> int:
        """Grow the accessible region to ``new_size`` bytes (``setperm``).

        Returns the new size.  Shrinking is ignored (the current size is
        returned) and growing beyond the limit raises
        :class:`ResourceLimitExceeded`.
        """
        if new_size <= self.size:
            return self.size
        if new_size > self.limit:
            raise ResourceLimitExceeded(
                f"guest requested {new_size} bytes of memory, limit is {self.limit}"
            )
        self.words.release()
        try:
            self.buffer.extend(b"\x00" * (new_size - self.size))
        finally:
            self.words = self._word_view()
        self.size = new_size
        return self.size

    # -- access checks ------------------------------------------------------

    def _fault(self, address: int, size: int, kind: str) -> NoReturn:
        raise MemoryFault(address & 0xFFFFFFFF, size, kind)

    def check_range(self, address: int, size: int, *, write: bool) -> None:
        """Validate a guest buffer range (used by the syscall layer)."""
        if address < 0 or size < 0 or address + size > self.size:
            self._fault(address, size, "write" if write else "read")

    # -- loads ---------------------------------------------------------------

    def load8u(self, address: int) -> int:
        if self._check_reads and not 0 <= address < self.size:
            self._fault(address, 1, "read")
        try:
            return self.buffer[address]
        except IndexError:
            self._fault(address, 1, "read")

    def load8s(self, address: int) -> int:
        value = self.load8u(address)
        return value - 0x100 if value >= 0x80 else value

    def load16u(self, address: int) -> int:
        if (self._check_reads and not 0 <= address <= self.size - 2) or address < 0:
            self._fault(address, 2, "read")
        chunk = self.buffer[address : address + 2]
        if len(chunk) != 2:
            self._fault(address, 2, "read")
        return chunk[0] | (chunk[1] << 8)

    def load16s(self, address: int) -> int:
        value = self.load16u(address)
        return value - 0x10000 if value >= 0x8000 else value

    def load32(self, address: int) -> int:
        if (self._check_reads and not 0 <= address <= self.size - 4) or address < 0:
            self._fault(address, 4, "read")
        chunk = self.buffer[address : address + 4]
        if len(chunk) != 4:
            self._fault(address, 4, "read")
        return int.from_bytes(chunk, "little")

    # -- stores --------------------------------------------------------------

    def store8(self, address: int, value: int) -> None:
        if self._check_writes and not 0 <= address < self.size:
            self._fault(address, 1, "write")
        try:
            self.buffer[address] = value & 0xFF
        except IndexError:
            self._fault(address, 1, "write")

    def store16(self, address: int, value: int) -> None:
        if (self._check_writes and not 0 <= address <= self.size - 2) or address < 0:
            self._fault(address, 2, "write")
        if address + 2 > len(self.buffer):
            self._fault(address, 2, "write")
        value &= 0xFFFF
        self.buffer[address] = value & 0xFF
        self.buffer[address + 1] = value >> 8

    def store32(self, address: int, value: int) -> None:
        if (self._check_writes and not 0 <= address <= self.size - 4) or address < 0:
            self._fault(address, 4, "write")
        if address + 4 > len(self.buffer):
            self._fault(address, 4, "write")
        self.buffer[address : address + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    # -- bulk access for the host (syscall layer, loader) ---------------------

    def read_bytes(self, address: int, size: int) -> bytes:
        """Copy ``size`` bytes out of guest memory (host-side helper)."""
        self.check_range(address, size, write=False)
        return bytes(self.buffer[address : address + size])

    def write_bytes(self, address: int, data: bytes) -> None:
        """Copy ``data`` into guest memory (host-side helper)."""
        self.check_range(address, len(data), write=True)
        self.buffer[address : address + len(data)] = data

    def read_cstring(self, address: int, max_length: int = 4096) -> bytes:
        """Read a NUL-terminated string (used only for stderr diagnostics)."""
        end = min(self.size, address + max_length)
        self.check_range(address, 0, write=False)
        terminator = self.buffer.find(b"\x00", address, end)
        if terminator < 0:
            terminator = end
        return bytes(self.buffer[address:terminator])
