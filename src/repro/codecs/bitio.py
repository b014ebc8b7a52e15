"""Bit-level I/O used by the entropy coders.

Bits are packed least-significant-bit first within each byte, the same
convention DEFLATE uses, so the guest decoders' bit readers (written in vxc)
and these Python implementations interoperate byte-for-byte.  The writer
ORs each write into one integer of pending bits above those already there
and moves whole bytes out to its buffer once a word's worth is pending, so a
write costs a few integer operations whatever its width.  The reader
mirrors the guest's: multi-bit reads cut from a window of whole bytes while
enough bytes remain, one bit at a time near the end of the stream.  For the
Huffman decode loops it also holds every two-byte window of its data in one
``array('H')``, built once from two unaligned reads of the whole string: a
loop indexes it with a bit position of its own, meets ``IndexError`` where
fewer than two bytes remain, and hands the position back through
:attr:`BitReader.position` before calling the reader's bit-at-a-time paths.
"""

from __future__ import annotations

import sys
from array import array

from repro.errors import CodecError

#: Pending bits at which the writer moves whole bytes to its buffer.
_FLUSH_BITS = 64


class BitWriter:
    """Accumulates bits LSB-first and yields bytes."""

    def __init__(self):
        self._buffer = bytearray()
        self._pending = 0        # bits not yet in the buffer, first one lowest
        self._pending_count = 0

    def write_bit(self, bit: int) -> None:
        if bit:
            self._pending |= 1 << self._pending_count
        self._pending_count += 1
        if self._pending_count >= _FLUSH_BITS:
            self._flush()

    def write_bits(self, value: int, count: int) -> None:
        """Write ``count`` bits of ``value``, least significant bit first."""
        if count < 0 or value < 0:
            raise CodecError("bit writes must be non-negative")
        self._pending |= (value & ((1 << count) - 1)) << self._pending_count
        self._pending_count += count
        if self._pending_count >= _FLUSH_BITS:
            self._flush()

    def write_code(self, code: int, length: int) -> None:
        """Write a Huffman code: most significant bit of the code first.

        Canonical Huffman codes are defined MSB-first; emitting them this way
        lets the decoder either consume one bit at a time and compare against
        the canonical first-code boundaries, or index a table with the next
        few bits, in which a short code appears bit-reversed
        (:class:`~repro.codecs.huffman.HuffmanDecoder` does both).  The code
        goes out as one write of its bits reversed.
        """
        if length > 0:
            self.write_bits(reverse_bits(code, length), length)

    def align_to_byte(self) -> None:
        self._pending_count = (self._pending_count + 7) & ~7
        if self._pending_count >= _FLUSH_BITS:
            self._flush()

    def getvalue(self) -> bytes:
        """Return all complete bytes, padding the final partial byte with zeros."""
        return bytes(self._buffer) + self._pending.to_bytes(
            (self._pending_count + 7) >> 3, "little")

    @property
    def bit_length(self) -> int:
        return len(self._buffer) * 8 + self._pending_count

    def _flush(self) -> None:
        """Move the whole bytes of the pending bits to the buffer."""
        whole = self._pending_count >> 3
        bits = whole << 3
        self._buffer += (self._pending & ((1 << bits) - 1)).to_bytes(whole, "little")
        self._pending >>= bits
        self._pending_count -= bits


def reverse_bits(value: int, count: int) -> int:
    """The low ``count`` bits of ``value`` in reverse order (``count >= 1``)."""
    return int(f"{value & ((1 << count) - 1):0{count}b}"[::-1], 2)


class BitReader:
    """Reads bits LSB-first from a byte string."""

    def __init__(self, data: bytes, start: int = 0):
        self._data = data
        self._byte_position = start
        self._bit_position = 0
        self._windows: array | None = None

    def read_bit(self) -> int:
        if self._byte_position >= len(self._data):
            raise CodecError("bit stream exhausted")
        bit = (self._data[self._byte_position] >> self._bit_position) & 1
        self._bit_position += 1
        if self._bit_position == 8:
            self._bit_position = 0
            self._byte_position += 1
        return bit

    def read_bits(self, count: int) -> int:
        """Read ``count`` bits, the first one least significant.

        Three bytes hold the next 17 bits whatever the bit position, so while
        three remain up to 17 are cut from one window; otherwise bit by bit,
        raising where the stream ends (the guest's ``br_bits`` is the same).
        """
        data = self._data
        position = self._byte_position
        if count <= 17 and len(data) - position >= 3:
            window = data[position] | data[position + 1] << 8 | data[position + 2] << 16
            bits = self._bit_position
            value = (window >> bits) & ((1 << count) - 1)
            bits += count
            self._byte_position = position + (bits >> 3)
            self._bit_position = bits & 7
            return value
        value = 0
        for position in range(count):
            value |= self.read_bit() << position
        return value

    @property
    def windows(self) -> array:
        """``windows[i]`` is ``data[i] | data[i + 1] << 8`` for every ``i``
        that has two bytes from it on, built once per reader: a decode loop
        cuts the next nine bits or more from ``windows[p >> 3] >> (p & 7)``
        and meets ``IndexError`` where fewer than two bytes remain."""
        if self._windows is None:
            self._windows = _two_byte_windows(self._data)
        return self._windows

    @property
    def position(self) -> int:
        """Bits read from the start of the data; a decode loop that ran over
        :attr:`windows` sets it back before any other read."""
        return self._byte_position * 8 + self._bit_position

    @position.setter
    def position(self, bits: int) -> None:
        self._byte_position = bits >> 3
        self._bit_position = bits & 7

    def align_to_byte(self) -> None:
        if self._bit_position:
            self._bit_position = 0
            self._byte_position += 1

    def read_bytes(self, count: int) -> bytes:
        """Byte-aligned raw read."""
        self.align_to_byte()
        end = self._byte_position + count
        if end > len(self._data):
            raise CodecError("byte stream exhausted")
        chunk = self._data[self._byte_position : end]
        self._byte_position = end
        return chunk

    @property
    def bits_remaining(self) -> int:
        return (len(self._data) - self._byte_position) * 8 - self._bit_position

    @property
    def byte_position(self) -> int:
        return self._byte_position


def _two_byte_windows(data: bytes) -> array:
    """The little-endian 16-bit value at every byte offset of ``data`` that
    has two bytes from it on: the even offsets and the odd ones are each one
    unaligned read of the whole string, interleaved by slice assignment."""
    count = len(data) - 1
    if count <= 0:
        return array("H")
    view = memoryview(data)
    even, odd = array("H"), array("H")
    even.frombytes(view[: 2 * ((count + 1) >> 1)])
    odd.frombytes(view[1 : 1 + 2 * (count >> 1)])
    if sys.byteorder == "big":
        even.byteswap()
        odd.byteswap()
    windows = array("H", [0]) * count
    windows[0::2] = even
    windows[1::2] = odd
    return windows


def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one (0, -1, 1, -2, ... -> 0, 1, 2, 3)."""
    return (value << 1) ^ (value >> 31) if value < 0 else value << 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def write_uvarint(buffer: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise CodecError("uvarint cannot encode negative values")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buffer.append(byte | 0x80)
        else:
            buffer.append(byte)
            return


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; returns ``(value, next_offset)``."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 35:
            raise CodecError("varint too long")
