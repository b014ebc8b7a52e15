"""Canonical Huffman coding.

Both general-purpose codecs (``vxz`` and ``vxbwt``) and the entropy layer of
the image codecs use length-limited canonical Huffman codes.  Only the code
*lengths* are transmitted; codes are reconstructed canonically on both sides.

Decoding, here and in the guest decoders' vxc library
(:mod:`repro.codecs.guest.lib`), is one lookup per symbol in a primary table
indexed by the next :data:`FAST_BITS` bits of the stream (the technique of
zlib's ``inflate``), with the standard count/first-code walk, one bit at a
time, behind it for longer codes and for the last byte of a stream.  The
table holds exactly what the walk would return, so both paths decode every
input to the same symbols and stop at the same bit.

Natively the table step is written into the decode loops themselves, never
called per symbol: :meth:`HuffmanDecoder.decode_into` reads a run of byte
symbols (vxbwt's ranks, the image codecs' token bytes) and ``vxz`` has a loop
of its own.  Each keeps the bit position in a local and cuts the nine bits
from the two-byte windows its :class:`~repro.codecs.bitio.BitReader` builds
once per stream; the walk, on the reader, takes the rest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from repro.codecs.bitio import BitReader, BitWriter, reverse_bits
from repro.errors import CodecError

#: Maximum code length accepted anywhere in this library (same limit as DEFLATE).
MAX_CODE_LENGTH = 15

#: Width of the primary decoding table, declared once for the native decoder
#: and the guest library.  At most 9: two bytes of stream always hold the next
#: nine bits, whatever the bit position within the first.
FAST_BITS = 9
FAST_MASK = (1 << FAST_BITS) - 1

#: ``_REVERSED[i]`` is ``i``'s FAST_BITS-bit pattern mirrored: a code of length
#: ``L`` sent MSB-first starts an LSB-first window with the bits
#: ``_REVERSED[code << (FAST_BITS - L)]``.
_REVERSED = [0] * (1 << FAST_BITS)
for _index in range(1, 1 << FAST_BITS):
    _REVERSED[_index] = (_REVERSED[_index >> 1] >> 1) | ((_index & 1) << (FAST_BITS - 1))


def build_code_lengths(frequencies: list[int], max_length: int = MAX_CODE_LENGTH) -> list[int]:
    """Compute length-limited Huffman code lengths for a frequency table.

    Symbols with zero frequency get length 0 (not coded).  If the natural
    Huffman tree exceeds ``max_length``, lengths are flattened with the
    standard heuristic (demote over-long codes, then repair the Kraft sum).
    """
    count = len(frequencies)
    active = [index for index, frequency in enumerate(frequencies) if frequency > 0]
    if not active:
        return [0] * count
    if len(active) == 1:
        lengths = [0] * count
        lengths[active[0]] = 1
        return lengths

    # Standard Huffman tree construction over a heap of (weight, tiebreak, node).
    heap = [(frequencies[index], index, index) for index in active]
    heapify(heap)
    parents: dict[int, int] = {}
    next_node = count
    while len(heap) > 1:
        weight_a, _, node_a = heappop(heap)
        weight_b, _, node_b = heappop(heap)
        parents[node_a] = next_node
        parents[node_b] = next_node
        heappush(heap, (weight_a + weight_b, next_node, next_node))
        next_node += 1

    lengths = [0] * count
    for index in active:
        depth = 0
        node = index
        while node in parents:
            node = parents[node]
            depth += 1
        lengths[index] = depth

    if max(lengths) <= max_length:
        return lengths
    return _limit_lengths(lengths, max_length)


def _limit_lengths(lengths: list[int], max_length: int) -> list[int]:
    """Clamp code lengths to ``max_length`` while keeping the Kraft sum valid."""
    clamped = [min(length, max_length) if length else 0 for length in lengths]
    # Kraft sum measured in units of 2**-max_length.
    unit = 1 << max_length
    kraft = sum(unit >> length for length in clamped if length)
    while kraft > unit:
        # Demote the deepest code shorter than max_length... classic repair:
        # find a symbol with length < max_length and increase it.
        candidates = sorted(
            (index for index, length in enumerate(clamped) if 0 < length < max_length),
            key=lambda index: clamped[index],
            reverse=True,
        )
        if not candidates:
            raise CodecError("cannot limit Huffman code lengths")
        index = candidates[0]
        clamped[index] += 1
        kraft -= unit >> clamped[index]
    return clamped


def canonical_codes(lengths: list[int]) -> list[int]:
    """Assign canonical codes (MSB-first) given code lengths."""
    max_length = max(lengths, default=0)
    length_counts = [0] * (max_length + 1)
    for length in lengths:
        if length:
            length_counts[length] += 1
    code = 0
    next_code = [0] * (max_length + 2)
    for length in range(1, max_length + 1):
        code = (code + length_counts[length - 1]) << 1
        next_code[length] = code
    codes = [0] * len(lengths)
    for symbol, length in enumerate(lengths):
        if length:
            codes[symbol] = next_code[length]
            next_code[length] += 1
            if codes[symbol] >= (1 << length):
                raise CodecError("over-subscribed Huffman code lengths")
    return codes


@dataclass
class HuffmanEncoder:
    """Canonical Huffman encoder for one alphabet.

    A code goes MSB-first into an LSB-first stream, so each symbol's code is
    kept mirrored, as the value of one :meth:`BitWriter.write_bits`.
    """

    lengths: list[int]
    codes: list[int]
    _mirrored: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._mirrored = [reverse_bits(code, length) if length else 0
                          for code, length in zip(self.codes, self.lengths)]

    @classmethod
    def from_frequencies(cls, frequencies: list[int],
                         max_length: int = MAX_CODE_LENGTH) -> "HuffmanEncoder":
        lengths = build_code_lengths(frequencies, max_length)
        return cls(lengths=lengths, codes=canonical_codes(lengths))

    @classmethod
    def from_data(cls, data: bytes) -> "HuffmanEncoder":
        frequencies = [0] * 256
        for symbol, count in Counter(data).items():
            frequencies[symbol] = count
        return cls.from_frequencies(frequencies)

    def write_symbol(self, writer: BitWriter, symbol: int) -> None:
        length = self.lengths[symbol]
        if length == 0:
            raise CodecError(f"symbol {symbol} has no code")
        writer.write_bits(self._mirrored[symbol], length)


class HuffmanDecoder:
    """Canonical Huffman decoder: a primary table of ``2**FAST_BITS`` entries
    in front of the count/first-code walk.

    This mirrors exactly the algorithm implemented in the guest decoders'
    shared vxc library, so the two stay in lock-step: the same counting sort
    into canonical order, the same table entries (``symbol << 4 | length``, 0
    for "walk instead"), the same two-byte condition for using them and the
    same walk behind them.  The guest also skips codes that do not fit their
    length, because it accepts over-subscribed lengths; this decoder rejects
    those, so every code here fits.  Codes that fit are prefix-free, so no
    two share an entry, and an entry holds exactly what the walk returns
    (``codecs/guest/lib.py`` has the argument).
    """

    def __init__(self, lengths: list[int]):
        self._lengths = lengths
        max_length = max(lengths, default=0)
        if max_length > MAX_CODE_LENGTH:
            raise CodecError("code length exceeds the supported maximum")
        counts = [0] * (max_length + 1)
        for length in lengths:
            if length:
                counts[length] += 1
        # symbols sorted by (length, symbol) -- canonical order -- in one
        # counting pass
        starts = [0] * (max_length + 1)
        position = 0
        for length in range(1, max_length + 1):
            starts[length] = position
            position += counts[length]
        symbols = [0] * position
        for symbol, length in enumerate(lengths):
            if length:
                symbols[starts[length]] = symbol
                starts[length] += 1
        self._symbols = symbols
        self._counts = counts
        self._max_length = max_length
        self.table = table = [0] * (1 << FAST_BITS)
        if max_length == 0:
            return
        # Validate the Kraft inequality so corrupt headers fail loudly.
        unit = 1 << max_length
        kraft = sum(unit >> length for length in lengths if length)
        if kraft > unit:
            raise CodecError("over-subscribed Huffman code")
        code = 0
        position = 0
        for length in range(1, min(max_length, FAST_BITS) + 1):
            count = counts[length]
            shift = FAST_BITS - length
            for symbol in symbols[position : position + count]:
                entries = [symbol << 4 | length] * (1 << shift)
                table[_REVERSED[code << shift] :: 1 << length] = entries
                code += 1
            position += count
            code <<= 1

    @property
    def is_empty(self) -> bool:
        return self._max_length == 0

    def decode_into(self, reader: BitReader, out: bytearray, count: int) -> int:
        """Read up to ``count`` symbols, appending each one below 256 to
        ``out``: return the first symbol above 255 (not appended), or -1
        once ``count`` are in.

        One loop over the reader's :attr:`~BitReader.windows`: while two
        bytes remain, the next nine bits index the primary table; a zero
        entry (a code longer than the table) and the last byte of the stream
        take :meth:`walk`.  On a ``CodecError`` the reader stands where the
        walk stopped, with ``out`` holding every symbol before it.
        """
        table = self.table
        windows = reader.windows
        walk = self.walk
        append = out.append
        position = reader.position
        for _ in range(count):
            try:
                entry = table[windows[position >> 3] >> (position & 7) & FAST_MASK]
            except IndexError:
                entry = 0
            if entry:
                position += entry & 15
                symbol = entry >> 4
            else:
                reader.position = position
                symbol = walk(reader)
                position = reader.position
            try:
                append(symbol)
            except ValueError:      # above 255: the symbol that ends the run
                reader.position = position
                return symbol
        reader.position = position
        return -1

    def walk(self, reader: BitReader) -> int:
        """The count/first-code walk, one bit at a time."""
        if self.is_empty:
            raise CodecError("cannot decode with an empty Huffman table")
        code = 0
        first = 0
        index = 0
        for length in range(1, self._max_length + 1):
            code |= reader.read_bit()
            count = self._counts[length]
            if code - first < count:
                return self._symbols[index + (code - first)]
            index += count
            first = (first + count) << 1
            code <<= 1
        raise CodecError("invalid Huffman code in stream")


def write_lengths_header(lengths: list[int]) -> bytes:
    """Serialise a code-length table (one byte per symbol)."""
    if any(length > MAX_CODE_LENGTH for length in lengths):
        raise CodecError("code length exceeds the supported maximum")
    return bytes(lengths)


def read_lengths_header(data: bytes, offset: int, count: int) -> tuple[list[int], int]:
    """Read a code-length table written by :func:`write_lengths_header`."""
    end = offset + count
    if end > len(data):
        raise CodecError("truncated Huffman length table")
    lengths = list(data[offset:end])
    if any(length > MAX_CODE_LENGTH for length in lengths):
        raise CodecError("corrupt Huffman length table")
    return lengths, end
