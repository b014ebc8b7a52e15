"""``vxz``: the deflate-class general-purpose lossless codec.

This is the analogue of the paper's ``zlib`` codec (Table 1): LZ77 string
matching over a 32 KB window followed by canonical Huffman coding of
literal/length and distance symbols, using DEFLATE's slot-plus-extra-bits
ranges.  It is the archiver's default codec for files of unrecognised type.

Stream layout (all integers little endian)::

    0   4   magic "VXZ1"
    4   4   original (uncompressed) length
    8   286 literal/length code lengths (one byte per symbol)
    294 30  distance code lengths
    324 ... bit stream: Huffman-coded symbols; literal 0..255, 256 = end of
            stream, 257+i = length slot i followed by its extra bits and a
            distance symbol with its extra bits

The native decoder is one loop with the Huffman table step written in for
both alphabets (:mod:`repro.codecs.huffman`): nine bits from the reader's
two-byte windows per symbol, extra bits from three bytes, and the reader's
bit-at-a-time walk for long codes and the last bytes of the stream.  A match
that does not overlap its source is copied as one slice, one that does as
its last ``distance`` bytes repeated.
"""

from __future__ import annotations

import struct

from repro.codecs.base import Codec, CodecInfo
from repro.codecs.bitio import BitReader, BitWriter
from repro.codecs.huffman import (
    FAST_MASK,
    HuffmanDecoder,
    HuffmanEncoder,
    read_lengths_header,
    write_lengths_header,
)
from repro.codecs.lz77 import (
    DISTANCE_SLOTS,
    END_OF_BLOCK,
    LENGTH_SLOTS,
    NUM_DISTANCE_SYMBOLS,
    NUM_LITLEN_SYMBOLS,
    distance_to_slot,
    length_to_slot,
    tokenize,
)
from repro.errors import CodecError

MAGIC = b"VXZ1"
_HEADER = struct.Struct("<4sI")

#: Output size guard for the native decoder (the guest decoder is bounded by
#: the VM's output budget instead).
MAX_OUTPUT = 1 << 31


class VxzCodec(Codec):
    """Deflate-class general purpose codec (zlib analogue)."""

    info = CodecInfo(
        name="vxz",
        description="LZ77 + canonical Huffman ('deflate' class) general codec",
        availability="repro.codecs.vxz",
        output_format="raw data",
        category="general",
        lossy=False,
    )

    def __init__(self, *, max_chain: int = 64, lazy: bool = True):
        self._max_chain = max_chain
        self._lazy = lazy

    @property
    def magic(self) -> bytes:
        return MAGIC

    def can_encode(self, data: bytes) -> bool:
        # The general-purpose codec accepts anything.
        return True

    # -- encoding -----------------------------------------------------------------

    def encode(self, data: bytes, **options) -> bytes:
        max_chain = options.get("max_chain", self._max_chain)
        tokens = tokenize(data, max_chain=max_chain, lazy=self._lazy)

        litlen_freq = [0] * NUM_LITLEN_SYMBOLS
        dist_freq = [0] * NUM_DISTANCE_SYMBOLS
        # A literal stays its byte; a match becomes its two slot codes.
        staged: list[int | tuple[tuple[int, int, int], tuple[int, int, int]]] = []
        for token in tokens:
            if isinstance(token, int):
                litlen_freq[token] += 1
                staged.append(token)
            else:
                length_code = length_to_slot(token[0])
                dist_code = distance_to_slot(token[1])
                litlen_freq[257 + length_code[0]] += 1
                dist_freq[dist_code[0]] += 1
                staged.append((length_code, dist_code))
        litlen_freq[END_OF_BLOCK] += 1

        litlen_encoder = HuffmanEncoder.from_frequencies(litlen_freq)
        dist_encoder = HuffmanEncoder.from_frequencies(dist_freq)

        writer = BitWriter()
        for entry in staged:
            if isinstance(entry, int):
                litlen_encoder.write_symbol(writer, entry)
                continue
            (length_slot, length_bits, length_extra), (dist_slot, dist_bits, dist_extra) = entry
            litlen_encoder.write_symbol(writer, 257 + length_slot)
            writer.write_bits(length_extra, length_bits)
            dist_encoder.write_symbol(writer, dist_slot)
            writer.write_bits(dist_extra, dist_bits)
        litlen_encoder.write_symbol(writer, END_OF_BLOCK)

        return (
            _HEADER.pack(MAGIC, len(data))
            + write_lengths_header(litlen_encoder.lengths)
            + write_lengths_header(dist_encoder.lengths)
            + writer.getvalue()
        )

    # -- native decoding ----------------------------------------------------------------

    def decode(self, data: bytes) -> bytes:
        if len(data) < _HEADER.size or data[:4] != MAGIC:
            raise CodecError("not a vxz stream")
        (_, original_length) = _HEADER.unpack_from(data, 0)
        if original_length > MAX_OUTPUT:
            raise CodecError("vxz stream declares an implausible output size")
        offset = _HEADER.size
        litlen_lengths, offset = read_lengths_header(data, offset, NUM_LITLEN_SYMBOLS)
        dist_lengths, offset = read_lengths_header(data, offset, NUM_DISTANCE_SYMBOLS)
        litlen_decoder = HuffmanDecoder(litlen_lengths)
        dist_decoder = HuffmanDecoder(dist_lengths)
        litlen_table = litlen_decoder.table
        dist_table = dist_decoder.table
        reader = BitReader(data, start=offset)
        windows = reader.windows
        position = reader.position

        output = bytearray()
        append = output.append
        while True:
            try:
                entry = litlen_table[windows[position >> 3] >> (position & 7) & FAST_MASK]
            except IndexError:
                entry = 0
            if entry:
                position += entry & 15
                symbol = entry >> 4
            else:
                reader.position = position
                symbol = litlen_decoder.walk(reader)
                position = reader.position
            if symbol < 256:
                append(symbol)
                continue
            if symbol == END_OF_BLOCK:
                break
            slot = symbol - 257
            if slot >= len(LENGTH_SLOTS):
                raise CodecError("invalid length symbol in vxz stream")
            base, extra_bits = LENGTH_SLOTS[slot]
            # Extra bits (at most 13) come from three bytes while three remain.
            here = position >> 3
            try:
                length = base + ((windows[here] | data[here + 2] << 16)
                                 >> (position & 7) & ((1 << extra_bits) - 1))
                position += extra_bits
            except IndexError:
                reader.position = position
                length = base + reader.read_bits(extra_bits)
                position = reader.position
            try:
                entry = dist_table[windows[position >> 3] >> (position & 7) & FAST_MASK]
            except IndexError:
                entry = 0
            if entry:
                position += entry & 15
                dist_slot = entry >> 4
            else:
                reader.position = position
                dist_slot = dist_decoder.walk(reader)
                position = reader.position
            base, extra_bits = DISTANCE_SLOTS[dist_slot]
            here = position >> 3
            try:
                distance = base + ((windows[here] | data[here + 2] << 16)
                                   >> (position & 7) & ((1 << extra_bits) - 1))
                position += extra_bits
            except IndexError:
                reader.position = position
                distance = base + reader.read_bits(extra_bits)
                position = reader.position
            size = len(output)
            if distance > size:
                raise CodecError("vxz match reaches before the start of output")
            if size + length > MAX_OUTPUT:
                raise CodecError("vxz output exceeds the size limit")
            start = size - distance
            if distance >= length:
                output += output[start : start + length]
            else:
                # An overlapping match repeats its last ``distance`` bytes.
                output += (output[start:] * (length // distance + 1))[:length]
        if len(output) != original_length:
            raise CodecError(
                f"vxz stream decoded to {len(output)} bytes, header says {original_length}"
            )
        return bytes(output)

    # -- guest decoder ---------------------------------------------------------------------

    def guest_units(self):
        from repro.codecs.guest import vxz_guest_units

        return vxz_guest_units()

