"""``vxbwt``: the bzip2-class block-sorting lossless codec.

Analogue of the paper's ``bzip2`` codec (Table 1).  The pipeline per block is
the classic bzip2 chain: run-length pre-pass, Burrows-Wheeler transform,
move-to-front, canonical Huffman coding.

Stream layout (little endian)::

    0   4   magic "VXB1"
    4   4   original length
    8   4   block size (maximum raw bytes per block)
    12  ... blocks, each:
            u32  raw length of this block (uncompressed bytes)
            u32  transformed length (bytes entering the BWT, after RLE)
            u32  BWT primary index
            256  Huffman code lengths for the MTF symbols
            ...  bit stream of `transformed length` Huffman symbols,
                 padded to a byte boundary
"""

from __future__ import annotations

import struct
from collections import Counter

from repro.codecs.base import Codec, CodecInfo
from repro.codecs.bitio import BitReader, BitWriter
from repro.codecs.bwt import bwt_forward, bwt_inverse, mtf_decode, mtf_encode, rle_decode, rle_encode
from repro.codecs.huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    read_lengths_header,
    write_lengths_header,
)
from repro.errors import CodecError

MAGIC = b"VXB1"
_HEADER = struct.Struct("<4sII")
_BLOCK_HEADER = struct.Struct("<III")

#: Default block size.  bzip2 uses 100 KB x level; we default lower because
#: the guest decoder's inverse BWT is the dominant cost under the VM.
DEFAULT_BLOCK_SIZE = 64 * 1024

MAX_BLOCK_SIZE = 900 * 1024


def _checked_block_size(block_size: int) -> int:
    """``block_size`` if the archived decoder accepts it, else ValueError."""
    if not 1024 <= block_size <= MAX_BLOCK_SIZE:
        raise ValueError("block size must be between 1 KB and 900 KB")
    return block_size


class VxbwtCodec(Codec):
    """bzip2-class block-sorting codec."""

    info = CodecInfo(
        name="vxbwt",
        description="BWT + MTF + Huffman ('bzip2' class) general codec",
        availability="repro.codecs.vxbwt",
        output_format="raw data",
        category="general",
        lossy=False,
    )

    def __init__(self, *, block_size: int = DEFAULT_BLOCK_SIZE):
        self._block_size = _checked_block_size(block_size)

    @property
    def magic(self) -> bytes:
        return MAGIC

    def can_encode(self, data: bytes) -> bool:
        return True

    # -- encoding ------------------------------------------------------------------

    def encode(self, data: bytes, **options) -> bytes:
        block_size = _checked_block_size(options.get("block_size", self._block_size))
        pieces = [_HEADER.pack(MAGIC, len(data), block_size)]
        for start in range(0, len(data), block_size):
            block = data[start : start + block_size]
            pieces.append(self._encode_block(block))
        if not data:
            pieces.append(self._encode_block(b""))
        return b"".join(pieces)

    def _encode_block(self, block: bytes) -> bytes:
        preprocessed = rle_encode(block)
        transformed, primary = bwt_forward(preprocessed)
        ranks = mtf_encode(transformed)

        frequencies = [0] * 256
        for rank, count in Counter(ranks).items():
            frequencies[rank] = count
        encoder = HuffmanEncoder.from_frequencies(frequencies)
        writer = BitWriter()
        for rank in ranks:
            encoder.write_symbol(writer, rank)
        writer.align_to_byte()
        return (
            _BLOCK_HEADER.pack(len(block), len(ranks), primary)
            + write_lengths_header(encoder.lengths)
            + writer.getvalue()
        )

    # -- native decoding ------------------------------------------------------------------

    def decode(self, data: bytes) -> bytes:
        if len(data) < _HEADER.size or data[:4] != MAGIC:
            raise CodecError("not a vxbwt stream")
        _, original_length, block_size = _HEADER.unpack_from(data, 0)
        if block_size > MAX_BLOCK_SIZE:
            raise CodecError("vxbwt block size exceeds the supported maximum")
        offset = _HEADER.size
        reader = BitReader(data)
        output = bytearray()
        while len(output) < original_length or (original_length == 0 and offset < len(data)):
            if offset + _BLOCK_HEADER.size > len(data):
                raise CodecError("truncated vxbwt block header")
            raw_length, transformed_length, primary = _BLOCK_HEADER.unpack_from(data, offset)
            offset += _BLOCK_HEADER.size
            if transformed_length > 4 * block_size + 1024:
                raise CodecError("vxbwt block declares an implausible size")
            lengths, offset = read_lengths_header(data, offset, 256)
            reader.position = offset * 8
            ranks = bytearray()
            HuffmanDecoder(lengths).decode_into(reader, ranks, transformed_length)
            reader.align_to_byte()
            offset = reader.byte_position
            transformed = mtf_decode(bytes(ranks))
            preprocessed = bwt_inverse(transformed, primary)
            block = rle_decode(preprocessed)
            if len(block) != raw_length:
                raise CodecError(
                    f"vxbwt block decoded to {len(block)} bytes, header says {raw_length}"
                )
            output.extend(block)
            if original_length == 0:
                break
        if len(output) != original_length:
            raise CodecError("vxbwt stream did not decode to its declared length")
        return bytes(output)

    # -- guest decoder -----------------------------------------------------------------------

    def guest_units(self):
        from repro.codecs.guest import vxbwt_guest_units

        return vxbwt_guest_units()
