"""The native vxz, vxbwt and Huffman byte-stream decoders give exactly what
their symbol-at-a-time versions gave, on every input, valid or not.

In ``auto`` mode a member is decoded natively, so the native decoders must
keep to what the archive's bytes mean; how fast they read them is theirs to
change.  The decoders below are the decode path as it was before the symbol
loops were rewritten, kept verbatim as the oracle, the way
``tests/test_encoder_oracle.py`` keeps the first encoders: one
``read_symbol`` per Huffman symbol over ``peek_window``/``skip``, the inverse
BWT walked through numpy scalars, the per-byte run-length decoder, the list
move-to-front and the byte-at-a-time match copy, with both codecs' ``decode``
and ``_huffman_unpack`` as they were written around them.  Only the primary
table is built by today's :class:`HuffmanDecoder`;
``tests/test_huffman_table.py`` holds that table to the bit-by-bit walk.

Every case decodes through both paths.  Either both return the same bytes or
both refuse.  The one difference allowed is how the old path refused a
vxbwt block whose LF walk comes back to the primary row early: it wrote the
sentinel into a ``bytearray`` and raised ``ValueError``, where the current
path raises ``CodecError`` at that row (the archived decoder exits 54 there).
Nothing else may be other than a ``CodecError``.
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs import bwt, lz77
from repro.codecs.bitio import BitReader
from repro.codecs.huffman import FAST_BITS, HuffmanDecoder, read_lengths_header
from repro.codecs.lz77 import DISTANCE_SLOTS, END_OF_BLOCK, LENGTH_SLOTS
from repro.codecs.lz77 import NUM_DISTANCE_SYMBOLS, NUM_LITLEN_SYMBOLS
from repro.codecs.vxbwt import VxbwtCodec
from repro.codecs.vximg import _huffman_pack, _huffman_unpack
from repro.codecs.vxz import VxzCodec
from repro.errors import CodecError
from repro.workloads import synthetic_log_bytes, synthetic_source_tree_bytes

# -- the symbol-at-a-time decoders, verbatim ----------------------------------------

_FAST_MASK = (1 << FAST_BITS) - 1


class SeedBitReader:
    """Reads bits LSB-first from a byte string."""

    def __init__(self, data: bytes, start: int = 0):
        self._data = data
        self._byte_position = start
        self._bit_position = 0

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
        data = self._data
        position = self._byte_position
        if count <= 17 and len(data) - position >= 3:
            window = data[position] | data[position + 1] << 8 | data[position + 2] << 16
            value = (window >> self._bit_position) & ((1 << count) - 1)
            self.skip(count)
            return value
        value = 0
        for position in range(count):
            value |= self.read_bit() << position
        return value

    def peek_window(self) -> int:
        data = self._data
        position = self._byte_position
        if len(data) - position < 2:
            return -1
        return (data[position] | data[position + 1] << 8) >> self._bit_position

    def skip(self, count: int) -> None:
        bits = self._bit_position + count
        self._byte_position += bits >> 3
        self._bit_position = bits & 7

    def align_to_byte(self) -> None:
        if self._bit_position:
            self._bit_position = 0
            self._byte_position += 1

    @property
    def bits_remaining(self) -> int:
        return (len(self._data) - self._byte_position) * 8 - self._bit_position

    @property
    def byte_position(self) -> int:
        return self._byte_position


class SeedHuffmanDecoder(HuffmanDecoder):
    """Today's table, read one symbol per call."""

    def read_symbol(self, reader: SeedBitReader) -> int:
        window = reader.peek_window()
        if window >= 0:
            entry = self.table[window & _FAST_MASK]
            if entry:
                reader.skip(entry & 15)
                return entry >> 4
        return self._walk(reader)

    def _walk(self, reader: SeedBitReader) -> int:
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


def seed_bwt_inverse(last_column: bytes, primary: int) -> bytes:
    length = len(last_column)
    if length == 0:
        return b""
    if not 0 <= primary <= length:
        raise CodecError("BWT primary index out of range")
    symbols = np.empty(length + 1, dtype=np.int64)
    symbols[:primary] = np.frombuffer(last_column[:primary], dtype=np.uint8)
    symbols[primary] = -1
    symbols[primary + 1 :] = np.frombuffer(last_column[primary:], dtype=np.uint8)
    order = np.argsort(symbols, kind="stable")
    output = bytearray(length)
    row = primary
    for index in range(length):
        row = int(order[row])
        output[index] = int(symbols[row])
    return bytes(output)


def seed_mtf_decode(data: bytes) -> bytes:
    alphabet = list(range(256))
    output = bytearray(len(data))
    for index, rank in enumerate(data):
        byte = alphabet[rank]
        output[index] = byte
        if rank:
            del alphabet[rank]
            alphabet.insert(0, byte)
    return bytes(output)


def seed_rle_decode(data: bytes) -> bytes:
    output = bytearray()
    index = 0
    length = len(data)
    run = 0
    previous = -1
    while index < length:
        byte = data[index]
        index += 1
        output.append(byte)
        if byte == previous:
            run += 1
        else:
            run = 1
            previous = byte
        if run == 4:
            if index >= length:
                raise CodecError("truncated RLE run count")
            extra = data[index]
            index += 1
            output.extend(bytes([byte]) * extra)
            run = 0
            previous = -1
    return bytes(output)


def seed_vxz_decode(data: bytes) -> bytes:
    if len(data) < 8 or data[:4] != b"VXZ1":
        raise CodecError("not a vxz stream")
    (_, original_length) = struct.unpack_from("<4sI", data, 0)
    if original_length > 1 << 31:
        raise CodecError("vxz stream declares an implausible output size")
    offset = 8
    litlen_lengths, offset = read_lengths_header(data, offset, NUM_LITLEN_SYMBOLS)
    dist_lengths, offset = read_lengths_header(data, offset, NUM_DISTANCE_SYMBOLS)
    litlen_decoder = SeedHuffmanDecoder(litlen_lengths)
    dist_decoder = SeedHuffmanDecoder(dist_lengths)
    reader = SeedBitReader(data, start=offset)

    output = bytearray()
    while True:
        symbol = litlen_decoder.read_symbol(reader)
        if symbol < 256:
            output.append(symbol)
            continue
        if symbol == END_OF_BLOCK:
            break
        slot = symbol - 257
        if slot >= len(LENGTH_SLOTS):
            raise CodecError("invalid length symbol in vxz stream")
        base, extra_bits = LENGTH_SLOTS[slot]
        length = base + reader.read_bits(extra_bits)
        dist_slot = dist_decoder.read_symbol(reader)
        base, extra_bits = DISTANCE_SLOTS[dist_slot]
        distance = base + reader.read_bits(extra_bits)
        if distance > len(output):
            raise CodecError("vxz match reaches before the start of output")
        if len(output) + length > 1 << 31:
            raise CodecError("vxz output exceeds the size limit")
        start = len(output) - distance
        for index in range(length):
            output.append(output[start + index])
    if len(output) != original_length:
        raise CodecError(
            f"vxz stream decoded to {len(output)} bytes, header says {original_length}"
        )
    return bytes(output)


def seed_vxbwt_decode(data: bytes) -> bytes:
    if len(data) < 12 or data[:4] != b"VXB1":
        raise CodecError("not a vxbwt stream")
    _, original_length, block_size = struct.unpack_from("<4sII", data, 0)
    if block_size > 900 * 1024:
        raise CodecError("vxbwt block size exceeds the supported maximum")
    offset = 12
    output = bytearray()
    while len(output) < original_length or (original_length == 0 and offset < len(data)):
        if offset + 12 > len(data):
            raise CodecError("truncated vxbwt block header")
        raw_length, transformed_length, primary = struct.unpack_from("<III", data, offset)
        offset += 12
        if transformed_length > 4 * block_size + 1024:
            raise CodecError("vxbwt block declares an implausible size")
        lengths, offset = read_lengths_header(data, offset, 256)
        decoder = SeedHuffmanDecoder(lengths)
        reader = SeedBitReader(data, start=offset)
        ranks = bytearray(transformed_length)
        for index in range(transformed_length):
            ranks[index] = decoder.read_symbol(reader)
        reader.align_to_byte()
        offset = reader.byte_position
        transformed = seed_mtf_decode(bytes(ranks))
        preprocessed = seed_bwt_inverse(transformed, primary)
        block = seed_rle_decode(preprocessed)
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


def seed_huffman_unpack(data: bytes, offset: int) -> bytes:
    lengths, offset = read_lengths_header(data, offset, 257)
    decoder = SeedHuffmanDecoder(lengths)
    reader = SeedBitReader(data, start=offset)
    output = bytearray()
    while True:
        symbol = decoder.read_symbol(reader)
        if symbol == 256:
            return bytes(output)
        output.append(symbol)


# -- comparing outcomes ----------------------------------------------------------------

REJECTED = "rejected"


def new_outcome(decode, *args):
    """What the current path makes of ``args``: bytes, or a refusal, which
    must be a ``CodecError`` (anything else fails the test)."""
    try:
        return decode(*args)
    except CodecError:
        return REJECTED


def old_outcome(decode, *args):
    """What the old path made of ``args``.  Its ``ValueError`` from the LF
    walk counts as a refusal, the one difference allowed."""
    try:
        return decode(*args)
    except (CodecError, ValueError):
        return REJECTED


def assert_same(new, old, *args):
    outcome = new_outcome(new, *args)
    assert outcome == old_outcome(old, *args)
    return outcome


def vxz_decode(data: bytes) -> bytes:
    return VxzCodec().decode(data)


def vxbwt_decode(data: bytes) -> bytes:
    return VxbwtCodec().decode(data)


# -- the corpus ---------------------------------------------------------------------

BLOCK_SIZES = (1024, 4096, 64 * 1024)


def corpus() -> dict[str, bytes]:
    """Every input decoded through both paths, built from fixed seeds."""
    rng = random.Random(44)
    cases = {
        # The benchmark's text members: 12 KB slices of a synthetic tree.
        "tree-12k-a": synthetic_source_tree_bytes(12288, seed=201)[:12288],
        "tree-12k-b": synthetic_source_tree_bytes(12288, seed=202)[:12288],
        "log-4k": synthetic_log_bytes(4000, seed=203),
        "empty": b"",
        "one": b"\x00",
        "two": b"ab",
        "three": b"abc",
    }
    for run in (3, 4, 259, 260, 263):
        cases[f"run-{run}"] = b"ab" + b"x" * run + b"cd" + b"x" * run + b"y"
    repeated = rng.randbytes(258)
    cases["match-258"] = repeated + rng.randbytes(40) + repeated + b"!"
    head = rng.randbytes(16)
    cases["distance-32768"] = head + rng.randbytes(32768 - 16) + head + rng.randbytes(8)
    cases["random-70k"] = rng.randbytes(70_000)
    # Past 64 KB: two vxbwt blocks at the default block size.
    cases["zeros-100k"] = bytes(100_000)
    return cases


_CORPUS = corpus()

#: One small stream per decoder: every bit flip and every cut of it decodes
#: through both paths.
_SMALL_TEXT = synthetic_source_tree_bytes(300, seed=204)[:300] + b"\x00" * 270


def test_corpus_covers_the_boundaries():
    assert (258, 298) in lz77.tokenize(_CORPUS["match-258"])
    assert (16, 32768) in lz77.tokenize(_CORPUS["distance-32768"])
    # Runs longer than one count byte holds are cut into several runs.
    assert bwt.rle_encode(_CORPUS["run-263"]).count(b"xxxx\xff") == 2
    assert bwt.rle_encode(_SMALL_TEXT).count(b"\x00\x00\x00\x00\xff") == 1
    stream = VxbwtCodec().encode(_CORPUS["zeros-100k"])
    assert struct.unpack_from("<I", stream, 12)[0] == 64 * 1024


# -- primitives against the oracle ----------------------------------------------------


@pytest.mark.parametrize("name", list(_CORPUS))
def test_block_transforms_match_the_oracle(name):
    block = _CORPUS[name][: 64 * 1024]
    preprocessed = bwt.rle_encode(block)
    transformed, primary = bwt.bwt_forward(preprocessed)
    ranks = bwt.mtf_encode(transformed)
    assert bwt.mtf_decode(ranks) == seed_mtf_decode(ranks) == transformed
    assert (bwt.bwt_inverse(transformed, primary)
            == seed_bwt_inverse(transformed, primary) == preprocessed)
    assert bwt.rle_decode(preprocessed) == seed_rle_decode(preprocessed) == block
    for cut in range(min(len(preprocessed), 600)):
        assert_same(bwt.rle_decode, seed_rle_decode, preprocessed[:cut])


def test_every_primary_row_matches_the_oracle():
    preprocessed = bwt.rle_encode(_SMALL_TEXT)
    transformed, primary = bwt.bwt_forward(preprocessed)
    refused = 0
    for row in range(-1, len(transformed) + 2):
        refused += assert_same(bwt.bwt_inverse, seed_bwt_inverse, transformed, row) == REJECTED
    # Most wrong rows send the walk back to the primary row early.
    assert len(transformed) // 2 < refused < len(transformed) + 3


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.binary(max_size=40))
def test_rle_decode_matches_the_oracle_on_any_input(data):
    # Few byte values, so runs of four are common.
    data = bytes(byte & 3 for byte in data[: len(data) // 2]) + data[len(data) // 2 :]
    assert_same(bwt.rle_decode, seed_rle_decode, data)


@pytest.mark.parametrize("name", ["tree-12k-a", "log-4k", "random-70k", "run-263", "one"])
def test_huffman_unpack_matches_the_oracle(name):
    packed = b"VXI1" + _huffman_pack(_CORPUS[name])
    assert (assert_same(_huffman_unpack, seed_huffman_unpack, packed, 4)
            == _CORPUS[name])


def test_bit_reads_match_the_oracle():
    rng = random.Random(45)
    data = rng.randbytes(200)
    new, old = BitReader(data, start=3), SeedBitReader(data, start=3)
    while old.bits_remaining > 0:
        operation = rng.randrange(3)
        if operation == 0:
            assert new_outcome(new.read_bit) == old_outcome(old.read_bit)
        elif operation == 1:
            count = rng.randrange(0, 30)
            assert new_outcome(new.read_bits, count) == old_outcome(old.read_bits, count)
        else:
            new.align_to_byte()
            old.align_to_byte()
        assert (new.byte_position, new.bits_remaining) == (old.byte_position, old.bits_remaining)


# -- the codecs against the oracle -----------------------------------------------------


@pytest.mark.parametrize("name", list(_CORPUS))
def test_vxz_decode_matches_the_oracle(name):
    stream = VxzCodec().encode(_CORPUS[name])
    assert assert_same(vxz_decode, seed_vxz_decode, stream) == _CORPUS[name]


@pytest.mark.parametrize("name", list(_CORPUS))
def test_vxbwt_decode_matches_the_oracle(name):
    for block_size in BLOCK_SIZES:
        stream = VxbwtCodec().encode(_CORPUS[name], block_size=block_size)
        assert assert_same(vxbwt_decode, seed_vxbwt_decode, stream) == _CORPUS[name]


def _small_streams():
    """Per decoder: the current path, the old one and one small stream."""
    return {
        "vxz": (vxz_decode, seed_vxz_decode, VxzCodec().encode(_SMALL_TEXT)),
        "vxbwt": (vxbwt_decode, seed_vxbwt_decode, VxbwtCodec().encode(_SMALL_TEXT)),
        "huffman": (lambda data: _huffman_unpack(data, 4),
                    lambda data: seed_huffman_unpack(data, 4),
                    b"VXI1" + _huffman_pack(_SMALL_TEXT)),
    }


@pytest.mark.parametrize("codec", ["vxz", "vxbwt", "huffman"])
def test_every_flip_and_cut_matches_the_oracle(codec):
    new, old, stream = _small_streams()[codec]
    variants = [stream[:cut] for cut in range(len(stream))]
    for bit in range(8 * len(stream)):
        flipped = bytearray(stream)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        variants.append(bytes(flipped))
    refused = sum(assert_same(new, old, variant) == REJECTED for variant in variants)
    assert 0 < refused < len(variants)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.binary(max_size=2000))
def test_decoders_match_the_oracle_on_any_input(data):
    assert assert_same(vxz_decode, seed_vxz_decode, VxzCodec().encode(data)) == data
    stream = VxbwtCodec().encode(data, block_size=1024)
    assert assert_same(vxbwt_decode, seed_vxbwt_decode, stream) == data
    # The same bytes as a stream: nearly always refused, by both alike.
    assert_same(vxz_decode, seed_vxz_decode, b"VXZ1" + data)
    assert_same(vxbwt_decode, seed_vxbwt_decode, b"VXB1" + data)
    assert_same(_huffman_unpack, seed_huffman_unpack, data, 0)
