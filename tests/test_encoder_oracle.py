"""The native vxz and vxbwt encoders write exactly what their first versions
wrote, on every input, with every option, on every interpreter.

An archive is durable because of the bytes its encoder wrote, not how fast it
wrote them: the archived decoder only ever sees those bytes.  The encoders
below are the first versions of the encode path, kept verbatim as the
oracle -- the LZ77 parser with its ``Token`` objects and byte-at-a-time match
comparison, the bit-at-a-time ``BitWriter``, the two-key ``lexsort`` suffix
array, the loop BWT and the loop run-length pre-pass -- with the codecs'
``encode`` methods as they were written around them.  Each current
primitive, and each codec's ``encode``, must produce equal output.

The SHA-256 pins at the end were taken with those first versions, on
CPython 3.11.  They hold the encodings of the whole corpus under every
option, and one archive that ``vxa.create`` builds from the benchmark's
smoke-shaped bulk members.  They run on the oldest and newest interpreters
too (CI), because an archive's bytes must not depend on the interpreter that
wrote it.  Only a change to an encoder's *output* moves the corpus pins; the
archive pin also moves with the ZIP writer's layout or a bundled decoder
image (``tests/test_vxc_compiler.py`` pins those).
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.api as vxa
from repro.codecs import bwt, lz77
from repro.codecs.bitio import BitWriter
from repro.codecs.bwt import RLE_MAX_RUN, RLE_TRIGGER, mtf_encode
from repro.codecs.huffman import HuffmanEncoder, write_lengths_header
from repro.codecs.lz77 import (
    DISTANCE_SLOTS,
    END_OF_BLOCK,
    LENGTH_SLOTS,
    MAX_MATCH,
    MIN_MATCH,
    NUM_DISTANCE_SYMBOLS,
    NUM_LITLEN_SYMBOLS,
    WINDOW_SIZE,
)
from repro.codecs.vxbwt import VxbwtCodec
from repro.codecs.vxz import VxzCodec
from repro.errors import CodecError
from repro.workloads import synthetic_log_bytes, synthetic_source_tree_bytes

# -- the first encoders, verbatim ---------------------------------------------------


class SeedBitWriter:
    """Accumulates bits LSB-first and yields bytes."""

    def __init__(self):
        self._buffer = bytearray()
        self._bit_position = 0
        self._current = 0

    def write_bit(self, bit: int) -> None:
        if bit:
            self._current |= 1 << self._bit_position
        self._bit_position += 1
        if self._bit_position == 8:
            self._buffer.append(self._current)
            self._current = 0
            self._bit_position = 0

    def write_bits(self, value: int, count: int) -> None:
        """Write ``count`` bits of ``value``, least significant bit first."""
        if count < 0 or value < 0:
            raise CodecError("bit writes must be non-negative")
        for position in range(count):
            self.write_bit((value >> position) & 1)

    def write_code(self, code: int, length: int) -> None:
        """Write a Huffman code: most significant bit of the code first."""
        for position in range(length - 1, -1, -1):
            self.write_bit((code >> position) & 1)

    def align_to_byte(self) -> None:
        while self._bit_position != 0:
            self.write_bit(0)

    def getvalue(self) -> bytes:
        """Return all complete bytes, padding the final partial byte with zeros."""
        result = bytearray(self._buffer)
        if self._bit_position:
            result.append(self._current)
        return bytes(result)

    @property
    def bit_length(self) -> int:
        return len(self._buffer) * 8 + self._bit_position


def seed_write_symbol(encoder: HuffmanEncoder, writer: SeedBitWriter, symbol: int) -> None:
    length = encoder.lengths[symbol]
    if length == 0:
        raise CodecError(f"symbol {symbol} has no code")
    writer.write_code(encoder.codes[symbol], length)


def seed_length_to_slot(length: int) -> tuple[int, int, int]:
    """Map a match length to ``(slot_index, extra_bits, extra_value)``."""
    for index in range(len(LENGTH_SLOTS) - 1, -1, -1):
        base, extra = LENGTH_SLOTS[index]
        if length >= base:
            return index, extra, length - base
    raise ValueError(f"match length {length} below minimum")


def seed_distance_to_slot(distance: int) -> tuple[int, int, int]:
    """Map a match distance to ``(slot_index, extra_bits, extra_value)``."""
    for index in range(len(DISTANCE_SLOTS) - 1, -1, -1):
        base, extra = DISTANCE_SLOTS[index]
        if distance >= base:
            return index, extra, distance - base
    raise ValueError(f"distance {distance} below minimum")


@dataclass(frozen=True)
class Token:
    """One LZ77 token: either a literal byte or a (length, distance) match."""

    literal: int | None = None
    length: int = 0
    distance: int = 0

    @property
    def is_literal(self) -> bool:
        return self.literal is not None


def seed_tokenize(data: bytes, *, max_chain: int = 64, lazy: bool = True) -> list[Token]:
    """Greedy/lazy LZ77 parse of ``data`` into literals and matches."""
    length = len(data)
    tokens: list[Token] = []
    head: dict[int, int] = {}
    previous = [0] * length
    position = 0

    def hash_at(index: int) -> int:
        return data[index] | (data[index + 1] << 8) | (data[index + 2] << 16)

    def insert(index: int) -> None:
        if index + MIN_MATCH <= length:
            key = hash_at(index)
            previous[index] = head.get(key, -1)
            head[key] = index

    def find_match(index: int) -> tuple[int, int]:
        """Return (best_length, best_distance) for position ``index``."""
        if index + MIN_MATCH > length:
            return 0, 0
        key = hash_at(index)
        candidate = head.get(key, -1)
        best_length = 0
        best_distance = 0
        chain = max_chain
        limit = min(MAX_MATCH, length - index)
        window_start = index - WINDOW_SIZE
        while candidate >= 0 and candidate >= window_start and chain > 0:
            chain -= 1
            match_length = 0
            while (
                match_length < limit
                and data[candidate + match_length] == data[index + match_length]
            ):
                match_length += 1
            if match_length > best_length:
                best_length = match_length
                best_distance = index - candidate
                if match_length >= limit:
                    break
            candidate = previous[candidate]
        if best_length < MIN_MATCH:
            return 0, 0
        return best_length, best_distance

    while position < length:
        inserted_current = False
        match_length, match_distance = find_match(position)
        if lazy and MIN_MATCH <= match_length < MAX_MATCH and position + 1 < length:
            insert(position)
            inserted_current = True
            next_length, next_distance = find_match(position + 1)
            if next_length > match_length:
                tokens.append(Token(literal=data[position]))
                position += 1
                inserted_current = False
                match_length, match_distance = next_length, next_distance
        if match_length >= MIN_MATCH:
            tokens.append(Token(length=match_length, distance=match_distance))
            for offset in range(1 if inserted_current else 0, match_length):
                insert(position + offset)
            position += match_length
        else:
            if not inserted_current:
                insert(position)
            tokens.append(Token(literal=data[position]))
            position += 1
    return tokens


def seed_suffix_array_int(values: np.ndarray) -> np.ndarray:
    length = len(values)
    rank = values.copy()
    order = np.argsort(rank, kind="stable")
    step = 1
    while True:
        shifted = np.full(length, -1, dtype=np.int64)
        if step < length:
            shifted[:-step] = rank[step:]
        order = np.lexsort((shifted, rank))
        sorted_rank = rank[order]
        sorted_shift = shifted[order]
        changes = np.empty(length, dtype=np.int64)
        changes[0] = 0
        changes[1:] = (
            (sorted_rank[1:] != sorted_rank[:-1]) | (sorted_shift[1:] != sorted_shift[:-1])
        ).cumsum()
        new_rank = np.empty(length, dtype=np.int64)
        new_rank[order] = changes
        rank = new_rank
        if changes[-1] == length - 1:
            return order
        step *= 2


def seed_bwt_forward(block: bytes) -> tuple[bytes, int]:
    """Burrows-Wheeler transform of ``block``."""
    if not block:
        return b"", 0
    # Transform of block + sentinel, where the sentinel sorts before all bytes.
    length = len(block)
    data = np.frombuffer(block, dtype=np.uint8).astype(np.int64) + 1
    padded = np.concatenate([data, np.zeros(1, dtype=np.int64)])
    order = seed_suffix_array_int(padded)
    output = bytearray()
    primary = -1
    for row, start in enumerate(order):
        if start == 0:
            # This row's last character is the sentinel; skip it but remember
            # where the original string ended up.
            primary = len(output)
            continue
        output.append(int(padded[start - 1]) - 1)
    if primary < 0:
        raise CodecError("BWT failed to locate the primary index")
    assert len(output) == length
    return bytes(output), primary


def seed_rle_encode(data: bytes) -> bytes:
    """bzip2-style initial run-length encoding."""
    output = bytearray()
    index = 0
    length = len(data)
    longest = RLE_TRIGGER + RLE_MAX_RUN
    while index < length:
        byte = data[index]
        run = 1
        while index + run < length and data[index + run] == byte and run < longest:
            run += 1
        if run >= RLE_TRIGGER:
            output.extend(bytes([byte]) * RLE_TRIGGER)
            output.append(run - RLE_TRIGGER)
            index += run
        else:
            output.extend(bytes([byte]) * run)
            index += run
    return bytes(output)


def seed_vxz_encode(data: bytes, *, max_chain: int = 64, lazy: bool = True) -> bytes:
    tokens = seed_tokenize(data, max_chain=max_chain, lazy=lazy)

    litlen_freq = [0] * NUM_LITLEN_SYMBOLS
    dist_freq = [0] * NUM_DISTANCE_SYMBOLS
    staged: list[tuple] = []
    for token in tokens:
        if token.is_literal:
            litlen_freq[token.literal] += 1
            staged.append(("lit", token.literal))
        else:
            length_slot, length_bits, length_extra = seed_length_to_slot(token.length)
            dist_slot, dist_bits, dist_extra = seed_distance_to_slot(token.distance)
            litlen_freq[257 + length_slot] += 1
            dist_freq[dist_slot] += 1
            staged.append(
                ("match", length_slot, length_bits, length_extra,
                 dist_slot, dist_bits, dist_extra)
            )
    litlen_freq[END_OF_BLOCK] += 1

    litlen_encoder = HuffmanEncoder.from_frequencies(litlen_freq)
    dist_encoder = HuffmanEncoder.from_frequencies(dist_freq)

    writer = SeedBitWriter()
    for entry in staged:
        if entry[0] == "lit":
            seed_write_symbol(litlen_encoder, writer, entry[1])
        else:
            _, length_slot, length_bits, length_extra, dist_slot, dist_bits, dist_extra = entry
            seed_write_symbol(litlen_encoder, writer, 257 + length_slot)
            writer.write_bits(length_extra, length_bits)
            seed_write_symbol(dist_encoder, writer, dist_slot)
            writer.write_bits(dist_extra, dist_bits)
    seed_write_symbol(litlen_encoder, writer, END_OF_BLOCK)

    return (
        struct.pack("<4sI", b"VXZ1", len(data))
        + write_lengths_header(litlen_encoder.lengths)
        + write_lengths_header(dist_encoder.lengths)
        + writer.getvalue()
    )


def seed_vxbwt_encode_block(block: bytes) -> bytes:
    preprocessed = seed_rle_encode(block)
    transformed, primary = seed_bwt_forward(preprocessed)
    ranks = mtf_encode(transformed)

    frequencies = [0] * 256
    for rank in ranks:
        frequencies[rank] += 1
    encoder = HuffmanEncoder.from_frequencies(frequencies)
    writer = SeedBitWriter()
    for rank in ranks:
        seed_write_symbol(encoder, writer, rank)
    writer.align_to_byte()
    return (
        struct.pack("<III", len(block), len(ranks), primary)
        + write_lengths_header(encoder.lengths)
        + writer.getvalue()
    )


def seed_vxbwt_encode(data: bytes, *, block_size: int = 64 * 1024) -> bytes:
    pieces = [struct.pack("<4sII", b"VXB1", len(data), block_size)]
    for start in range(0, len(data), block_size):
        block = data[start : start + block_size]
        pieces.append(seed_vxbwt_encode_block(block))
    if not data:
        pieces.append(seed_vxbwt_encode_block(b""))
    return b"".join(pieces)


def as_pairs(tokens: list[Token]) -> list[int | tuple[int, int]]:
    """Seed tokens in the current shape: a byte, or ``(length, distance)``."""
    return [token.literal if token.is_literal else (token.length, token.distance)
            for token in tokens]


# -- the corpus ---------------------------------------------------------------------

MAX_CHAINS = (1, 8, 64)
BLOCK_SIZES = (1024, 4096, 64 * 1024)


def _far_repeat(rng: random.Random, distance: int) -> bytes:
    """Sixteen random bytes, then again ``distance`` bytes after they began."""
    head = rng.randbytes(16)
    return head + rng.randbytes(distance - 16) + head + rng.randbytes(8)


def corpus() -> dict[str, bytes]:
    """Every input the pins cover, built from fixed seeds."""
    rng = random.Random(43)
    cases = {
        # The benchmark's text members: 12 KB slices of a synthetic tree.
        "tree-12k-a": synthetic_source_tree_bytes(12288, seed=101)[:12288],
        "tree-12k-b": synthetic_source_tree_bytes(12288, seed=102)[:12288],
        "log-4k": synthetic_log_bytes(4000, seed=103),
        "empty": b"",
        "one": b"\x00",
        "two": b"ab",
        "three": b"abc",
        "abc-500": b"abc" * 500,
    }
    for run in (3, 4, 259, 260, 263, 518, 519):
        cases[f"run-{run}"] = b"ab" + b"x" * run + b"cd" + b"x" * run + b"y"
    repeated = rng.randbytes(258)
    cases["match-258"] = repeated + rng.randbytes(40) + repeated + b"!"
    cases["match-300"] = 2 * rng.randbytes(300)
    cases["distance-32768"] = _far_repeat(rng, 32768)
    cases["distance-32769"] = _far_repeat(rng, 32769)
    # Past 64 KB: two vxbwt blocks at the default block size.
    cases["noise-70k"] = bytes(rng.choice(b"xyz") for _ in range(70_000))
    cases["random-70k"] = rng.randbytes(70_000)
    cases["zeros-100k"] = bytes(100_000)
    return cases


_CORPUS = corpus()

#: Inputs small enough to put through the oracle under every option.
_SMALL = [name for name, data in _CORPUS.items() if len(data) <= 13_000]


def test_corpus_covers_the_boundaries():
    tokens = lz77.tokenize(_CORPUS["match-258"])
    assert (258, 298) in tokens
    assert (16, 32768) in lz77.tokenize(_CORPUS["distance-32768"])
    assert all(distance < 32769 for *_, distance in
               (token for token in lz77.tokenize(_CORPUS["distance-32769"])
                if not isinstance(token, int)))
    assert len(_CORPUS["random-70k"]) > 64 * 1024


# -- primitives against the oracle ----------------------------------------------------


@pytest.mark.parametrize("name", list(_CORPUS))
def test_tokenize_matches_the_oracle(name):
    data = _CORPUS[name]
    chains = MAX_CHAINS if name in _SMALL else (64,)
    for max_chain in chains:
        for lazy in (True, False):
            assert (lz77.tokenize(data, max_chain=max_chain, lazy=lazy)
                    == as_pairs(seed_tokenize(data, max_chain=max_chain, lazy=lazy)))


def test_slots_match_the_oracle():
    for length in range(MIN_MATCH, MAX_MATCH + 1):
        assert lz77.length_to_slot(length) == seed_length_to_slot(length)
    for distance in range(1, WINDOW_SIZE + 1):
        assert lz77.distance_to_slot(distance) == seed_distance_to_slot(distance)
    for length in (0, MIN_MATCH - 1, MAX_MATCH + 1):
        with pytest.raises(ValueError):
            lz77.length_to_slot(length)
    for distance in (0, WINDOW_SIZE + 1):
        with pytest.raises(ValueError):
            lz77.distance_to_slot(distance)


@pytest.mark.parametrize("name", list(_CORPUS))
def test_block_transforms_match_the_oracle(name):
    data = _CORPUS[name]
    assert bwt.rle_encode(data) == seed_rle_encode(data)
    block = seed_rle_encode(data[: 64 * 1024])
    assert bwt.bwt_forward(block) == seed_bwt_forward(block)
    if block:
        values = np.frombuffer(block, dtype=np.uint8).astype(np.int64)
        assert np.array_equal(bwt.suffix_array(block), seed_suffix_array_int(values))


def test_bit_writer_replays_the_oracle():
    rng = random.Random(44)
    new, old = BitWriter(), SeedBitWriter()
    for step in range(4000):
        operation = rng.randrange(4)
        if operation == 0:
            bit = rng.choice((0, 1, 2, True, False))
            new.write_bit(bit)
            old.write_bit(bit)
        elif operation == 1:
            count = rng.randrange(0, 70)
            # Bits of ``value`` above ``count`` are not written.
            value = rng.randrange(1 << (count + rng.randrange(3)))
            new.write_bits(value, count)
            old.write_bits(value, count)
        elif operation == 2:
            length = rng.randrange(-1, 17)
            code = rng.randrange(1 << max(length + rng.randrange(2), 0))
            new.write_code(code, length)
            old.write_code(code, length)
        else:
            new.align_to_byte()
            old.align_to_byte()
        assert new.bit_length == old.bit_length, step
        if step % 97 == 0:
            assert new.getvalue() == old.getvalue(), step
    assert new.getvalue() == old.getvalue()
    with pytest.raises(CodecError):
        new.write_bits(-1, 3)
    with pytest.raises(CodecError):
        new.write_bits(1, -1)


def test_huffman_symbols_match_the_oracle():
    data = _CORPUS["tree-12k-a"]
    encoder = HuffmanEncoder.from_data(data)
    new, old = BitWriter(), SeedBitWriter()
    new.write_bits(5, 3)
    old.write_bits(5, 3)
    for symbol in data:
        encoder.write_symbol(new, symbol)
        seed_write_symbol(encoder, old, symbol)
    assert new.getvalue() == old.getvalue()
    missing = next(symbol for symbol in range(256) if encoder.lengths[symbol] == 0)
    with pytest.raises(CodecError):
        encoder.write_symbol(BitWriter(), missing)


# -- the codecs against the oracle -----------------------------------------------------


@pytest.mark.parametrize("name", list(_CORPUS))
def test_vxz_encode_matches_the_oracle(name):
    data = _CORPUS[name]
    for max_chain in (MAX_CHAINS if name in _SMALL else (64,)):
        assert (VxzCodec().encode(data, max_chain=max_chain)
                == seed_vxz_encode(data, max_chain=max_chain))
    assert VxzCodec(lazy=False).encode(data) == seed_vxz_encode(data, lazy=False)


@pytest.mark.parametrize("name", list(_CORPUS))
def test_vxbwt_encode_matches_the_oracle(name):
    data = _CORPUS[name]
    for block_size in (BLOCK_SIZES if name in _SMALL else (64 * 1024,)):
        assert (VxbwtCodec().encode(data, block_size=block_size)
                == seed_vxbwt_encode(data, block_size=block_size))


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=3000))
def test_encoders_match_the_oracle_on_any_input(data):
    assert VxzCodec().encode(data) == seed_vxz_encode(data)
    assert VxbwtCodec().encode(data, block_size=1024) == seed_vxbwt_encode(data, block_size=1024)


# -- pinned bytes -------------------------------------------------------------------------

#: SHA-256 of every encoding of the corpus, in corpus order, by option.
VXZ_CORPUS_SHA256 = "4558fc35ec1fa392285cbb03a5b2953a5af197a0a1c522b93e15ed597ed4e4eb"
VXBWT_CORPUS_SHA256 = "95c45864a594dbfa1ac198d0a9dcdc33b223a337c3811e7c0e73385b0b9f9274"
#: SHA-256 of the archive :func:`build_bulk_archive` writes.
BULK_ARCHIVE_SHA256 = "2f618669e50cb1860e4c9cb730466850e01dccdc4eb55b23fefaf8fc34a97666"


def vxz_corpus_digest() -> str:
    digest = hashlib.sha256()
    for data in _CORPUS.values():
        for max_chain in MAX_CHAINS:
            digest.update(VxzCodec().encode(data, max_chain=max_chain))
    return digest.hexdigest()


def vxbwt_corpus_digest() -> str:
    digest = hashlib.sha256()
    for data in _CORPUS.values():
        for block_size in BLOCK_SIZES:
            digest.update(VxbwtCodec().encode(data, block_size=block_size))
    return digest.hexdigest()


def build_bulk_archive(path) -> None:
    """The smoke shape of the benchmark's bulk archive: two stored 16 KiB
    blobs beside 600 bytes of text through each of vxz and vxbwt."""
    rng = random.Random(45)
    with vxa.create(path) as builder:
        for index in range(2):
            builder.add(f"blob{index}.bin", rng.randbytes(1 << 14), store_raw=True)
        for index, codec in enumerate(("vxz", "vxbwt")):
            text = synthetic_source_tree_bytes(600, seed=rng.randrange(1 << 30))[:600]
            builder.add(f"doc{index}.txt", text, codec=codec)


def test_vxz_corpus_bytes_are_pinned():
    assert vxz_corpus_digest() == VXZ_CORPUS_SHA256


def test_vxbwt_corpus_bytes_are_pinned():
    assert vxbwt_corpus_digest() == VXBWT_CORPUS_SHA256


def test_bulk_archive_bytes_are_pinned(tmp_path):
    path = tmp_path / "bulk.zip"
    build_bulk_archive(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BULK_ARCHIVE_SHA256
